(* Test entry point: one Alcotest suite per subsystem. *)

let () =
  Alcotest.run "semperos"
    [
      ("util", Test_util.suite);
      ("sim", Test_sim.suite);
      ("engine-model", Test_engine_model.suite);
      ("noc", Test_noc.suite);
      ("dtu", Test_dtu.suite);
      ("ddl", Test_ddl.suite);
      ("caps", Test_caps.suite);
      ("mapdb-model", Test_mapdb_model.suite);
      ("kernel", Test_kernel.suite);
      ("kernel-races", Test_kernel_races.suite);
      ("fault", Test_fault.suite);
      ("channels", Test_channels.suite);
      ("migration", Test_migration.suite);
      ("balance", Test_balance.suite);
      ("fleet", Test_fleet.suite);
      ("system", Test_system.suite);
      ("m3fs", Test_m3fs.suite);
      ("trace", Test_trace.suite);
      ("obs", Test_obs.suite);
      ("harness", Test_harness.suite);
      ("runner", Test_runner.suite);
      ("tools", Test_tools.suite);
      ("properties", Test_properties.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("replay", Test_replay.suite);
    ]
