(* Command-line front end for the SemperOS simulator.

   semperos_cli micro   — Table 3 style capability-operation timings
   semperos_cli chain   — chain revocation timing (Figure 4 point)
   semperos_cli tree    — tree revocation timing (Figure 5 point)
   semperos_cli run     — run an application workload at scale
   semperos_cli nginx   — run the webserver benchmark
   semperos_cli fuzz    — fuzz the capability protocols under faults
   semperos_cli record  — run a figure experiment with periodic checkpoints
   semperos_cli replay  — resume a recorded figure run from a checkpoint
   semperos_cli shrink  — minimise a failing fuzz case by delta debugging
   semperos_cli bench   — wall-clock throughput of the simulator itself
   semperos_cli stats   — run a workload, dump the metrics registry as JSON
   semperos_cli trace   — run a workload, dump the protocol trace as JSONL *)

open Cmdliner
open Semperos

let mode_arg =
  let doc = "Run the single-kernel M3 baseline instead of SemperOS." in
  Term.app
    (Term.const (fun m3 -> if m3 then Cost.M3 else Cost.Semperos))
    Arg.(value & flag & info [ "m3" ] ~doc)

(* Evaluates to the job count and records it as the session default
   (see {!Semperos.Runner}). Results are collected in submission order,
   so any job count prints identical bytes. *)
let jobs_arg =
  let doc =
    "Run independent simulations on $(docv) OCaml domains (default: available cores; 1 = serial)."
  in
  Term.app
    (Term.const (fun j ->
         (match j with
         | Some n when n >= 1 -> Runner.set_jobs n
         | Some n ->
           Fmt.epr "error: --jobs must be >= 1 (got %d)@." n;
           exit 2
         | None -> ());
         Runner.jobs ()))
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* ------------------------------------------------------------------ *)

let micro_cmd =
  let run mode spanning =
    let exchange, revoke = Semper_harness.Microbench.exchange_revoke ~mode ~spanning in
    Table.print ~title:"Capability operation runtimes (cycles)"
      ~header:[ "operation"; "scope"; "cycles" ]
      [
        [ "exchange"; (if spanning then "spanning" else "local"); Int64.to_string exchange ];
        [ "revoke"; (if spanning then "spanning" else "local"); Int64.to_string revoke ];
      ]
  in
  let spanning =
    Arg.(value & flag & info [ "spanning" ] ~doc:"Cross PE-group boundaries (two kernels).")
  in
  Cmd.v
    (Cmd.info "micro" ~doc:"Time one capability exchange and revoke (Table 3).")
    Term.(const run $ mode_arg $ spanning)

let chain_cmd =
  let run mode spanning len =
    let cycles = Semper_harness.Microbench.chain_revocation ~mode ~spanning ~len () in
    Fmt.pr "chain of %d: revoked in %Ld cycles (%.1f us)@." len cycles
      (Int64.to_float cycles /. 2000.0)
  in
  let spanning = Arg.(value & flag & info [ "spanning" ] ~doc:"Alternate between two kernels.") in
  let len =
    Arg.(value & opt int 100 & info [ "length" ] ~docv:"N" ~doc:"Chain length (exchanges).")
  in
  Cmd.v
    (Cmd.info "chain" ~doc:"Time revoking a capability chain (Figure 4).")
    Term.(const run $ mode_arg $ spanning $ len)

let tree_cmd =
  let run children extra_kernels batching =
    let cycles = Semper_harness.Microbench.tree_revocation ~batching ~extra_kernels ~children () in
    Fmt.pr "tree of %d children over 1+%d kernels%s: revoked in %Ld cycles (%.1f us)@." children
      extra_kernels
      (if batching then " (batched)" else "")
      cycles
      (Int64.to_float cycles /. 2000.0)
  in
  let children =
    Arg.(value & opt int 128 & info [ "children" ] ~docv:"N" ~doc:"Child capabilities.")
  in
  let extra =
    Arg.(value & opt int 12 & info [ "kernels" ] ~docv:"K" ~doc:"Extra kernels holding children.")
  in
  let batching =
    Arg.(value & flag & info [ "batching" ] ~doc:"Enable revoke message batching (ablation).")
  in
  Cmd.v
    (Cmd.info "tree" ~doc:"Time revoking a capability tree (Figure 5).")
    Term.(const run $ children $ extra $ batching)

(* ------------------------------------------------------------------ *)

let workload_arg =
  let parse s =
    match Workloads.by_name s with
    | Some spec -> Ok spec
    | None ->
      Error
        (`Msg
          (Fmt.str "unknown workload %S (expected one of: %s)" s
             (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))))
  in
  let print ppf w = Fmt.string ppf w.Workloads.name in
  Arg.conv (parse, print)

let run_cmd =
  let run mode workload kernels services instances contention jobs =
    let cfg =
      Experiment.config ~mode ?mem_contention:contention ~kernels ~services ~instances workload
    in
    (* The single-instance reference and the scaled run are independent
       simulations; with [--jobs 2] they proceed on separate domains. *)
    let single, o =
      match Runner.experiments ~jobs [ { cfg with Experiment.instances = 1 }; cfg ] with
      | [ s; o ] -> (s, o)
      | _ -> assert false
    in
    let eff = 100.0 *. Experiment.parallel_efficiency ~single ~parallel:o in
    let sys_eff = 100.0 *. Experiment.system_efficiency ~single ~parallel:o in
    Table.print
      ~title:
        (Fmt.str "%s x%d on %d kernels + %d services (%s)" workload.Workloads.name instances
           kernels services
           (match mode with Cost.Semperos -> "SemperOS" | Cost.M3 -> "M3"))
      ~header:[ "metric"; "value" ]
      [
        [ "mean runtime (ms)"; Fmt.str "%.3f" (o.Experiment.mean_runtime /. 2.0e6) ];
        [ "makespan (ms)"; Fmt.str "%.3f" (Int64.to_float o.Experiment.max_runtime /. 2.0e6) ];
        [ "capability ops"; string_of_int o.Experiment.cap_ops ];
        [ "capability ops/s"; Fmt.str "%.0f" o.Experiment.cap_ops_per_s ];
        [ "spanning exchanges"; string_of_int o.Experiment.exchanges_spanning ];
        [ "spanning revokes"; string_of_int o.Experiment.revokes_spanning ];
        [ "parallel efficiency"; Fmt.str "%.1f%%" eff ];
        [ "system efficiency"; Fmt.str "%.1f%%" sys_eff ];
        [ "kernel utilisation"; Fmt.str "%.1f%%" (100.0 *. o.Experiment.kernel_utilisation) ];
        [ "service utilisation"; Fmt.str "%.1f%%" (100.0 *. o.Experiment.service_utilisation) ];
      ]
  in
  let workload =
    Arg.(required & opt (some workload_arg) None & info [ "workload"; "w" ] ~docv:"NAME"
           ~doc:"Application workload (tar, untar, find, sqlite, leveldb, postmark).")
  in
  let kernels = Arg.(value & opt int 32 & info [ "kernels"; "k" ] ~docv:"K" ~doc:"PE groups.") in
  let services =
    Arg.(value & opt int 32 & info [ "services"; "s" ] ~docv:"S" ~doc:"m3fs instances.")
  in
  let instances =
    Arg.(value & opt int 512 & info [ "instances"; "n" ] ~docv:"N" ~doc:"Benchmark instances.")
  in
  let contention =
    Arg.(value & opt (some float) None
         & info [ "contention" ] ~docv:"C" ~doc:"Memory-contention coefficient (default 0.35).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run an application benchmark at scale (Figures 6-9).")
    Term.(const run $ mode_arg $ workload $ kernels $ services $ instances $ contention $ jobs_arg)

let trace_dump_cmd =
  let run workload out =
    let t = workload.Workloads.build () in
    (match out with
    | Some path ->
      Trace_io.save path t;
      Fmt.pr "wrote %s (%d ops, %d files)@." path (List.length t.Trace.ops)
        (List.length t.Trace.files)
    | None -> print_string (Trace_io.to_string t))
  in
  let workload =
    Arg.(required & opt (some workload_arg) None & info [ "workload"; "w" ] ~docv:"NAME"
           ~doc:"Workload whose trace to dump.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE"
           ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace-dump" ~doc:"Dump a workload's syscall trace in the text format.")
    Term.(const run $ workload $ out)

let trace_replay_cmd =
  let run path kernels =
    match Trace_io.load path with
    | Error e ->
      Fmt.epr "error: %s@." e;
      exit 1
    | Ok trace ->
      let sys = System.create (System.config ~kernels ~user_pes_per_kernel:4 ()) in
      let fs = M3fs.create sys ~kernel:0 ~name:"m3fs" ~files:trace.Trace.files () in
      let vpe = System.spawn_vpe sys ~kernel:(kernels - 1) in
      let result = ref None in
      Replay.run sys fs ~vpe trace (fun r -> result := Some r);
      ignore (System.run sys);
      (match !result with
      | None ->
        Fmt.epr "replay did not complete@.";
        exit 1
      | Some r ->
        List.iter (Fmt.pr "replay error: %s@.") r.Replay.errors;
        Fmt.pr "%s: %d I/O ops, %d client capability ops, %.3f ms, %d errors@." r.Replay.trace
          r.Replay.io_ops r.Replay.client_cap_ops
          (Int64.to_float (Replay.runtime r) /. 2.0e6)
          (List.length r.Replay.errors);
        let report = Audit.run sys in
        Fmt.pr "post-replay audit: %a@." Audit.pp_report report)
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Trace file to replay.")
  in
  let kernels = Arg.(value & opt int 2 & info [ "kernels"; "k" ] ~docv:"K" ~doc:"PE groups.") in
  Cmd.v
    (Cmd.info "trace-replay" ~doc:"Replay a saved syscall trace against a fresh system.")
    Term.(const run $ path $ kernels)

let latency_cmd =
  let run workload kernels services instances =
    let trace = Trace.with_prefix "/i0" (workload.Workloads.build ()) in
    ignore trace;
    (* Run the workload and print each kernel's per-syscall latency
       profile. *)
    let sys =
      System.create (System.config ~kernels ~user_pes_per_kernel:((instances / kernels) + 2) ())
    in
    let fs =
      M3fs.create ~config:workload.Workloads.fs_config sys ~kernel:0 ~name:"m3fs"
        ~files:
          (List.concat
             (List.init instances (fun i ->
                  (Trace.with_prefix (Fmt.str "/i%d" i) (workload.Workloads.build ())).Trace.files)))
        ()
    in
    ignore services;
    for i = 0 to instances - 1 do
      let vpe = System.spawn_vpe sys ~kernel:(i mod kernels) in
      Replay.run sys fs ~vpe
        (Trace.with_prefix (Fmt.str "/i%d" i) (workload.Workloads.build ()))
        (fun _ -> ())
    done;
    ignore (System.run sys);
    List.iter
      (fun k ->
        let stats = Kernel.stats k in
        let rows = ref [] in
        Hashtbl.iter
          (fun name acc ->
            rows :=
              [
                name;
                string_of_int (Stats.Acc.count acc);
                Fmt.str "%.0f" (Stats.Acc.mean acc);
                Fmt.str "%.0f" (Stats.Acc.min acc);
                Fmt.str "%.0f" (Stats.Acc.max acc);
              ]
              :: !rows)
          stats.Kernel.latencies;
        if !rows <> [] then
          Table.print
            ~title:(Fmt.str "kernel %d syscall latencies (cycles)" (Kernel.id k))
            ~header:[ "syscall"; "count"; "mean"; "min"; "max" ]
            (List.sort compare !rows))
      (System.kernels sys)
  in
  let workload =
    Arg.(required & opt (some workload_arg) None & info [ "workload"; "w" ] ~docv:"NAME"
           ~doc:"Workload to profile.")
  in
  let kernels = Arg.(value & opt int 2 & info [ "kernels"; "k" ] ~docv:"K" ~doc:"PE groups.") in
  let services = Arg.(value & opt int 1 & info [ "services"; "s" ] ~docv:"S" ~doc:"(unused, single service)") in
  let instances = Arg.(value & opt int 8 & info [ "instances"; "n" ] ~docv:"N" ~doc:"Instances.") in
  Cmd.v
    (Cmd.info "latency" ~doc:"Per-syscall latency profile of a workload run.")
    Term.(const run $ workload $ kernels $ services $ instances)

(* Shared driver for the observability commands: run [instances] copies
   of a workload against one m3fs on a multi-kernel system, then hand
   the system to [emit]. Everything is sim-clock driven, so the same
   workload and shape produce byte-identical output on every run. *)
let run_observed workload kernels instances emit =
  let sys =
    System.create (System.config ~kernels ~user_pes_per_kernel:((instances / kernels) + 2) ())
  in
  let fs =
    M3fs.create ~config:workload.Workloads.fs_config sys ~kernel:0 ~name:"m3fs"
      ~files:
        (List.concat
           (List.init instances (fun i ->
                (Trace.with_prefix (Fmt.str "/i%d" i) (workload.Workloads.build ())).Trace.files)))
      ()
  in
  for i = 0 to instances - 1 do
    let vpe = System.spawn_vpe sys ~kernel:(i mod kernels) in
    Replay.run sys fs ~vpe
      (Trace.with_prefix (Fmt.str "/i%d" i) (workload.Workloads.build ()))
      (fun _ -> ())
  done;
  ignore (System.run sys);
  emit sys

let obs_workload_args =
  let workload =
    Arg.(required & opt (some workload_arg) None & info [ "workload"; "w" ] ~docv:"NAME"
           ~doc:"Workload to run.")
  in
  let kernels = Arg.(value & opt int 2 & info [ "kernels"; "k" ] ~docv:"K" ~doc:"PE groups.") in
  let instances = Arg.(value & opt int 8 & info [ "instances"; "n" ] ~docv:"N" ~doc:"Instances.") in
  (workload, kernels, instances)

let stats_cmd =
  let workload, kernels, instances = obs_workload_args in
  let run workload kernels instances =
    run_observed workload kernels instances (fun sys ->
        print_endline (Obs.Json.to_string (Obs.Registry.snapshot (System.obs sys))))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a workload and print the full metrics registry (fabric, DTU, and per-kernel \
          counters, gauges, histograms) as one JSON object. Deterministic: identical invocations \
          print identical bytes.")
    Term.(const run $ workload $ kernels $ instances)

let trace_cmd =
  let workload, kernels, instances = obs_workload_args in
  let run workload kernels instances tail =
    run_observed workload kernels instances (fun sys ->
        let buf = System.trace_buffer sys in
        let events =
          match tail with Some n -> Obs.Trace.tail buf ~n | None -> Obs.Trace.events buf
        in
        let dropped = Obs.Trace.dropped buf in
        if dropped > 0 then
          Fmt.epr "note: ring capacity reached; %d oldest events dropped@." dropped;
        List.iter (fun e -> print_endline (Obs.Json.to_string (Obs.Trace.event_json e))) events)
  in
  let tail =
    Arg.(value & opt (some int) None & info [ "tail" ] ~docv:"N"
           ~doc:"Print only the last N events.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload and dump the protocol trace ring (syscall spans, IKC legs, revocation \
          waves, migrations) as JSONL, one event per line, oldest first. Timestamps are \
          sim-clock cycles, so identical invocations print identical bytes.")
    Term.(const run $ workload $ kernels $ instances $ tail)

let fuzz_cmd =
  let run workload_seed fault_seed runs kernels vpes ops spares no_delay no_dup no_drop no_stall
      no_retry verbose jobs =
    if kernels < 1 || kernels + max 0 spares > Cost.max_kernels then begin
      Fmt.epr "error: --kernels plus --spares must be in [1, %d]@." Cost.max_kernels;
      exit 2
    end;
    if vpes < 1 || (vpes + kernels - 1) / kernels > Cost.max_pes_per_kernel then begin
      Fmt.epr "error: --vpes must be in [1, %d] for %d kernels@."
        (Cost.max_pes_per_kernel * kernels) kernels;
      exit 2
    end;
    if ops < 0 || runs < 0 then begin
      Fmt.epr "error: --ops and --runs must be non-negative@.";
      exit 2
    end;
    let spec =
      Fuzz.spec ~kernels ~vpes ~ops ~spares ~delay:(not no_delay) ~dup:(not no_dup)
        ~drop:(not no_drop) ~stall:(not no_stall) ~retry:(not no_retry) ()
    in
    (* Non-default options must ride along in the replay hint, or the
       printed command would not reproduce the failure. *)
    let spec_flags =
      String.concat ""
        (List.filter_map
           (fun (on, flag) -> if on then Some (" " ^ flag) else None)
           [
             (kernels <> 3, Fmt.str "--kernels %d" kernels);
             (vpes <> 6, Fmt.str "--vpes %d" vpes);
             (ops <> 40, Fmt.str "--ops %d" ops);
             (spares <> 0, Fmt.str "--spares %d" spares);
             (no_delay, "--no-delay");
             (no_dup, "--no-dup");
             (no_drop, "--no-drop");
             (no_stall, "--no-stall");
             (no_retry, "--no-retry");
           ])
    in
    let outcomes = Fuzz.run_many ~jobs ~spec ~workload_seed ~fault_seed ~runs () in
    let bad = List.filter (fun o -> o.Fuzz.failures <> []) outcomes in
    List.iter
      (fun o ->
        if verbose || o.Fuzz.failures <> [] then Fmt.pr "%a@." Fuzz.pp_outcome o)
      outcomes;
    Fmt.pr "fuzz: %d/%d seed pairs clean@." (runs - List.length bad) runs;
    List.iter
      (fun o ->
        Fmt.pr "replay: semperos_cli fuzz --workload-seed %d --fault-seed %d --runs 1%s@."
          o.Fuzz.workload_seed o.Fuzz.fault_seed spec_flags)
      bad;
    if bad <> [] then exit 1
  in
  let wseed =
    Arg.(value & opt int 1 & info [ "workload-seed" ] ~docv:"N" ~doc:"First workload seed.")
  in
  let fseed =
    Arg.(value & opt int 1001 & info [ "fault-seed" ] ~docv:"M" ~doc:"First fault-plan seed.")
  in
  let runs =
    Arg.(value & opt int 50 & info [ "runs"; "n" ] ~docv:"R"
         ~doc:"Seed pairs to run: (N+i, M+i) for i in [0, R).")
  in
  let kernels = Arg.(value & opt int 3 & info [ "kernels"; "k" ] ~docv:"K" ~doc:"PE groups.") in
  let vpes = Arg.(value & opt int 6 & info [ "vpes" ] ~docv:"V" ~doc:"VPEs in the workload.") in
  let ops = Arg.(value & opt int 40 & info [ "ops" ] ~docv:"O" ~doc:"Workload steps per run.") in
  let spares =
    Arg.(value & opt int 0 & info [ "spares" ] ~docv:"S"
         ~doc:"Spare kernels; adds fleet join/drain transitions to the workload.")
  in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let no_delay = flag "no-delay" "Disable delay injection." in
  let no_dup = flag "no-dup" "Disable duplicate delivery." in
  let no_drop = flag "no-drop" "Disable message drops." in
  let no_stall = flag "no-stall" "Disable kernel stalls." in
  let no_retry =
    flag "no-retry" "Disable kernel retransmission (to demonstrate the oracles failing)."
  in
  let verbose = flag "verbose" "Print every outcome line, not just failures." in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the distributed capability protocols under injected faults. Every run is \
          deterministic in (workload seed, fault seed); failures print the exact pair to replay.")
    Term.(const run $ wseed $ fseed $ runs $ kernels $ vpes $ ops $ spares $ no_delay $ no_dup
          $ no_drop $ no_stall $ no_retry $ verbose $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* Recorded figure runs: record / replay / shrink.

   [record] runs a figure sweep with periodic result-prefix checkpoints
   in a directory; [replay --from N] resumes from the nearest checkpoint
   and must print bytes identical to the recording (the resume note goes
   to stderr, keeping stdout comparable). *)

let figure_arg =
  let parse s =
    match Figures.find s with
    | Some f -> Ok f
    | None ->
      Error
        (`Msg
          (Fmt.str "unknown figure %S (expected one of: %s)" s
             (String.concat ", " (List.map (fun f -> f.Figures.name) Figures.all))))
  in
  Arg.conv (parse, fun ppf f -> Fmt.string ppf f.Figures.name)

let dir_arg =
  Arg.(required & opt (some string) None & info [ "dir"; "d" ] ~docv:"DIR"
       ~doc:"Recording directory (manifest plus ckpt-<n>.img images).")

let json_out_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
       ~doc:"Also write the figure's JSON to FILE.")

let emit_output out (o : Figures.output) =
  print_string o.Figures.text;
  match out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Obs.Json.to_string o.Figures.json);
    output_char oc '\n';
    close_out oc

let record_cmd =
  let run fig smoke every dir out jobs =
    if every < 1 then begin
      Fmt.epr "error: --every must be >= 1@.";
      exit 2
    end;
    let preset = if smoke then Figures.Smoke else Figures.Full in
    emit_output out (Record.record ~jobs ~every ~dir fig preset)
  in
  let fig =
    Arg.(required & pos 0 (some figure_arg) None & info [] ~docv:"FIGURE"
         ~doc:"Figure to record (fig4 or fig6).")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Record the scaled-down preset (seconds).")
  in
  let every =
    Arg.(value & opt int 4 & info [ "every" ] ~docv:"N"
         ~doc:"Checkpoint after every N completed points.")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run a figure experiment with periodic checkpoints, so an interrupted run can be \
          resumed with $(b,replay). Prints the figure; checkpoints and the manifest go to \
          $(b,--dir).")
    Term.(const run $ fig $ smoke $ every $ dir_arg $ json_out_arg $ jobs_arg)

let replay_cmd =
  let run dir from_ out jobs =
    match Record.replay ~jobs ~dir ~from_ () with
    | Error e ->
      Fmt.epr "error: %s@." e;
      exit 1
    | Ok (resumed_at, o) ->
      Fmt.epr "resumed from checkpoint at point %d@." resumed_at;
      emit_output out o
  in
  let from_ =
    Arg.(value & opt int max_int & info [ "from" ] ~docv:"N"
         ~doc:"Resume from the nearest checkpoint at or below point N (default: the latest).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Resume a recorded figure run from its nearest checkpoint and re-render it. Stdout is \
          byte-identical to the uninterrupted $(b,record) output at any $(b,--from) and \
          $(b,--jobs); the resume position is reported on stderr.")
    Term.(const run $ dir_arg $ from_ $ json_out_arg $ jobs_arg)

let shrink_cmd =
  let run workload_seed fault_seed kernels vpes ops spares no_delay no_dup no_drop no_stall
      no_retry every out =
    let spec =
      Fuzz.spec ~kernels ~vpes ~ops ~spares ~delay:(not no_delay) ~dup:(not no_dup)
        ~drop:(not no_drop) ~stall:(not no_stall) ~retry:(not no_retry) ()
    in
    match Fuzz.shrink ~spec ?checkpoint_every:every ~workload_seed ~fault_seed () with
    | Error e ->
      Fmt.epr "error: %s@." e;
      exit 1
    | Ok r ->
      Fmt.pr "original: %a@." Fuzz.pp_outcome r.Fuzz.sh_original;
      Fmt.pr "minimal (%d of %d ops, %d probes): %a@." r.Fuzz.sh_min_ops ops r.Fuzz.sh_probes
        Fuzz.pp_outcome r.Fuzz.sh_minimal;
      Fmt.pr "checkpoints saved %d of %d replayed ops@." r.Fuzz.sh_saved_ops
        (r.Fuzz.sh_saved_ops + r.Fuzz.sh_replayed_ops);
      (match out with
      | None -> ()
      | Some path ->
        let name = Filename.remove_extension (Filename.basename path) in
        Fuzz.Case.save path (Fuzz.Case.of_shrink ~name r);
        Fmt.pr "wrote %s@." path)
  in
  let wseed =
    Arg.(required & opt (some int) None & info [ "workload-seed" ] ~docv:"N"
         ~doc:"Workload seed of the failing case.")
  in
  let fseed =
    Arg.(required & opt (some int) None & info [ "fault-seed" ] ~docv:"M"
         ~doc:"Fault-plan seed of the failing case.")
  in
  let kernels = Arg.(value & opt int 3 & info [ "kernels"; "k" ] ~docv:"K" ~doc:"PE groups.") in
  let vpes = Arg.(value & opt int 6 & info [ "vpes" ] ~docv:"V" ~doc:"VPEs in the workload.") in
  let ops = Arg.(value & opt int 40 & info [ "ops" ] ~docv:"O" ~doc:"Workload steps per run.") in
  let spares =
    Arg.(value & opt int 0 & info [ "spares" ] ~docv:"S"
         ~doc:"Spare kernels; adds fleet join/drain transitions to the workload.")
  in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let no_delay = flag "no-delay" "Disable delay injection." in
  let no_dup = flag "no-dup" "Disable duplicate delivery." in
  let no_drop = flag "no-drop" "Disable message drops." in
  let no_stall = flag "no-stall" "Disable kernel stalls." in
  let no_retry = flag "no-retry" "Disable kernel retransmission." in
  let every =
    Arg.(value & opt (some int) None & info [ "checkpoint-every" ] ~docv:"K"
         ~doc:"Checkpoint cadence for the shrinker's probes (default: ops/8).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE"
         ~doc:"Write the shrunk case as a self-contained corpus file.")
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Minimise a failing fuzz case to its smallest failing op-prefix by delta debugging \
          from checkpoints. Deterministic: the same seeds always shrink to the same minimal \
          case.")
    Term.(const run $ wseed $ fseed $ kernels $ vpes $ ops $ spares $ no_delay $ no_dup
          $ no_drop $ no_stall $ no_retry $ every $ out)

let bench_cmd =
  let run mode smoke out =
    match mode with
    | "wallclock" ->
      let preset = if smoke then Semper_harness.Wallclock.Smoke else Semper_harness.Wallclock.Full in
      Semper_harness.Wallclock.run ~preset ?path:out ()
    | "balance" ->
      let preset = if smoke then Semper_harness.Skew.Smoke else Semper_harness.Skew.Full in
      Semper_harness.Skew.bench ~preset ?path:out ()
    | "fleet" ->
      let preset =
        if smoke then Semper_harness.Fleetbench.Smoke else Semper_harness.Fleetbench.Full
      in
      Semper_harness.Fleetbench.bench ~preset ?path:out ()
    | "batch" ->
      let preset =
        if smoke then Semper_harness.Batchbench.Smoke else Semper_harness.Batchbench.Full
      in
      Semper_harness.Batchbench.run ~preset ?path:out ()
    | "scale" ->
      let preset = if smoke then Semper_harness.Scale.Smoke else Semper_harness.Scale.Full in
      Semper_harness.Scale.run ~preset ?path:out ()
    | m ->
      Fmt.epr
        "error: unknown bench mode %S (expected: wallclock, balance, fleet, batch, or scale)@." m;
      exit 2
  in
  let mode =
    Arg.(value & pos 0 string "wallclock" & info [] ~docv:"MODE"
         ~doc:
           "Benchmark mode: $(b,wallclock), $(b,balance), $(b,fleet), $(b,batch), or \
            $(b,scale).")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
         ~doc:"Run the scaled-down preset (seconds, used by the test suite).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE"
         ~doc:"Write the JSON report to FILE (default BENCH_<mode>.json).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Standalone benchmark deliverables. $(b,wallclock) measures the simulator's own \
          host throughput (events/s; host-dependent by construction, the only output exempt \
          from the byte-identity contract). $(b,balance) runs the skewed-workload load-balancer \
          ablation (BENCH_balance.json). $(b,fleet) runs the elastic-fleet autoscaling benchmark \
          (BENCH_fleet.json): an overloaded two-kernel system scaling out to absorb a surge and \
          back, with per-transition safety checks. $(b,batch) runs every workload with IKC batching off \
          and on (BENCH_batch.json); both are deterministic. $(b,scale) measures throughput, \
          heap, GC, and audit cost at 1K/2K/4K PEs (BENCH_scale.json; host-dependent like \
          wallclock).")
    Term.(const run $ mode $ smoke $ out)

let nginx_cmd =
  let run mode kernels services servers =
    let o = Nginx_bench.run (Nginx_bench.config ~mode ~kernels ~services ~servers ()) in
    Fmt.pr "%d server processes on %d kernels + %d services: %.0f requests/s (%d errors)@." servers
      kernels services o.Nginx_bench.requests_per_s o.Nginx_bench.errors
  in
  let kernels = Arg.(value & opt int 32 & info [ "kernels"; "k" ] ~docv:"K" ~doc:"PE groups.") in
  let services =
    Arg.(value & opt int 32 & info [ "services"; "s" ] ~docv:"S" ~doc:"m3fs instances.")
  in
  let servers =
    Arg.(value & opt int 128 & info [ "servers"; "n" ] ~docv:"N" ~doc:"Webserver processes.")
  in
  Cmd.v
    (Cmd.info "nginx" ~doc:"Run the Nginx webserver benchmark (Figure 10).")
    Term.(const run $ mode_arg $ kernels $ services $ servers)

let () =
  let info =
    Cmd.info "semperos_cli" ~version:Semperos.version
      ~doc:"SemperOS distributed capability system — simulator CLI"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ micro_cmd; chain_cmd; tree_cmd; run_cmd; nginx_cmd; latency_cmd; stats_cmd;
            trace_cmd; trace_dump_cmd; trace_replay_cmd; fuzz_cmd; record_cmd; replay_cmd;
            shrink_cmd; bench_cmd ]))
