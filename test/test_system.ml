(* Tests for system assembly: topology layout, membership, DTU
   privilege at boot, PE allocation, configuration limits. *)

open Semperos

let check = Alcotest.check

let test_layout () =
  let sys = System.create (System.config ~kernels:3 ~user_pes_per_kernel:4 ()) in
  check Alcotest.int "kernel count" 3 (System.kernel_count sys);
  check Alcotest.int "pe count" 15 (System.pe_count sys);
  (* Kernel PEs are the first PE of each contiguous group. *)
  check Alcotest.int "kernel 0 PE" 0 (Kernel.pe (System.kernel sys 0));
  check Alcotest.int "kernel 1 PE" 5 (Kernel.pe (System.kernel sys 1));
  check Alcotest.int "kernel 2 PE" 10 (Kernel.pe (System.kernel sys 2));
  (* Membership is sealed and covers every PE. *)
  let m = System.membership sys in
  check Alcotest.bool "sealed" true (Membership.is_sealed m);
  check Alcotest.int "covers all PEs" 15 (Membership.size m);
  check Alcotest.int "pe 7 belongs to kernel 1" 1 (Membership.kernel_of_pe m 7)

let test_dtu_privilege_at_boot () =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:3 ()) in
  let grid = System.grid sys in
  (* Kernel PEs stay privileged, user PEs are downgraded. *)
  check Alcotest.bool "kernel DTU privileged" true (Dtu.is_privileged (Dtu.find grid ~pe:0));
  check Alcotest.bool "kernel DTU privileged" true (Dtu.is_privileged (Dtu.find grid ~pe:4));
  check Alcotest.bool "user DTU deprivileged" false (Dtu.is_privileged (Dtu.find grid ~pe:1));
  check Alcotest.bool "user DTU deprivileged" false (Dtu.is_privileged (Dtu.find grid ~pe:7))

let test_pe_allocation () =
  let sys = System.create (System.config ~kernels:1 ~user_pes_per_kernel:2 ()) in
  check Alcotest.int "two free" 2 (System.free_pes sys ~kernel:0);
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let _v2 = System.spawn_vpe sys ~kernel:0 in
  check Alcotest.int "none free" 0 (System.free_pes sys ~kernel:0);
  Alcotest.check_raises "full" (Invalid_argument "System.spawn_vpe: group is full") (fun () ->
      ignore (System.spawn_vpe sys ~kernel:0));
  (* Exit returns the PE. *)
  (match System.syscall_sync sys v1 Protocol.Sys_exit with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "exit: %a" Protocol.pp_reply r);
  check Alcotest.int "freed" 1 (System.free_pes sys ~kernel:0);
  ignore (System.spawn_vpe sys ~kernel:0)

let test_create_vpe_syscall () =
  let sys = System.create (System.config ~kernels:1 ~user_pes_per_kernel:3 ()) in
  let parent = System.spawn_vpe sys ~kernel:0 in
  match System.syscall_sync sys parent (Protocol.Sys_create_vpe { on_pe = None }) with
  | Protocol.R_vpe { vpe; sel = _ } ->
    let child = Option.get (System.find_vpe sys vpe) in
    check Alcotest.bool "child alive" true (Vpe.is_alive child);
    check Alcotest.int "same kernel" 0 child.Vpe.kernel;
    (* The parent holds the control capability. *)
    check Alcotest.int "parent has the vpe cap" 1 (Capspace.count parent.Vpe.capspace)
  | r -> Alcotest.failf "create_vpe: %a" Protocol.pp_reply r

let test_limits () =
  Alcotest.check_raises "too many kernels"
    (Invalid_argument "System.create: more kernels than the DTU endpoints support (64)")
    (fun () -> ignore (System.create (System.config ~kernels:65 ~user_pes_per_kernel:1 ())));
  Alcotest.check_raises "too many PEs per group"
    (Invalid_argument "System.create: more PEs per kernel than syscall slots support (192)")
    (fun () -> ignore (System.create (System.config ~kernels:1 ~user_pes_per_kernel:193 ())));
  Alcotest.check_raises "no kernels"
    (Invalid_argument "System.create: need at least one kernel")
    (fun () -> ignore (System.create (System.config ~kernels:0 ())))

let test_service_directory_replication () =
  let sys = System.create (System.config ~kernels:3 ~user_pes_per_kernel:3 ()) in
  let srv_vpe = System.spawn_vpe sys ~kernel:0 in
  Kernel.register_service_handler (System.kernel sys 0) ~name:"echo" (fun _req k ->
      k (Protocol.Srs_session { ident = 1 }));
  (match System.syscall_sync sys srv_vpe (Protocol.Sys_create_srv { name = "echo" }) with
  | Protocol.R_sel _ -> ()
  | r -> Alcotest.failf "create_srv: %a" Protocol.pp_reply r);
  ignore (System.run sys);
  (* Every kernel learned about the service via the announcement. *)
  List.iter
    (fun k ->
      check Alcotest.bool "directory entry" true (Kernel.lookup_service k "echo" <> None))
    (System.kernels sys);
  (* A client in another group can open a session. *)
  let client = System.spawn_vpe sys ~kernel:2 in
  match System.syscall_sync sys client (Protocol.Sys_open_session { service = "echo" }) with
  | Protocol.R_sess { ident; _ } -> check Alcotest.int "ident from handler" 1 ident
  | r -> Alcotest.failf "open_session: %a" Protocol.pp_reply r

let test_unknown_service () =
  let sys = System.create (System.config ~kernels:1 ~user_pes_per_kernel:2 ()) in
  let v = System.spawn_vpe sys ~kernel:0 in
  match System.syscall_sync sys v (Protocol.Sys_open_session { service = "nope" }) with
  | Protocol.R_err Protocol.E_no_such_service -> ()
  | r -> Alcotest.failf "expected no-such-service, got %a" Protocol.pp_reply r

let test_graceful_shutdown () =
  (* A populated system — m3fs service, clients with open files and
     cross-kernel capabilities — must shut down to zero capabilities. *)
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:6 ()) in
  let fs = M3fs.create sys ~kernel:0 ~name:"m3fs" ~files:[ ("/f", 300_000L) ] () in
  let drive k =
    let vpe = System.spawn_vpe sys ~kernel:k in
    Fs_client.connect sys fs ~vpe (fun conn ->
        let client = Result.get_ok conn in
        Fs_client.open_ client "/f" ~write:false ~create:false (fun r ->
            let fd = Result.get_ok r in
            Fs_client.read client ~fd ~bytes:300_000 (fun _ -> ())))
  in
  drive 0;
  drive 1;
  ignore (System.run sys);
  check Alcotest.bool "caps exist before shutdown" true
    (List.exists (fun k -> Mapdb.count (Kernel.mapdb k) > 0) (System.kernels sys));
  (* Shutdown returns no credit it never took: the §5.1 window clamp
     must absorb nothing extra on the way down. *)
  let overrefunds () =
    List.fold_left
      (fun acc k -> acc + (Kernel.stats k).Kernel.credit_overrefund)
      0 (System.kernels sys)
  in
  let before = overrefunds () in
  let leaked = System.shutdown sys in
  check Alcotest.int "no capability survives shutdown" 0 leaked;
  check Alcotest.int "no credit over-refunded by shutdown" before (overrefunds ());
  check Alcotest.(list string) "invariants after shutdown" [] (System.check_invariants sys)

let test_latency_stats () =
  let sys = System.create (System.config ~kernels:1 ~user_pes_per_kernel:2 ()) in
  let v = System.spawn_vpe sys ~kernel:0 in
  (match System.syscall_sync sys v (Protocol.Sys_alloc_mem { size = 64L; perms = Perms.r }) with
  | Protocol.R_sel _ -> ()
  | r -> Alcotest.failf "alloc: %a" Protocol.pp_reply r);
  let stats = Kernel.stats (System.kernel sys 0) in
  match Hashtbl.find_opt stats.Kernel.latencies "alloc_mem" with
  | None -> Alcotest.fail "no latency recorded"
  | Some acc ->
    check Alcotest.int "one sample" 1 (Stats.Acc.count acc);
    check Alcotest.bool "plausible latency" true
      (Stats.Acc.mean acc > 1000.0 && Stats.Acc.mean acc < 10000.0)

let suite =
  [
    Alcotest.test_case "layout" `Quick test_layout;
    Alcotest.test_case "DTU privilege at boot" `Quick test_dtu_privilege_at_boot;
    Alcotest.test_case "PE allocation" `Quick test_pe_allocation;
    Alcotest.test_case "create_vpe syscall" `Quick test_create_vpe_syscall;
    Alcotest.test_case "hardware limits" `Quick test_limits;
    Alcotest.test_case "service directory replication" `Quick test_service_directory_replication;
    Alcotest.test_case "unknown service" `Quick test_unknown_service;
    Alcotest.test_case "graceful shutdown" `Quick test_graceful_shutdown;
    Alcotest.test_case "latency statistics" `Quick test_latency_stats;
  ]
