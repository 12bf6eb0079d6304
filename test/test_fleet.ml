(* Elastic-fleet tests: Fleet_policy unit behaviour (water marks,
   min_active floor, drainable gate, hysteresis band), the Spare
   lifecycle contract, join/drain/rejoin end to end, the drain safety
   gates, the migrate-to-non-Active refusal, the bulk
   reassign_partition atomicity contract, and revoke waves racing a
   drain in both orders. *)

open Semperos

let check = Alcotest.check

let decision_t =
  Alcotest.testable
    (fun ppf (d : Balance.Fleet_policy.decision) ->
      match d with
      | Balance.Fleet_policy.Scale_out -> Format.fprintf ppf "scale-out"
      | Balance.Fleet_policy.Scale_in k -> Format.fprintf ppf "scale-in %d" k
      | Balance.Fleet_policy.Hold -> Format.fprintf ppf "hold")
    ( = )

let pol = Balance.Fleet_policy.default

let decide ?(joinable = []) ?(drainable = fun _ -> true) ~active occupancy =
  Balance.Fleet_policy.decide pol ~occupancy ~active ~joinable ~drainable

let sel_of = function
  | Protocol.R_sel s -> s
  | r -> Alcotest.failf "expected selector, got %a" Protocol.pp_reply r

let alloc sys vpe =
  sel_of (System.syscall_sync sys vpe (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)

let test_policy_scale_out () =
  (* Mean Active occupancy at/above [high] scales out — but only when a
     Spare or Retired kernel exists to join. *)
  check decision_t "above high water" Balance.Fleet_policy.Scale_out
    (decide ~joinable:[ 2 ] ~active:[ 0; 1 ] [| 0.8; 0.6; 0.0 |]);
  check decision_t "no spare: hold" Balance.Fleet_policy.Hold
    (decide ~joinable:[] ~active:[ 0; 1 ] [| 0.8; 0.6; 0.0 |]);
  (* Spare occupancy (index 2) must not dilute the Active mean. *)
  check decision_t "mean over Active only" Balance.Fleet_policy.Scale_out
    (decide ~joinable:[ 2 ] ~active:[ 0; 1 ] [| 0.9; 0.5; 0.0 |])

let test_policy_scale_in () =
  (* Mean below the low water mark drains the emptiest drainable
     kernel; ties break to the lowest id. *)
  check decision_t "below low water drains emptiest"
    (Balance.Fleet_policy.Scale_in 2)
    (decide ~active:[ 0; 1; 2 ] [| 0.2; 0.15; 0.05 |]);
  check decision_t "tie to lowest id"
    (Balance.Fleet_policy.Scale_in 1)
    (decide ~active:[ 0; 1; 2 ] [| 0.2; 0.05; 0.05 |]);
  (* The drainable safety gate skips pinned kernels. *)
  check decision_t "gate skips the emptiest"
    (Balance.Fleet_policy.Scale_in 1)
    (decide ~drainable:(fun k -> k <> 2) ~active:[ 0; 1; 2 ] [| 0.2; 0.15; 0.05 |]);
  check decision_t "all pinned: hold" Balance.Fleet_policy.Hold
    (decide ~drainable:(fun _ -> false) ~active:[ 0; 1; 2 ] [| 0.1; 0.1; 0.1 |])

let test_policy_floor_and_band () =
  (* Never drain below [min_active] (default 2). *)
  check decision_t "min_active floor" Balance.Fleet_policy.Hold
    (decide ~active:[ 0; 1 ] [| 0.01; 0.01 |]);
  (* Inside the hysteresis band nothing happens. *)
  check decision_t "in-band hold" Balance.Fleet_policy.Hold
    (decide ~joinable:[ 3 ] ~active:[ 0; 1; 2 ] [| 0.4; 0.4; 0.4 |])

(* ------------------------------------------------------------------ *)
(* Lifecycle end to end                                                *)

let test_spare_boots_out_of_service () =
  let sys = System.create (System.config ~kernels:2 ~spare_kernels:1 ~user_pes_per_kernel:4 ()) in
  check Alcotest.int "three kernels booted" 3 (System.kernel_count sys);
  check Alcotest.int "two in the boot fleet" 2 (System.boot_kernels sys);
  check Alcotest.bool "spare state replicated" true
    (List.for_all
       (fun k -> Membership.kernel_state (Kernel.membership k) 2 = Membership.Spare)
       (System.kernels sys));
  (* A spare owns its empty home partitions but refuses work. *)
  check Alcotest.bool "spare owns home PEs" true
    (Membership.pes_of_kernel (System.membership sys) 2 <> []);
  Alcotest.check_raises "spawn on a spare refused"
    (Invalid_argument "System.spawn_vpe: kernel is not active") (fun () ->
      ignore (System.spawn_vpe sys ~kernel:2))

let test_join_brings_spare_into_service () =
  let sys = System.create (System.config ~kernels:2 ~spare_kernels:1 ~user_pes_per_kernel:4 ()) in
  let vpes =
    List.map (fun k -> System.spawn_vpe sys ~kernel:k) [ 0; 0; 0; 1; 1; 1 ]
  in
  List.iter (fun v -> ignore (alloc sys v)) vpes;
  let joined = ref false in
  Fleet.join sys ~kernel:2 (fun () -> joined := true);
  ignore (System.run sys);
  check Alcotest.bool "join completed" true !joined;
  check Alcotest.bool "active on every replica" true
    (List.for_all
       (fun k -> Membership.kernel_state (Kernel.membership k) 2 = Membership.Active)
       (System.kernels sys));
  (* The joined kernel owns its home partitions again and absorbed a
     fair share of the load (6 VPEs over 3 kernels → at least one). *)
  let home = System.home_pes sys ~kernel:2 in
  check Alcotest.bool "home PEs routed here" true
    (List.for_all (fun pe -> Membership.kernel_of_pe (System.membership sys) pe = 2) home);
  check Alcotest.bool "absorbed load" true (Kernel.vpe_count (System.kernel sys 2) > 0);
  (* New work lands on it, and moved VPEs keep working. *)
  let v = System.spawn_vpe sys ~kernel:2 in
  ignore (alloc sys v);
  List.iter (fun w -> ignore (alloc sys w)) vpes;
  Audit.check sys

let test_drain_evacuates_and_retires () =
  let sys = System.create (System.config ~kernels:3 ~user_pes_per_kernel:4 ()) in
  let a = System.spawn_vpe sys ~kernel:0 in
  let b = System.spawn_vpe sys ~kernel:1 in
  let c = System.spawn_vpe sys ~kernel:1 in
  let sel = alloc sys a in
  (* b holds a cross-kernel child whose parent stays on kernel 0. *)
  ignore
    (System.syscall_sync sys b (Protocol.Sys_obtain_from { donor_vpe = a.Vpe.id; donor_sel = sel }));
  ignore (alloc sys c);
  let retired = ref false in
  Fleet.drain sys ~kernel:1 (fun () -> retired := true);
  ignore (System.run sys);
  check Alcotest.bool "drain completed" true !retired;
  check Alcotest.bool "retired on every replica" true
    (List.for_all
       (fun k -> Membership.kernel_state (Kernel.membership k) 1 = Membership.Retired)
       (System.kernels sys));
  check Alcotest.(list int) "manages no partition" []
    (Membership.pes_of_kernel (System.membership sys) 1);
  check Alcotest.int "hosts no VPE" 0 (Kernel.vpe_count (System.kernel sys 1));
  check Alcotest.int "hosts no record" 0 (Mapdb.count (Kernel.mapdb (System.kernel sys 1)));
  (* The evacuated VPEs kept their capabilities and keep working — the
     spanning tree revokes cleanly across the new topology. *)
  check Alcotest.bool "b alive elsewhere" true (Vpe.is_alive b && b.Vpe.kernel <> 1);
  ignore (alloc sys c);
  (match System.syscall_sync sys a (Protocol.Sys_revoke { sel; own = true }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke across drained topology: %a" Protocol.pp_reply r);
  Audit.check sys;
  (* Satellite: new work must not land on the retiree — neither fresh
     spawns nor balancer migrations. *)
  Alcotest.check_raises "spawn on retired refused"
    (Invalid_argument "System.spawn_vpe: kernel is not active") (fun () ->
      ignore (System.spawn_vpe sys ~kernel:1));
  Alcotest.check_raises "migrate to retired refused"
    (Invalid_argument "Kernel.migrate_vpe: destination kernel is not active") (fun () ->
      System.migrate_vpe sys a ~to_kernel:1)

let test_retired_kernel_rejoins () =
  let sys = System.create (System.config ~kernels:3 ~user_pes_per_kernel:4 ()) in
  let vpes = List.map (fun k -> System.spawn_vpe sys ~kernel:k) [ 0; 1; 2; 0; 1; 2 ] in
  List.iter (fun v -> ignore (alloc sys v)) vpes;
  let phase = ref [] in
  Fleet.drain sys ~kernel:1 (fun () ->
      phase := "retired" :: !phase;
      Fleet.join sys ~kernel:1 (fun () -> phase := "rejoined" :: !phase));
  ignore (System.run sys);
  check Alcotest.(list string) "drain then rejoin" [ "rejoined"; "retired" ] !phase;
  check Alcotest.bool "active again" true
    (Membership.kernel_state (System.membership sys) 1 = Membership.Active);
  let home = System.home_pes sys ~kernel:1 in
  check Alcotest.bool "home PEs reclaimed" true
    (List.for_all (fun pe -> Membership.kernel_of_pe (System.membership sys) pe = 1) home);
  ignore (alloc sys (System.spawn_vpe sys ~kernel:1));
  List.iter (fun v -> ignore (alloc sys v)) vpes;
  Audit.check sys

let test_drain_safety_gates () =
  let sys = System.create (System.config ~kernels:2 ~spare_kernels:1 ~user_pes_per_kernel:4 ()) in
  (* Not Active. *)
  Alcotest.check_raises "drain a spare" (Invalid_argument "Fleet.drain: kernel is not active")
    (fun () -> Fleet.drain sys ~kernel:2 (fun () -> ()));
  (* A service's kernel is pinned by the replicated directory. *)
  let srv = System.spawn_vpe sys ~kernel:0 in
  Kernel.register_service_handler (System.kernel sys 0) ~name:"echo" (fun _req k ->
      k (Protocol.Srs_session { ident = 1 }));
  (match System.syscall_sync sys srv (Protocol.Sys_create_srv { name = "echo" }) with
  | Protocol.R_sel _ -> ()
  | r -> Alcotest.failf "create_srv: %a" Protocol.pp_reply r);
  ignore (System.run sys);
  check Alcotest.bool "service pins its kernel" false (Fleet.drainable sys ~kernel:0);
  Alcotest.check_raises "drain the service kernel"
    (Invalid_argument "Fleet.drain: kernel hosts a service (directory entries pin it)") (fun () ->
      Fleet.drain sys ~kernel:0 (fun () -> ()));
  (* Never below one Active kernel. *)
  check Alcotest.bool "kernel 1 still drainable" true (Fleet.drainable sys ~kernel:1);
  let retired = ref false in
  Fleet.drain sys ~kernel:1 (fun () -> retired := true);
  ignore (System.run sys);
  check Alcotest.bool "kernel 1 retired" true !retired;
  Alcotest.check_raises "drain the last active kernel"
    (Invalid_argument "Fleet.drain: cannot drain the last active kernel") (fun () ->
      Fleet.drain sys ~kernel:0 (fun () -> ()))

let test_migrate_to_non_active_refused () =
  (* The live balancer's safety gate: a migration must never target a
     kernel that is out of (or leaving) service. *)
  let sys = System.create (System.config ~kernels:2 ~spare_kernels:1 ~user_pes_per_kernel:4 ()) in
  let v = System.spawn_vpe sys ~kernel:0 in
  ignore (alloc sys v);
  Alcotest.check_raises "migrate to a spare"
    (Invalid_argument "Kernel.migrate_vpe: destination kernel is not active") (fun () ->
      System.migrate_vpe sys v ~to_kernel:2)

(* ------------------------------------------------------------------ *)
(* Bulk reassignment atomicity                                         *)

let test_reassign_partition_atomic () =
  let m = Membership.create () in
  List.iter (fun pe -> Membership.assign m ~pe ~kernel:(pe / 4)) [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  Membership.seal m;
  (* One PE of the set is mid-handoff: a racing resolve defers loudly
     on it, and still sees the old owner on its partition siblings. *)
  Membership.begin_handoff m ~pe:2;
  Alcotest.check_raises "resolve on the moving PE defers" (Membership.Mid_handoff 2) (fun () ->
      ignore (Membership.kernel_of_pe m 2));
  check Alcotest.int "sibling still old owner" 0 (Membership.kernel_of_pe m 1);
  (* The bulk flip validates every PE before touching any mapping. *)
  Alcotest.check_raises "bulk flip refuses a moving PE"
    (Invalid_argument "Membership.reassign_partition: PE is mid-handoff (use complete_handoff)")
    (fun () -> Membership.reassign_partition m ~pes:[ 1; 2; 3 ] ~kernel:1);
  check Alcotest.int "PE 1 untouched after refused flip" 0 (Membership.kernel_of_pe m 1);
  check Alcotest.int "PE 3 untouched after refused flip" 0 (Membership.kernel_of_pe m 3);
  Alcotest.check_raises "unassigned PE refused" Not_found (fun () ->
      Membership.reassign_partition m ~pes:[ 1; 99 ] ~kernel:1);
  check Alcotest.int "PE 1 untouched after Not_found" 0 (Membership.kernel_of_pe m 1);
  (* Once the handoff completes, the whole partition flips in one step:
     no observer ever saw a mix of old and new owners. *)
  Membership.complete_handoff m ~pe:2 ~kernel:0;
  Membership.reassign_partition m ~pes:[ 1; 2; 3 ] ~kernel:1;
  check Alcotest.(list int) "all flipped" [ 1; 1; 1 ]
    (List.map (Membership.kernel_of_pe m) [ 1; 2; 3 ]);
  check Alcotest.int "outside the set untouched" 0 (Membership.kernel_of_pe m 0)

(* ------------------------------------------------------------------ *)
(* Revoke waves racing a drain                                         *)

let revoke_drain_race ~drain_first () =
  let sys = System.create (System.config ~kernels:3 ~user_pes_per_kernel:4 ()) in
  let a = System.spawn_vpe sys ~kernel:0 in
  let b = System.spawn_vpe sys ~kernel:1 in
  let sel = alloc sys a in
  ignore
    (System.syscall_sync sys b (Protocol.Sys_obtain_from { donor_vpe = a.Vpe.id; donor_sel = sel }));
  let revoke_reply = ref None in
  let retired = ref false in
  let start_revoke () =
    System.syscall sys a (Protocol.Sys_revoke { sel; own = true }) (fun r ->
        revoke_reply := Some r)
  in
  let start_drain () = Fleet.drain sys ~kernel:1 (fun () -> retired := true) in
  if drain_first then (start_drain (); start_revoke ())
  else (start_revoke (); start_drain ());
  ignore (System.run sys);
  (* Both finish: the revoke wave either lands before the child's
     partition moves (partition_quiet holds the handoff wave until the
     mark clears) or re-resolves by key to the new owner after the
     flip — never a lost child, never a wedged drain. *)
  (match !revoke_reply with
  | Some Protocol.R_ok -> ()
  | Some r -> Alcotest.failf "revoke racing drain: %a" Protocol.pp_reply r
  | None -> Alcotest.fail "revoke never completed");
  check Alcotest.bool "kernel 1 retired" true !retired;
  check Alcotest.int "child revoked" 0 (Capspace.count b.Vpe.capspace);
  check Alcotest.int "retiree holds no record" 0
    (Mapdb.count (Kernel.mapdb (System.kernel sys 1)));
  Audit.check sys

let test_revoke_then_drain () = revoke_drain_race ~drain_first:false ()
let test_drain_then_revoke () = revoke_drain_race ~drain_first:true ()

(* A broadcast whose every message is dropped must give up loudly, like
   an exhausted unicast: one [retry_exhausted] and one [ikc_timeout]
   naming the message per unacked peer. The operation stays pending —
   a late ack could still complete it. *)
let test_exhausted_broadcast_is_reported () =
  let fault =
    { Fault.quiet with Fault.seed = 7L; drop_prob = 1.0; max_drops_per_pair = 1_000; max_drops_total = 1_000 }
  in
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:2 ~fault ()) in
  let k0 = System.kernel sys 0 in
  let finished = ref false in
  Kernel.announce_state k0 ~kernel:0 Membership.Active (fun () -> finished := true);
  ignore (System.run sys);
  check Alcotest.bool "broadcast never completes" false !finished;
  let stats = Kernel.stats k0 in
  check Alcotest.int "every resend went out" (Kernel.cost k0).Cost.retry_max stats.Kernel.retries;
  check Alcotest.int "exhaustion counted" 1 stats.Kernel.retry_exhausted;
  let timeouts =
    List.filter
      (fun (e : Obs.Trace.event) -> e.Obs.Trace.kind = "ikc_timeout")
      (Obs.Trace.events (System.trace_buffer sys))
  in
  check
    Alcotest.(list (triple int int string))
    "one timeout per unacked peer"
    [ (0, 1, "fleet_state") ]
    (List.map (fun (e : Obs.Trace.event) -> Obs.Trace.(e.src, e.dst, e.detail)) timeouts);
  check Alcotest.bool "operation left pending" false (Kernel.quiescent k0)

let suite =
  [
    Alcotest.test_case "policy: scale out above high water" `Quick test_policy_scale_out;
    Alcotest.test_case "policy: scale in picks emptiest drainable" `Quick test_policy_scale_in;
    Alcotest.test_case "policy: min-active floor and hysteresis band" `Quick
      test_policy_floor_and_band;
    Alcotest.test_case "spare kernels boot out of service" `Quick test_spare_boots_out_of_service;
    Alcotest.test_case "join brings a spare into service" `Quick
      test_join_brings_spare_into_service;
    Alcotest.test_case "drain evacuates and retires" `Quick test_drain_evacuates_and_retires;
    Alcotest.test_case "retired kernel rejoins" `Quick test_retired_kernel_rejoins;
    Alcotest.test_case "drain safety gates" `Quick test_drain_safety_gates;
    Alcotest.test_case "migrate to a non-active kernel is refused" `Quick
      test_migrate_to_non_active_refused;
    Alcotest.test_case "bulk reassign_partition is atomic" `Quick test_reassign_partition_atomic;
    Alcotest.test_case "revoke wave racing a starting drain" `Quick test_revoke_then_drain;
    Alcotest.test_case "drain racing an incoming revoke wave" `Quick test_drain_then_revoke;
    Alcotest.test_case "exhausted broadcast is counted and traced" `Quick
      test_exhausted_broadcast_is_reported;
  ]
