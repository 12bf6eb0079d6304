(* Tests for the autonomic load balancer: policy unit behaviour
   (hysteresis, cooldown, tie-breaks), the candidate safety gate,
   determinism of the migration sequence across host parallelism, the
   uniform-load no-op, and end-to-end improvement on the skewed
   workload — with and without injected faults on the migration
   messages. *)

open Semperos

let check = Alcotest.check

let decision_t =
  Alcotest.testable
    (fun ppf (d : Balance.Policy.decision) ->
      Format.fprintf ppf "%d->%d" d.Balance.Policy.src d.Balance.Policy.dst)
    ( = )

let threshold = Balance.Policy.Threshold { high = 0.7; low = 0.5; margin = 0.3; cooldown = 2 }

let decide ?(cooldown = [||]) ?(inflight = []) pol occupancy =
  let n = Array.length occupancy in
  let cooldown = if Array.length cooldown = n then cooldown else Array.make n 0 in
  Balance.Policy.decide pol ~occupancy ~cooldown ~inflight

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)

let test_policy_static () =
  check (Alcotest.option decision_t) "static never migrates" None
    (decide Balance.Policy.Static [| 1.0; 0.0 |])

let test_policy_picks_extremes () =
  check (Alcotest.option decision_t) "max source, min destination"
    (Some { Balance.Policy.src = 2; dst = 1 })
    (decide threshold [| 0.6; 0.1; 0.9; 0.3 |]);
  (* Ties break towards the lowest kernel id on both sides. *)
  check (Alcotest.option decision_t) "ties to lowest id"
    (Some { Balance.Policy.src = 1; dst = 0 })
    (decide threshold [| 0.2; 0.9; 0.2; 0.9 |])

let test_policy_hysteresis () =
  (* Overloaded source but no destination far enough below: a marginal
     imbalance must not cause ping-pong migration. *)
  check (Alcotest.option decision_t) "gap below margin" None
    (decide threshold [| 0.75; 0.55 |]);
  check (Alcotest.option decision_t) "destination above low" None
    (decide threshold [| 0.95; 0.65 |]);
  check (Alcotest.option decision_t) "both idle" None (decide threshold [| 0.3; 0.1 |]);
  (* The same imbalance with a clear gap does migrate. *)
  check (Alcotest.option decision_t) "clear gap migrates"
    (Some { Balance.Policy.src = 0; dst = 1 })
    (decide threshold [| 0.9; 0.2 |])

let test_policy_cooldown () =
  let occ = [| 0.9; 0.1 |] in
  check (Alcotest.option decision_t) "source cooling down" None
    (decide ~cooldown:[| 2; 0 |] threshold occ);
  check (Alcotest.option decision_t) "destination cooling down" None
    (decide ~cooldown:[| 0; 1 |] threshold occ);
  check (Alcotest.option decision_t) "cooldown expired"
    (Some { Balance.Policy.src = 0; dst = 1 })
    (decide ~cooldown:[| 0; 0 |] threshold occ)

let test_policy_inflight () =
  let occ = [| 0.9; 0.1; 0.2 |] in
  (* A kernel already involved in an in-flight migration is ineligible
     on either side; the decision falls through to the next kernel. *)
  check (Alcotest.option decision_t) "inflight blocks the pair"
    (Some { Balance.Policy.src = 0; dst = 2 })
    (decide ~inflight:[ (3, 1) ] threshold occ);
  check (Alcotest.option decision_t) "inflight source blocks entirely" None
    (decide ~inflight:[ (0, 3) ] threshold occ)

(* ------------------------------------------------------------------ *)
(* Candidate safety gate                                               *)

let test_eligibility_gate () =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:4 ()) in
  let bal = Balance.create ~policy:Balance.Policy.Static sys in
  let a = System.spawn_vpe sys ~kernel:0 in
  let b = System.spawn_vpe sys ~kernel:0 in
  let sel_of = function
    | Protocol.R_sel s -> s
    | r -> Alcotest.failf "expected selector, got %a" Protocol.pp_reply r
  in
  let sel =
    sel_of (System.syscall_sync sys a (Protocol.Sys_alloc_mem { size = 64L; perms = Perms.rw }))
  in
  let ids vs = List.map (fun (v : Vpe.t) -> v.Vpe.id) vs in
  (* [a] owns a root with a same-PE child? No children yet: both VPEs
     hold only local capabilities and qualify. *)
  check Alcotest.(list int) "both eligible" (ids [ a; b ])
    (ids (Balance.eligible_vpes bal ~kernel:0));
  (* A spanning obtain gives the receiver a child whose parent lives on
     kernel 0: the receiver must drop out of the candidate set. *)
  let c = System.spawn_vpe sys ~kernel:1 in
  ignore
    (System.syscall_sync sys c (Protocol.Sys_obtain_from { donor_vpe = a.Vpe.id; donor_sel = sel }));
  check Alcotest.(list int) "remote parent blocks" [] (ids (Balance.eligible_vpes bal ~kernel:1));
  (* ...and the donor, whose capability now has a child on another PE,
     drops out too (revoking it mid-transfer would race the records). *)
  check Alcotest.(list int) "remote child blocks donor" (ids [ b ])
    (ids (Balance.eligible_vpes bal ~kernel:0));
  (* Revoking the exchange restores both. *)
  ignore (System.syscall_sync sys a (Protocol.Sys_revoke { sel; own = true }));
  check Alcotest.(list int) "revoke restores donor" (ids [ a; b ])
    (ids (Balance.eligible_vpes bal ~kernel:0))

(* ------------------------------------------------------------------ *)
(* End-to-end: skewed workload                                         *)

let smoke_cfg =
  {
    Skew.default_config with
    Skew.clients = 4;
    rounds = 10;
    pes_per_kernel = 6;
    fs_every = 4;
  }

let sequence (r : Skew.result) =
  List.map
    (fun (m : Balance.migration) -> (m.Balance.m_at, m.Balance.m_vpe, m.Balance.m_src, m.Balance.m_dst))
    r.Skew.migrations

let test_balancer_improves () =
  let static = Skew.run { smoke_cfg with Skew.policy = Balance.Policy.Static } in
  let balanced = Skew.run smoke_cfg in
  check Alcotest.(list string) "static audit clean" [] static.Skew.audit_errors;
  check Alcotest.(list string) "balanced audit clean" [] balanced.Skew.audit_errors;
  check Alcotest.bool "migrations happened" true (balanced.Skew.migrations <> []);
  check Alcotest.bool "max occupancy strictly reduced" true
    (balanced.Skew.max_occupancy < static.Skew.max_occupancy);
  check Alcotest.bool "completion strictly reduced" true
    (balanced.Skew.completion < static.Skew.completion)

let test_migration_sequence_deterministic () =
  (* The same configuration must produce the identical migration
     sequence regardless of how many domains run other work in
     parallel: each run owns a private engine, and every balancer
     decision is derived from simulated state only. *)
  let run _ = sequence (Skew.run smoke_cfg) in
  let serial = Domain_pool.map ~jobs:1 run [ 0; 1 ] in
  let parallel = Domain_pool.map ~jobs:4 run [ 0; 1; 2; 3 ] in
  let expect = List.hd serial in
  check Alcotest.bool "sequence non-empty" true (expect <> []);
  List.iteri
    (fun i s ->
      check Alcotest.bool (Printf.sprintf "serial run %d identical" i) true (s = expect))
    serial;
  List.iteri
    (fun i s ->
      check Alcotest.bool (Printf.sprintf "parallel run %d identical" i) true (s = expect))
    parallel

let test_uniform_load_no_migrations () =
  (* Spread the same clients round-robin: no kernel crosses the high
     threshold, so the balancer must not move anything. *)
  let r = Skew.run { smoke_cfg with Skew.spread = true } in
  check Alcotest.(list string) "audit clean" [] r.Skew.audit_errors;
  check Alcotest.int "zero migrations" 0 (List.length r.Skew.migrations)

let test_balancer_under_faults () =
  (* Drops and duplicates hit each migration's part_update broadcast,
     its part_records wave and their migrate_ack acks like any other
     op-tagged message; retransmission and dedup must still converge
     every migration with no capability leaked. *)
  let fault =
    {
      Fault.quiet with
      Fault.seed = 421L;
      delay_prob = 0.2;
      max_delay = 1_200;
      dup_prob = 0.1;
      max_dup_delay = 800;
      drop_prob = 0.05;
      max_drops_per_pair = 2;
      max_drops_total = 30;
    }
  in
  let r = Skew.run { smoke_cfg with Skew.fault = Some fault } in
  check Alcotest.(list string) "audit clean under faults" [] r.Skew.audit_errors;
  check Alcotest.bool "migrations still happen" true (r.Skew.migrations <> [])

let suite =
  [
    Alcotest.test_case "policy: static" `Quick test_policy_static;
    Alcotest.test_case "policy: picks extremes" `Quick test_policy_picks_extremes;
    Alcotest.test_case "policy: hysteresis prevents ping-pong" `Quick test_policy_hysteresis;
    Alcotest.test_case "policy: cooldown respected" `Quick test_policy_cooldown;
    Alcotest.test_case "policy: in-flight pairs blocked" `Quick test_policy_inflight;
    Alcotest.test_case "candidate safety gate" `Quick test_eligibility_gate;
    Alcotest.test_case "balancer improves skewed workload" `Quick test_balancer_improves;
    Alcotest.test_case "migration sequence deterministic" `Quick
      test_migration_sequence_deterministic;
    Alcotest.test_case "uniform load: no migrations" `Quick test_uniform_load_no_migrations;
    Alcotest.test_case "balancer under faults" `Quick test_balancer_under_faults;
  ]
