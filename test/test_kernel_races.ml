(* Race and failure-injection tests for the distributed protocols:
   the remaining Table 2 interference cases, mid-flight deaths,
   delegate aborts, and determinism. *)

open Semperos

let check = Alcotest.check

let reply_t = Alcotest.testable Protocol.pp_reply ( = )

let sel_of = function
  | Protocol.R_sel s -> s
  | r -> Alcotest.failf "expected selector, got %a" Protocol.pp_reply r

let make ?(kernels = 2) ?(pes = 6) () =
  System.create (System.config ~kernels ~user_pes_per_kernel:pes ())

let alloc sys vpe =
  sel_of (System.syscall_sync sys vpe (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))

let total_caps sys =
  List.fold_left (fun acc k -> acc + Mapdb.count (Kernel.mapdb k)) 0 (System.kernels sys)

let run_for sys cycles = ignore (System.run ~until:(Int64.add (System.now sys) cycles) sys)

(* Table 2 "Invalid": the delegated capability is revoked while the
   two-way handshake is in flight. The receiver must never end up with
   a live capability. *)
let test_delegate_aborted_by_revoke () =
  (* Try a range of revoke injection times so every handshake stage is
     hit at least once. *)
  List.iter
    (fun inject_after ->
      let sys = make () in
      let owner = System.spawn_vpe sys ~kernel:0 in
      let middle = System.spawn_vpe sys ~kernel:0 in
      let receiver = System.spawn_vpe sys ~kernel:1 in
      let root = alloc sys owner in
      let mid_sel =
        sel_of
          (System.syscall_sync sys middle
             (Protocol.Sys_obtain_from { donor_vpe = owner.Vpe.id; donor_sel = root }))
      in
      (* [middle] starts delegating its capability across kernels... *)
      let delegate_result = ref None in
      System.syscall sys middle
        (Protocol.Sys_delegate_to { recv_vpe = receiver.Vpe.id; sel = mid_sel })
        (fun r -> delegate_result := Some r);
      run_for sys inject_after;
      (* ... while [owner] revokes the whole tree. *)
      let revoke_result = ref None in
      System.syscall sys owner (Protocol.Sys_revoke { sel = root; own = true }) (fun r ->
          revoke_result := Some r);
      ignore (System.run sys);
      check (Alcotest.option reply_t)
        (Printf.sprintf "revoke completes (inject %Ld)" inject_after)
        (Some Protocol.R_ok) !revoke_result;
      (match !delegate_result with
      | Some (Protocol.R_ok | Protocol.R_err (Protocol.E_in_revocation | Protocol.E_no_such_cap))
        ->
        (* Either the delegate won the race (and the revoke then swept
           the receiver's copy too) or it was aborted. *)
        ()
      | Some r -> Alcotest.failf "delegate (inject %Ld): %a" inject_after Protocol.pp_reply r
      | None -> Alcotest.fail "delegate never completed");
      check Alcotest.int
        (Printf.sprintf "nothing survives (inject %Ld)" inject_after)
        0 (total_caps sys);
      check Alcotest.int "receiver holds nothing" 0 (Capspace.count receiver.Vpe.capspace);
      Audit.check sys)
    [ 0L; 700L; 1400L; 2100L; 2800L; 3500L; 4200L; 6000L ]

(* The receiver dies while the delegate handshake is parked between
   reply and ack: the orphan record at its kernel must be dropped. *)
let test_delegate_receiver_dies () =
  List.iter
    (fun inject_after ->
      let sys = make () in
      let sender = System.spawn_vpe sys ~kernel:0 in
      let receiver = System.spawn_vpe sys ~kernel:1 in
      let sel = alloc sys sender in
      let delegate_result = ref None in
      System.syscall sys sender
        (Protocol.Sys_delegate_to { recv_vpe = receiver.Vpe.id; sel })
        (fun r -> delegate_result := Some r);
      run_for sys inject_after;
      receiver.Vpe.state <- Vpe.Exited;
      ignore (System.run sys);
      (* Whatever the outcome, only the sender's capability lives, with
         no children, and the links are globally consistent. *)
      check Alcotest.int
        (Printf.sprintf "one live cap (inject %Ld)" inject_after)
        1 (total_caps sys);
      let key = Option.get (Capspace.find sender.Vpe.capspace sel) in
      check Alcotest.int "no dangling child" 0
        (Mapdb.child_count (Kernel.mapdb (System.kernel sys 0)) key);
      Audit.check sys)
    [ 0L; 900L; 1800L; 2700L; 3600L; 4500L ]

(* A service "svc" run by a fresh VPE on kernel 0. It answers a
   session open, and accepts or rejects a delegate, [delay] cycles after
   the upcall, like a service busy with its own queue; obtains are
   rejected. Returns the service VPE and its service selector. *)
let session_service ?(delay = 0L) ?(accept_delegate = true) ?(upcalls = ref 0) sys =
  let srv_vpe = System.spawn_vpe sys ~kernel:0 in
  Kernel.register_service_handler (System.kernel sys 0) ~name:"svc" (fun req k ->
      incr upcalls;
      let answer =
        match req with
        | Protocol.Srq_open_session _ -> Protocol.Srs_session { ident = 0 }
        | Protocol.Srq_delegate _ ->
          if accept_delegate then Protocol.Srs_accept else Protocol.Srs_reject Protocol.E_denied
        | Protocol.Srq_obtain _ -> Protocol.Srs_reject Protocol.E_invalid
      in
      Engine.after (System.engine sys) delay (fun () -> k answer));
  let srv_sel =
    match System.syscall_sync sys srv_vpe (Protocol.Sys_create_srv { name = "svc" }) with
    | Protocol.R_sel sel -> sel
    | r -> Alcotest.failf "create_srv: %a" Protocol.pp_reply r
  in
  ignore (System.run sys);
  (srv_vpe, srv_sel)

let open_session sys vpe =
  match System.syscall_sync sys vpe (Protocol.Sys_open_session { service = "svc" }) with
  | Protocol.R_sess { sel; ident = _ } -> sel
  | r -> Alcotest.failf "open_session: %a" Protocol.pp_reply r

(* The client dies while its session open is in flight, from another
   group and from the service's own: the service capability must not
   keep an orphaned session child. A service answering [delay] cycles
   after the upcall keeps the open waiting on the service when the
   client exits; a group-local open answered at once would already be
   linked by then. *)
let test_session_client_dies () =
  List.iter
    (fun (client_kernel, delay) ->
      let sys = make () in
      let _srv_vpe, _ = session_service ~delay sys in
      let client = System.spawn_vpe sys ~kernel:client_kernel in
      System.syscall sys client (Protocol.Sys_open_session { service = "svc" }) (fun _ -> ());
      run_for sys 2_500L;
      client.Vpe.state <- Vpe.Exited;
      ignore (System.run sys);
      (* Only the service capability lives; its child list is clean. *)
      let label = Printf.sprintf "(client on kernel %d, delay %Ld)" client_kernel delay in
      let srv_key = Option.get (Kernel.lookup_service (System.kernel sys 0) "svc") in
      check Alcotest.int ("no orphan session " ^ label) 0
        (Mapdb.child_count (Kernel.mapdb (System.kernel sys 0)) srv_key);
      check Alcotest.int ("client holds nothing " ^ label) 0 (Capspace.count client.Vpe.capspace);
      Audit.check sys)
    [ (1, 0L); (1, 3_000L); (0, 3_000L) ]

(* A group-local session open races the revocation of the service
   capability: wherever it lands, the open must fail at the parent or
   be swept with it — never link under a capability being revoked. *)
let test_local_open_vs_service_revoke () =
  List.iter
    (fun inject_after ->
      let sys = make () in
      let srv_vpe, srv_sel = session_service sys in
      ignore (open_session sys (System.spawn_vpe sys ~kernel:1));
      let client = System.spawn_vpe sys ~kernel:0 in
      let revoke_result = ref None and open_result = ref None in
      System.syscall sys srv_vpe (Protocol.Sys_revoke { sel = srv_sel; own = true }) (fun r ->
          revoke_result := Some r);
      run_for sys inject_after;
      System.syscall sys client (Protocol.Sys_open_session { service = "svc" }) (fun r ->
          open_result := Some r);
      ignore (System.run sys);
      check (Alcotest.option reply_t)
        (Printf.sprintf "revoke completes (inject %Ld)" inject_after)
        (Some Protocol.R_ok) !revoke_result;
      (match !open_result with
      | Some
          ( Protocol.R_sess _
          | Protocol.R_err
              (Protocol.E_in_revocation | Protocol.E_no_such_cap | Protocol.E_no_such_service) ) ->
        ()
      | Some r -> Alcotest.failf "open (inject %Ld): %a" inject_after Protocol.pp_reply r
      | None -> Alcotest.fail "open never completed");
      check Alcotest.int
        (Printf.sprintf "nothing survives (inject %Ld)" inject_after)
        0 (total_caps sys);
      Audit.check sys)
    [ 0L; 400L; 800L; 1200L; 1600L; 2000L; 2400L; 2800L; 3200L ]

(* [Sys_delegate] through a session, from the service's group
   ([client_kernel] 0) and from another one (1): the service decides
   through its upcall, asked exactly once, and the child lands in the
   service VPE's space. *)
let delegate_via_session ~client_kernel ?(accept_delegate = true) ?(vpe_accepts = true) () =
  let sys = make () in
  let upcalls = ref 0 in
  let srv_vpe, _ = session_service ~delay:500L ~accept_delegate ~upcalls sys in
  srv_vpe.Vpe.accept_exchange <- vpe_accepts;
  let client = System.spawn_vpe sys ~kernel:client_kernel in
  let sess = open_session sys client in
  let sel = alloc sys client in
  let before = Capspace.count srv_vpe.Vpe.capspace in
  upcalls := 0;
  let r = System.syscall_sync sys client (Protocol.Sys_delegate { sess; sel; args = [] }) in
  ignore (System.run sys);
  check Alcotest.int "service asked once" 1 !upcalls;
  (sys, srv_vpe, client, sel, r, Capspace.count srv_vpe.Vpe.capspace - before)

let test_delegate_via_session () =
  List.iter
    (fun client_kernel ->
      let where = if client_kernel = 0 then "local" else "spanning" in
      (* Accepted: the service VPE owns a child of the client's cap. *)
      let sys, _, client, sel, r, gained = delegate_via_session ~client_kernel () in
      check reply_t (where ^ ": accepted") Protocol.R_ok r;
      check Alcotest.int (where ^ ": service gained the child") 1 gained;
      let key = Option.get (Capspace.find client.Vpe.capspace sel) in
      check Alcotest.int (where ^ ": child linked") 1
        (Mapdb.child_count (Kernel.mapdb (System.kernel sys client_kernel)) key);
      Audit.check sys;
      (* Rejected by the service. *)
      let sys, _, _, _, r, gained = delegate_via_session ~client_kernel ~accept_delegate:false () in
      check reply_t (where ^ ": rejected") (Protocol.R_err Protocol.E_denied) r;
      check Alcotest.int (where ^ ": nothing delegated") 0 gained;
      Audit.check sys;
      (* The service VPE refuses direct exchanges, but a delegate to a
         service is decided by the service's upcall alone. *)
      let sys, _, _, _, r, gained = delegate_via_session ~client_kernel ~vpe_accepts:false () in
      check reply_t (where ^ ": upcall decides") Protocol.R_ok r;
      check Alcotest.int (where ^ ": service gained the child") 1 gained;
      Audit.check sys)
    [ 0; 1 ]

(* The delegated capability is revoked while a delegate through a
   session waits on the service: the service must never end up with a
   live copy. *)
let test_delegate_via_session_vs_revoke () =
  List.iter
    (fun (client_kernel, inject_after) ->
      let sys = make () in
      let srv_vpe, _ = session_service ~delay:500L sys in
      let owner = System.spawn_vpe sys ~kernel:client_kernel in
      let client = System.spawn_vpe sys ~kernel:client_kernel in
      let sess = open_session sys client in
      let root = alloc sys owner in
      let sel =
        sel_of
          (System.syscall_sync sys client
             (Protocol.Sys_obtain_from { donor_vpe = owner.Vpe.id; donor_sel = root }))
      in
      let before = Capspace.count srv_vpe.Vpe.capspace in
      let delegate_result = ref None and revoke_result = ref None in
      System.syscall sys client (Protocol.Sys_delegate { sess; sel; args = [] }) (fun r ->
          delegate_result := Some r);
      run_for sys inject_after;
      System.syscall sys owner (Protocol.Sys_revoke { sel = root; own = true }) (fun r ->
          revoke_result := Some r);
      ignore (System.run sys);
      let label = Printf.sprintf "(client on kernel %d, inject %Ld)" client_kernel inject_after in
      check (Alcotest.option reply_t) ("revoke completes " ^ label) (Some Protocol.R_ok)
        !revoke_result;
      (match !delegate_result with
      | Some (Protocol.R_ok | Protocol.R_err (Protocol.E_in_revocation | Protocol.E_no_such_cap))
        ->
        ()
      | Some r -> Alcotest.failf "delegate %s: %a" label Protocol.pp_reply r
      | None -> Alcotest.failf "delegate %s never completed" label);
      check Alcotest.int ("service holds no copy " ^ label) before
        (Capspace.count srv_vpe.Vpe.capspace);
      Audit.check sys)
    (List.concat_map
       (fun k -> List.map (fun i -> (k, i)) [ 0L; 300L; 600L; 900L; 1500L; 2500L; 4000L ])
       [ 0; 1 ])

(* An obtain_from races the revocation of the donor's capability and a
   new allocation that takes over the freed selector while the donor's
   acceptance is in flight: the child may only ever hang under the
   capability the donor agreed to give. The donor holds a child of
   [owner]'s capability, so [owner] revokes it while the donor
   allocates. The revoke starts once the donor's kernel has resolved
   the selector — 2,000 cycles after a spanning obtain (client in
   another group), 500 after a group-local one — so the new capability
   must never gain the child. *)
let test_obtain_from_vs_selector_reuse () =
  List.iter
    (fun (client_kernel, revoke_after) ->
      let reused = ref 0 in
      List.iter
        (fun alloc_after ->
          let sys = make () in
          let owner = System.spawn_vpe sys ~kernel:0 in
          let donor = System.spawn_vpe sys ~kernel:0 in
          let client = System.spawn_vpe sys ~kernel:client_kernel in
          let root = alloc sys owner in
          let sel =
            sel_of
              (System.syscall_sync sys donor
                 (Protocol.Sys_obtain_from { donor_vpe = owner.Vpe.id; donor_sel = root }))
          in
          let obtain_result = ref None and revoke_result = ref None and realloc = ref None in
          System.syscall sys client (Protocol.Sys_obtain_from { donor_vpe = donor.Vpe.id; donor_sel = sel })
            (fun r -> obtain_result := Some r);
          run_for sys revoke_after;
          System.syscall sys owner (Protocol.Sys_revoke { sel = root; own = false }) (fun r ->
              revoke_result := Some r);
          run_for sys alloc_after;
          System.syscall sys donor (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }) (fun r ->
              realloc := Some (sel_of r));
          ignore (System.run sys);
          let label =
            Printf.sprintf "(client on kernel %d, alloc %Ld after the revoke)" client_kernel alloc_after
          in
          check (Alcotest.option reply_t) ("revoke completes " ^ label) (Some Protocol.R_ok)
            !revoke_result;
          (match !obtain_result with
          | Some (Protocol.R_sel _ | Protocol.R_err (Protocol.E_in_revocation | Protocol.E_no_such_cap)) -> ()
          | Some r -> Alcotest.failf "obtain %s: %a" label Protocol.pp_reply r
          | None -> Alcotest.failf "obtain %s never completed" label);
          let new_sel = Option.get !realloc in
          if new_sel = sel then incr reused;
          let new_key = Option.get (Capspace.find donor.Vpe.capspace new_sel) in
          check Alcotest.int ("new capability has no child " ^ label) 0
            (Mapdb.child_count (Kernel.mapdb (System.kernel sys 0)) new_key);
          check Alcotest.int ("client holds nothing " ^ label) 0 (Capspace.count client.Vpe.capspace);
          Audit.check sys)
        (List.init 31 (fun i -> Int64.of_int (i * 100)));
      (* The sweep must reach the race it is about. *)
      check Alcotest.bool "some allocation reused the selector" true (!reused > 0))
    [ (1, 2_000L); (0, 500L) ]

(* Concurrent revokes racing from both ends of a spanning chain. *)
let test_race_revokes_both_ends () =
  let sys = make () in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  let a = alloc sys v1 in
  let b =
    sel_of
      (System.syscall_sync sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = a }))
  in
  let c =
    sel_of
      (System.syscall_sync sys v1 (Protocol.Sys_obtain_from { donor_vpe = v2.Vpe.id; donor_sel = b }))
  in
  ignore c;
  let r1 = ref None and r2 = ref None in
  System.syscall sys v1 (Protocol.Sys_revoke { sel = a; own = true }) (fun r -> r1 := Some r);
  System.syscall sys v2 (Protocol.Sys_revoke { sel = b; own = true }) (fun r -> r2 := Some r);
  ignore (System.run sys);
  check Alcotest.bool "both acknowledged" true (!r1 <> None && !r2 <> None);
  check Alcotest.int "chain gone" 0 (total_caps sys);
  Audit.check sys

(* Exchange arriving for a VPE that exits in the same instant. *)
let test_exchange_vs_exit () =
  let sys = make () in
  let donor = System.spawn_vpe sys ~kernel:0 in
  let taker = System.spawn_vpe sys ~kernel:1 in
  let sel = alloc sys donor in
  let obtain_result = ref None in
  System.syscall sys taker (Protocol.Sys_obtain_from { donor_vpe = donor.Vpe.id; donor_sel = sel })
    (fun r -> obtain_result := Some r);
  run_for sys 1_000L;
  (* The donor exits while the obtain request is in flight. *)
  let exit_result = ref None in
  System.syscall sys donor Protocol.Sys_exit (fun r -> exit_result := Some r);
  ignore (System.run sys);
  check (Alcotest.option reply_t) "exit completes" (Some Protocol.R_ok) !exit_result;
  (* The obtain either failed cleanly or its result was swept by the
     exit's revocation. *)
  check Alcotest.int "no capability leaked" 0 (total_caps sys);
  Audit.check sys

(* Determinism: identical configurations produce bit-identical results. *)
let test_determinism () =
  let run () =
    let o = Experiment.run (Experiment.config ~kernels:4 ~services:4 ~instances:16 Workloads.leveldb) in
    (o.Experiment.runtimes, o.Experiment.cap_ops, o.Experiment.max_runtime)
  in
  let a = run () and b = run () in
  check Alcotest.bool "bit-identical reruns" true (a = b)

(* Obtain of an obtained capability: grandchildren across three kernels
   with interleaved partial revocation. *)
let test_partial_revoke_deep_tree () =
  let sys = make ~kernels:3 ~pes:8 () in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  let v3 = System.spawn_vpe sys ~kernel:2 in
  let a = alloc sys v1 in
  let b =
    sel_of
      (System.syscall_sync sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = a }))
  in
  let _c =
    sel_of
      (System.syscall_sync sys v3 (Protocol.Sys_obtain_from { donor_vpe = v2.Vpe.id; donor_sel = b }))
  in
  (* Revoke only the middle VPE's subtree, children-only: v2 keeps its
     capability, v3 loses its copy, v1 untouched. *)
  (match System.syscall_sync sys v2 (Protocol.Sys_revoke { sel = b; own = false }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke: %a" Protocol.pp_reply r);
  check Alcotest.int "v3 lost its copy" 0 (Capspace.count v3.Vpe.capspace);
  check Alcotest.int "v2 keeps its capability" 1 (Capspace.count v2.Vpe.capspace);
  check Alcotest.int "v1 untouched" 1 (Capspace.count v1.Vpe.capspace);
  check Alcotest.int "two caps remain" 2 (total_caps sys);
  Audit.check sys;
  (* Now the full revoke sweeps the remains. *)
  (match System.syscall_sync sys v1 (Protocol.Sys_revoke { sel = a; own = true }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke: %a" Protocol.pp_reply r);
  check Alcotest.int "all gone" 0 (total_caps sys);
  Audit.check sys

(* ------------------------------------------------------------------ *)
(* Redelivery regressions: the fault injector can deliver any op-tagged
   inter-kernel message twice, so a duplicate must be detected and
   absorbed — never re-executed. These tests replay the duplicate by
   hand. Requester kernels allocate ops as [kernel_id * 0x1000000 + n]
   from a single counter that also numbers syscall trace spans, so every
   syscall consumes one op before any remote op it triggers. *)

let dup_ikc sys k = (Kernel.stats (System.kernel sys k)).Kernel.dup_ikc

(* A redelivered obtain request must not create a second child
   capability (Mapdb.add_child would raise on the duplicate). *)
let test_redelivered_obtain_req () =
  let sys = make () in
  let donor = System.spawn_vpe sys ~kernel:0 in
  let taker = System.spawn_vpe sys ~kernel:1 in
  let donor_sel = alloc sys donor in
  (match
     System.syscall_sync sys taker
       (Protocol.Sys_obtain_from { donor_vpe = donor.Vpe.id; donor_sel })
   with
  | Protocol.R_sel _ -> ()
  | r -> Alcotest.failf "obtain: %a" Protocol.pp_reply r);
  check Alcotest.int "parent + child" 2 (total_caps sys);
  (* Kernel 1's obtain syscall consumed op 0x1000000 for its span and
     op 0x1000001 for the remote obtain; replay the request at the
     donor's kernel as the fault injector's duplicate would. *)
  Kernel.deliver_ikc (System.kernel sys 0) ~src_kernel:1
    (Protocol.Ik_obtain_req
       {
         op = 0x1000001;
         src_kernel = 1;
         obj_reserved = 999;
         client_pe = taker.Vpe.pe;
         client_vpe = taker.Vpe.id;
         donor = Protocol.Direct { donor_vpe = donor.Vpe.id; donor_sel };
       });
  ignore (System.run sys);
  check Alcotest.bool "duplicate detected" true (dup_ikc sys 0 >= 1);
  check Alcotest.int "still one child" 2 (total_caps sys);
  check Alcotest.int "taker still holds one selector" 1 (Capspace.count taker.Vpe.capspace);
  let key = Option.get (Capspace.find donor.Vpe.capspace donor_sel) in
  check Alcotest.int "donor cap has one child" 1
    (Mapdb.child_count (Kernel.mapdb (System.kernel sys 0)) key);
  Audit.check sys

(* A redelivered delegate ack must not double-insert the child or
   release a second protocol thread; it is acked again on its credit
   return, which leaves the source with nothing to retransmit. *)
let test_redelivered_delegate_ack () =
  let sys = make () in
  let sender = System.spawn_vpe sys ~kernel:0 in
  let receiver = System.spawn_vpe sys ~kernel:1 in
  let sel = alloc sys sender in
  (match
     System.syscall_sync sys sender
       (Protocol.Sys_delegate_to { recv_vpe = receiver.Vpe.id; sel })
   with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "delegate: %a" Protocol.pp_reply r);
  ignore (System.run sys);
  check Alcotest.int "parent + delegated child" 2 (total_caps sys);
  let child_key =
    let keys = ref [] in
    Capspace.iter (fun _ key -> keys := key :: !keys) receiver.Vpe.capspace;
    match !keys with
    | [ k ] -> k
    | l -> Alcotest.failf "receiver holds %d capabilities" (List.length l)
  in
  let idle_threads = Thread_pool.in_use (Kernel.threads (System.kernel sys 1)) in
  (* Kernel 0 drove the delegate with op 2 (after the two syscall
     spans); replay the commit ack at the receiver's kernel. *)
  Kernel.deliver_ikc (System.kernel sys 1) ~src_kernel:0
    (Protocol.Ik_delegate_ack { op = 2; child_key; commit = true });
  ignore (System.run sys);
  check Alcotest.bool "duplicate detected" true (dup_ikc sys 1 >= 1);
  check Alcotest.int "no double insert" 2 (total_caps sys);
  check Alcotest.int "receiver still holds one selector" 1 (Capspace.count receiver.Vpe.capspace);
  check Alcotest.int "thread pool untouched" idle_threads
    (Thread_pool.in_use (Kernel.threads (System.kernel sys 1)));
  List.iter
    (fun k ->
      check Alcotest.string
        (Printf.sprintf "kernel %d quiescent" (Kernel.id k))
        "quiescent" (Kernel.quiescence_report k))
    (System.kernels sys);
  Audit.check sys;
  (* The machinery still works after the duplicate: a fresh exchange and
     a full revoke complete normally. *)
  (match System.syscall_sync sys sender (Protocol.Sys_revoke { sel; own = true }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke after dup ack: %a" Protocol.pp_reply r);
  check Alcotest.int "revoke sweeps both" 0 (total_caps sys);
  Audit.check sys

(* A redelivered revoke request must not resurrect or double-free
   anything: the responder answers from its completed-op cache. *)
let test_redelivered_revoke_req () =
  let sys = make () in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  let a = alloc sys v1 in
  let root_key = Option.get (Capspace.find v1.Vpe.capspace a) in
  (match
     System.syscall_sync sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = a })
   with
  | Protocol.R_sel _ -> ()
  | r -> Alcotest.failf "obtain: %a" Protocol.pp_reply r);
  (match System.syscall_sync sys v1 (Protocol.Sys_revoke { sel = a; own = true }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke: %a" Protocol.pp_reply r);
  check Alcotest.int "all revoked" 0 (total_caps sys);
  (* Kernel 0 consumed op 0 for the alloc syscall span, op 1 for the
     revoke syscall span, op 2 for the revoke operation itself, and op 3
     for the revoke message; replay the message at kernel 1. *)
  Kernel.deliver_ikc (System.kernel sys 1) ~src_kernel:0
    (Protocol.Ik_revoke_req { op = 3; src_kernel = 0; keys = [ root_key ] });
  ignore (System.run sys);
  check Alcotest.bool "duplicate detected" true (dup_ikc sys 1 >= 1);
  check Alcotest.int "nothing resurrected" 0 (total_caps sys);
  check Alcotest.int "both capspaces empty" 0
    (Capspace.count v1.Vpe.capspace + Capspace.count v2.Vpe.capspace);
  Audit.check sys

(* The idempotency cache (cached replies of handled remote ops) must
   not grow without bound: entries older than the retry window are
   evicted lazily on the next syscall or IKC delivery. *)
let test_idempotency_cache_eviction () =
  let sys = make () in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  (* Cross-kernel traffic in both directions populates both kernels'
     caches: obtains at the donor's kernel, delegates at the
     receiver's. *)
  for _ = 1 to 4 do
    let a = alloc sys v1 in
    (match
       System.syscall_sync sys v2
         (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = a })
     with
    | Protocol.R_sel _ -> ()
    | r -> Alcotest.failf "obtain: %a" Protocol.pp_reply r);
    match
      System.syscall_sync sys v1 (Protocol.Sys_delegate_to { recv_vpe = v2.Vpe.id; sel = a })
    with
    | Protocol.R_ok -> ()
    | r -> Alcotest.failf "delegate: %a" Protocol.pp_reply r
  done;
  let filled =
    List.fold_left (fun acc k -> acc + Kernel.idempotency_cache_sizes k) 0 (System.kernels sys)
  in
  check Alcotest.bool "caches populated by cross-kernel traffic" true (filled > 0);
  (* Let the retry window (the full exponential-backoff schedule plus
     slack, ~27.2M cycles at the default cost table) expire, then touch
     each kernel: eviction is activity-driven, so the next syscall
     drains the expired entries. *)
  run_for sys 30_000_000L;
  ignore (alloc sys v1);
  ignore (alloc sys v2);
  List.iter
    (fun k -> check Alcotest.int "remote-op cache drained" 0 (Kernel.idempotency_cache_sizes k))
    (System.kernels sys);
  Audit.check sys

(* When every retransmission is lost, the retry loop must give up after
   retry_max attempts and fail the syscall with E_timeout instead of
   leaving it pending forever. *)
let test_retry_exhaustion_times_out () =
  let drop_everything =
    {
      Fault.seed = 7L;
      delay_prob = 0.0;
      max_delay = 0;
      dup_prob = 0.0;
      max_dup_delay = 0;
      drop_prob = 1.0;
      max_drops_per_pair = max_int;
      max_drops_total = max_int;
      stall_prob = 0.0;
      max_stall = 0;
    }
  in
  let sys =
    System.create
      (System.config ~kernels:2 ~user_pes_per_kernel:4 ~fault:drop_everything ())
  in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  let a = alloc sys v1 in
  let result = ref None in
  System.syscall sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = a })
    (fun r -> result := Some r);
  ignore (System.run sys);
  check (Alcotest.option reply_t) "syscall fails explicitly"
    (Some (Protocol.R_err Protocol.E_timeout))
    !result;
  let exhausted =
    List.fold_left
      (fun acc k -> acc + (Kernel.stats k).Kernel.retry_exhausted)
      0 (System.kernels sys)
  in
  check Alcotest.bool "exhaustion counted" true (exhausted >= 1)

let suite =
  [
    Alcotest.test_case "delegate aborted by revoke (Invalid)" `Quick
      test_delegate_aborted_by_revoke;
    Alcotest.test_case "delegate receiver dies (orphan)" `Quick test_delegate_receiver_dies;
    Alcotest.test_case "session client dies (orphan)" `Quick test_session_client_dies;
    Alcotest.test_case "local open vs service revoke" `Quick test_local_open_vs_service_revoke;
    Alcotest.test_case "delegate through a session" `Quick test_delegate_via_session;
    Alcotest.test_case "delegate through a session vs revoke" `Quick
      test_delegate_via_session_vs_revoke;
    Alcotest.test_case "obtain_from vs selector reuse" `Quick test_obtain_from_vs_selector_reuse;
    Alcotest.test_case "revokes race from both ends" `Quick test_race_revokes_both_ends;
    Alcotest.test_case "exchange vs exit" `Quick test_exchange_vs_exit;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "partial revoke of a deep tree" `Quick test_partial_revoke_deep_tree;
    Alcotest.test_case "redelivered obtain request" `Quick test_redelivered_obtain_req;
    Alcotest.test_case "redelivered delegate ack" `Quick test_redelivered_delegate_ack;
    Alcotest.test_case "redelivered revoke request" `Quick test_redelivered_revoke_req;
    Alcotest.test_case "idempotency caches evict after the retry window" `Quick
      test_idempotency_cache_eviction;
    Alcotest.test_case "retry exhaustion fails with E_timeout" `Quick
      test_retry_exhaustion_times_out;
  ]
