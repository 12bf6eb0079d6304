module Key = Semper_ddl.Key
module Membership = Semper_ddl.Membership
module Cap = Semper_caps.Cap
module Capspace = Semper_caps.Capspace
module Mapdb = Semper_caps.Mapdb
module Engine = Semper_sim.Engine
module Server = Semper_sim.Server
module Fabric = Semper_noc.Fabric
module Obs = Semper_obs.Obs
module P = Protocol

let src = Logs.Src.create "semper.kernel" ~doc:"SemperOS kernel"

module Log = (val Logs.src_log src : Logs.LOG)

type env = {
  locate_vpe : int -> Vpe.t option;
  alloc_pe : kernel:int -> int option;
  make_vpe : pe:int -> kernel:int -> Vpe.t;
  on_vpe_exit : Vpe.t -> unit;
}

type service_handler = P.service_request -> (P.service_response -> unit) -> unit

type service = { srv_key : Key.t; srv_vpe : int; srv_handler : service_handler }

(* Point-in-time snapshot of the kernel's metrics, kept as a plain
   record so readers need no registry access. The live counters behind
   it are registered instruments ([counters] below). *)
type stats = {
  syscalls : int;
  cap_ops : int;
  exchanges_local : int;
  exchanges_spanning : int;
  revokes_local : int;
  revokes_spanning : int;
  caps_created : int;
  caps_deleted : int;
  ikc_sent : int;
  ikc_received : int;
  credit_stalls : int;
  credit_overrefund : int;
  retries : int;
  retry_exhausted : int;
  dup_ikc : int;
  batches_sent : int;
  batched_msgs : int;
  latencies : (string, Semper_util.Stats.Acc.t) Hashtbl.t;
}

(* Live instruments, registered under [kernel<id>.*]. *)
type counters = {
  syscalls : Obs.Registry.counter;
  cap_ops : Obs.Registry.counter;
  exchanges_local : Obs.Registry.counter;
  exchanges_spanning : Obs.Registry.counter;
  revokes_local : Obs.Registry.counter;
  revokes_spanning : Obs.Registry.counter;
  caps_created : Obs.Registry.counter;
  caps_deleted : Obs.Registry.counter;
  ikc_sent : Obs.Registry.counter;
  ikc_received : Obs.Registry.counter;
  credit_stalls : Obs.Registry.counter;
  (* Credit refunds discarded at the §5.1 [max_inflight] cap — a
     retransmission refund racing the original message's credit return,
     or a fault-injected duplicate returning credit twice. Without the
     cap these permanently inflated the window past the paper's bound. *)
  credit_overrefund : Obs.Registry.counter;
  retries : Obs.Registry.counter;
  retry_exhausted : Obs.Registry.counter;
  dup_ikc : Obs.Registry.counter;
  (* [Ik_batch] frames shipped / inner messages they carried (batching
     mode only); [batch_occupancy] histograms messages per frame. *)
  batches_sent : Obs.Registry.counter;
  batched_msgs : Obs.Registry.counter;
  batch_occupancy : Obs.Registry.histogram;
  (* Membership probes performed by revocation sweeps — one per
     marked-set lookup, so its value is linear in the number of deleted
     capabilities. Regression-tested: a wide tree must not make the
     sweep quadratic again. *)
  revoke_sweep_probes : Obs.Registry.counter;
  (* Syscall-queue depth at the kernel PE, observed on syscall entry
     and IKC delivery — the balancer's second load sensor besides
     busy cycles. Piggybacks on existing activity points (like the
     idempotency-cache eviction) so it adds no engine events. *)
  queue_depth : Obs.Registry.histogram;
  (* Per-name histogram handles, each resolved on the name's first use
     (when the registry creates it) and reused after: end-to-end
     syscall latency keyed by syscall name, and acked op-tagged IKC
     latency and retransmission counts keyed by message name. The
     registry restores histograms in place, so a handle stays valid
     across [System.restore]. *)
  latencies : (string, Obs.Registry.histogram) Hashtbl.t;
  ikc_hists : (string, ikc_instruments) Hashtbl.t;
}

and ikc_instruments = { ikc_latency : Obs.Registry.histogram; ikc_retries : Obs.Registry.histogram }

(* Revocation operation state (Algorithm 1). One [revoke_op] exists per
   kernel participating in a revoke; [outstanding] counts remote revoke
   requests (and overlapping local operations) this kernel still waits
   for before it may delete its marked region and acknowledge. *)
type revoke_op = {
  rop_id : int;
  roots : Key.t list;
  own : bool;
  origin : revoke_origin;
  mutable outstanding : int;
  mutable marked : Key.t list;  (* reverse order of marking *)
  (* Same members as [marked]: O(1) membership for the deletion sweep
     (the ordered list alone made the sweep O(n²) in region size). *)
  marked_set : unit Key.Table.t;
  mutable links_seen : int;     (* child links examined, for DDL cost *)
  (* Children-only revokes: remote children to unlink from their
     surviving (local) roots once their revocation is acknowledged. *)
  mutable root_unlinks : (Key.t * Key.t) list;
  (* Requester-handoff (batching mode): marked-subtree roots discovered
     on the kernel that requested this revoke. They ride the reply's
     [cont] field instead of a revoke request of their own. *)
  mutable cont_out : Key.t list;
  (* Subtree roots this operation absorbed from a responder's reply.
     Their remote parents were swept by that responder before it
     replied, so the deletion sweep must not send them an unlink. *)
  cont_roots : unit Key.Table.t;
  mutable on_complete : (unit -> unit) list;
}

and revoke_origin = Ro_syscall of Vpe.t | Ro_exit of Vpe.t | Ro_remote of int * int

type pending =
  | P_obtain of { client : Vpe.t }
  | P_delegate_src of { client : Vpe.t; src_key : Key.t; dst_kernel : int }
  | P_delegate_dst of { child_key : Key.t; recv_vpe : int; src_kernel : int }
  | P_open_sess of { client : Vpe.t; sess_key : Key.t; srv_key : Key.t; srv_kernel : int }
  | P_revoke of revoke_op
  (* One outstanding [Ik_revoke_req]: every revoke message carries its
     own op id so the responder can deduplicate redeliveries and a
     duplicated reply cannot double-decrement [outstanding]. *)
  | P_revoke_msg of { rop : revoke_op }
  (* An acked broadcast ([acked_broadcast]) awaiting every peer's ack:
     a fleet lifecycle announcement, or phase 1 of a partition handoff
     (the membership flip). *)
  | P_bcast of bcast_op
  (* Phase 2 of a partition handoff: the framed record wave awaiting
     the destination's install acknowledgement. *)
  | P_part_caps of { pc_done : unit -> unit }

and bcast_op = {
  (* Peers whose ack is still missing, keyed by kernel id: acks arrive
     in arbitrary order and each must be matched (and deduplicated) in
     O(1), not by scanning a list. *)
  b_peers : (int, unit) Hashtbl.t;
  b_done : unit -> unit;
  (* Pending retransmission tick, cancelled once the last ack is in. *)
  mutable b_timer : Engine.handle option;
}

(* Responder-side record of an op-tagged request: op ids are globally
   unique (minted by the requester), so a redelivered request —
   retransmission or fault-injected duplicate — is recognised and, once
   finished, answered from the cached reply instead of re-executed. *)
type remote_state = R_in_progress | R_done of { dst : int; msg : P.ikc }

(* A request awaiting a reply, retransmitted on timeout. [rstart] and
   [rattempts] feed the per-op latency and retry histograms. [rtimer]
   is the pending retransmission tick, cancelled when the reply
   arrives — otherwise every successfully-acked message would leave a
   dead event in the engine queue until its timeout expired. *)
type retry_state = {
  rdst : int;
  rmsg : P.ikc;
  rstart : int64;
  mutable rattempts : int;
  mutable rtimer : Engine.handle option;
}

(* Idempotency-cache entries scheduled for eviction once the retry
   window has safely elapsed (no retransmission of the request can
   still be in flight by then). *)
type evict_key = Ev_remote of int | Ev_ack of int

(* Outgoing coalescing state for one peer kernel (batching mode): the
   first message to a peer opens a DTU slot window ([bw_until]);
   messages issued before it closes queue in [bq] and leave as one
   framed [Ik_batch] when the window's flush tick fires. *)
type batch_state = { bq : P.ikc Queue.t; mutable bw_until : int64 }

(* Receiver-side credit bookkeeping for [Ik_batch] frames from one
   peer: a frame consumed ONE sender credit but each inner message
   returns one, so all but one return per frame is absorbed ([o_left]).
   Piggybacked acks on absorbed returns are stashed in [o_acks] and
   ride the next credit message that does go out. *)
type owed = { mutable o_left : int; mutable o_acks : int list }

type t = {
  id : int;
  pe : int;
  engine : Engine.t;
  fabric : Fabric.t;
  grid : Semper_dtu.Dtu.grid;
  membership : Membership.t;
  cost : Cost.t;
  env : env;
  registry : (int, t) Hashtbl.t;
  kernel_count : int;
  mapdb : Mapdb.t;
  server : Server.t;
  threads : Thread_pool.t;
  vpes : (int, Vpe.t) Hashtbl.t;
  directory : (string, Key.t) Hashtbl.t;  (* replicated service directory *)
  local_services : (string, service) Hashtbl.t;
  services_by_key : service Key.Table.t;
  pending_handlers : (string, service_handler) Hashtbl.t;
  pending_ops : (int, pending) Hashtbl.t;
  (* DTU endpoints configured for a capability: invalidated when the
     capability is revoked (NoC-level isolation enforcement). *)
  activations : (int * int) Key.Table.t;
  credits : (int, int ref * (P.ikc * int) Queue.t) Hashtbl.t;  (* per peer kernel *)
  batch_queues : (int, batch_state) Hashtbl.t;  (* per peer kernel *)
  batch_owed : (int, owed) Hashtbl.t;  (* per peer kernel *)
  remote_ops : (int, remote_state) Hashtbl.t;
  (* Requests awaiting a reply, retransmitted on timeout. *)
  retry_msgs : (int, retry_state) Hashtbl.t;
  (* Completed delegate handshakes: op -> (dst, ack), kept so a
     redelivered reply can trigger an ack resend if the ack was lost. *)
  completed_acks : (int, int * P.ikc) Hashtbl.t;
  (* FIFO of (expiry, entry) for the two idempotency caches above;
     expiries are monotone because entries are pushed at event time. *)
  evictions : (int64 * evict_key) Queue.t;
  obs : Obs.Registry.t;
  trace : Obs.Trace.t;
  ctr : counters;
  mutable next_op : int;
  (* Recycled per-operation scratch (host-side, never snapshotted):
     marked/cont-root sets for revoke ops and destination-grouping
     tables for message waves. [Hashtbl.reset] on release restores the
     initial bucket count, so a recycled table iterates exactly like a
     fresh one — recycling cannot perturb message order. *)
  keyset_pool : unit Key.Table.t Pool.t;
  dstmap_pool : (int, Key.t list) Hashtbl.t Pool.t;
}

(* Retransmission backoff: the wait before attempt [i] doubles up to a
   64x cap. A fixed interval turned heavy (fault-free) congestion into
   false [E_timeout]s — a reply delayed behind a long server queue was
   declared lost after retry_max * retry_timeout cycles, which large
   experiments exceed. Backoff keeps loss recovery fast (first resend
   after one timeout) while tolerating ~50x longer queueing, and stops
   retransmission storms from feeding the very congestion that delayed
   the reply. *)
let retry_interval cost i =
  let shift = if i < 6 then i else 6 in
  Int64.mul cost.Cost.retry_timeout (Int64.of_int (1 lsl shift))

(* Worst-case span of a full retry schedule: sum of all backoff
   intervals (attempts 0..retry_max), used to size the idempotency-cache
   retention window. *)
let retry_window cost =
  let rec total i acc =
    if i > cost.Cost.retry_max then acc else total (i + 1) (Int64.add acc (retry_interval cost i))
  in
  total 0 0L

(* Bucket bounds (cycles) for syscall / IKC latency histograms. *)
let latency_buckets =
  [| 1_000.; 2_500.; 5_000.; 10_000.; 25_000.; 50_000.; 100_000.; 250_000.; 500_000.; 1_000_000. |]

(* Bucket bounds for per-op retransmission counts. *)
let retry_buckets = [| 0.; 1.; 2.; 3.; 5.; 10.; 20. |]

(* Bucket bounds for the syscall-queue depth at the kernel PE. *)
let queue_depth_buckets = [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64. |]

let create ?obs ?trace ~engine ~fabric ~grid ~id ~pe ~membership ~cost ~env ~registry ~kernel_count
    () =
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  let trace = match trace with Some b -> b | None -> Obs.Trace.create ~capacity:1024 in
  let cnt name = Obs.Registry.counter obs (Printf.sprintf "kernel%d.%s" id name) in
  let ctr : counters =
    {
      syscalls = cnt "syscalls";
      cap_ops = cnt "cap_ops";
      exchanges_local = cnt "exchanges_local";
      exchanges_spanning = cnt "exchanges_spanning";
      revokes_local = cnt "revokes_local";
      revokes_spanning = cnt "revokes_spanning";
      caps_created = cnt "caps_created";
      caps_deleted = cnt "caps_deleted";
      ikc_sent = cnt "ikc_sent";
      ikc_received = cnt "ikc_received";
      credit_stalls = cnt "credit_stalls";
      credit_overrefund = cnt "credit_overrefund";
      retries = cnt "retries";
      retry_exhausted = cnt "retry_exhausted";
      dup_ikc = cnt "dup_ikc";
      batches_sent = cnt "batches_sent";
      batched_msgs = cnt "batched_msgs";
      batch_occupancy =
        Obs.Registry.histogram obs
          (Printf.sprintf "kernel%d.batch_occupancy" id)
          ~buckets:[| 2.; 4.; 8.; 16.; 32.; 64. |];
      revoke_sweep_probes = cnt "revoke_sweep_probes";
      queue_depth =
        Obs.Registry.histogram obs
          (Printf.sprintf "kernel%d.queue_depth" id)
          ~buckets:queue_depth_buckets;
      latencies = Hashtbl.create 16;
      ikc_hists = Hashtbl.create 16;
    }
  in
  let t =
    {
      id;
      pe;
      engine;
      fabric;
      grid;
      membership;
      cost;
      env;
      registry;
      kernel_count;
      mapdb = Mapdb.create ();
      server = Server.create engine ~name:(Printf.sprintf "kernel%d" id);
      threads = Thread_pool.create ~vpes:0 ~kernels:kernel_count;
      vpes = Hashtbl.create 32;
      directory = Hashtbl.create 16;
      local_services = Hashtbl.create 8;
      services_by_key = Key.Table.create 8;
      pending_handlers = Hashtbl.create 8;
      pending_ops = Hashtbl.create 32;
      activations = Key.Table.create 16;
      credits = Hashtbl.create 8;
      batch_queues = Hashtbl.create 8;
      batch_owed = Hashtbl.create 8;
      remote_ops = Hashtbl.create 32;
      retry_msgs = Hashtbl.create 16;
      completed_acks = Hashtbl.create 16;
      evictions = Queue.create ();
      obs;
      trace;
      ctr;
      next_op = 0;
      keyset_pool =
        Pool.create ~prealloc:2
          ~make:(fun () -> Key.Table.create 64)
          ~reset:Key.Table.reset ();
      dstmap_pool =
        Pool.create ~prealloc:1 ~make:(fun () -> Hashtbl.create 8) ~reset:Hashtbl.reset ();
    }
  in
  Hashtbl.add registry id t;
  (* Gauges sample live kernel state at snapshot time. *)
  let gauge name f = Obs.Registry.gauge obs (Printf.sprintf "kernel%d.%s" id name) f in
  gauge "occupancy" (fun () ->
      let now = Int64.to_float (Engine.now engine) in
      if now <= 0.0 then 0.0 else Int64.to_float (Server.busy_cycles t.server) /. now);
  gauge "busy_cycles" (fun () -> Int64.to_float (Server.busy_cycles t.server));
  gauge "threads.size" (fun () -> float_of_int (Thread_pool.size t.threads));
  gauge "threads.in_use" (fun () -> float_of_int (Thread_pool.in_use t.threads));
  gauge "threads.max_in_use" (fun () -> float_of_int (Thread_pool.max_in_use t.threads));
  gauge "threads.waiting" (fun () -> float_of_int (Thread_pool.waiting t.threads));
  t

let id t = t.id
let pe t = t.pe
let mapdb t = t.mapdb
let server t = t.server
let threads t = t.threads
let membership t = t.membership
let queue_depth t = Server.queue_length t.server

(* Sorted by VPE id so callers that pick candidates (the load
   balancer) never depend on hash-table iteration order. *)
let local_vpes t =
  Hashtbl.fold (fun _ v acc -> v :: acc) t.vpes []
  |> List.sort (fun (a : Vpe.t) (b : Vpe.t) -> Int.compare a.Vpe.id b.Vpe.id)

let stats t : stats =
  let v = Obs.Registry.value in
  {
    syscalls = v t.ctr.syscalls;
    cap_ops = v t.ctr.cap_ops;
    exchanges_local = v t.ctr.exchanges_local;
    exchanges_spanning = v t.ctr.exchanges_spanning;
    revokes_local = v t.ctr.revokes_local;
    revokes_spanning = v t.ctr.revokes_spanning;
    caps_created = v t.ctr.caps_created;
    caps_deleted = v t.ctr.caps_deleted;
    ikc_sent = v t.ctr.ikc_sent;
    ikc_received = v t.ctr.ikc_received;
    credit_stalls = v t.ctr.credit_stalls;
    credit_overrefund = v t.ctr.credit_overrefund;
    retries = v t.ctr.retries;
    retry_exhausted = v t.ctr.retry_exhausted;
    dup_ikc = v t.ctr.dup_ikc;
    batches_sent = v t.ctr.batches_sent;
    batched_msgs = v t.ctr.batched_msgs;
    latencies =
      (let accs = Hashtbl.create (Hashtbl.length t.ctr.latencies) in
       Hashtbl.iter (fun name h -> Hashtbl.replace accs name (Obs.Registry.acc h)) t.ctr.latencies;
       accs);
  }

let obs t = t.obs
let trace_buffer t = t.trace

let idempotency_cache_sizes t =
  (Hashtbl.length t.remote_ops, Hashtbl.length t.completed_acks)

(* Per-peer send-credit windows, sorted by peer id. The fuzz credit
   oracle asserts every window stays within [0, Cost.max_inflight]. *)
let credit_windows t =
  Hashtbl.fold (fun peer (credits, _) acc -> (peer, !credits) :: acc) t.credits []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let cost t = t.cost

let add_vpe t vpe =
  if Hashtbl.mem t.vpes vpe.Vpe.id then invalid_arg "Kernel.add_vpe: VPE already registered";
  Hashtbl.add t.vpes vpe.Vpe.id vpe;
  Thread_pool.add_vpe_thread t.threads

let find_vpe t vid = Hashtbl.find_opt t.vpes vid
let vpe_count t = Hashtbl.length t.vpes

let register_service_handler t ~name handler = Hashtbl.replace t.pending_handlers name handler

(* The kernel's data plane (mapping database, membership replica,
   service directory, op-id cursor) restores in place; the control
   plane (pending operations, retry timers, idempotency caches — all
   carrying continuations or engine handles) travels only inside
   whole-image checkpoints. The snapshot records the control plane's
   op ids and sizes so a fingerprint distinguishes states and restore
   can verify it is being applied to a matching control plane. *)
type snapshot = {
  s_mapdb : Mapdb.snapshot;
  s_membership : Membership.snapshot;
  s_directory : (string * Key.t) list;  (* sorted by name *)
  s_next_op : int;
  s_pending_ops : int list;  (* sorted *)
  s_retry_ops : int list;  (* sorted *)
  s_remote_ops : int list;  (* sorted *)
  s_completed_acks : int list;  (* sorted *)
  s_evictions : int;
  s_credits : (int * int * int) list;  (* peer, credits, queued sends; sorted *)
  s_batch : (int * int) list;  (* peer, queued batch sends; sorted *)
  (* peer, absorbed credit returns still owed, stashed acks; sorted *)
  s_batch_owed : (int * int * int list) list;
  s_vpes : int list;  (* managed VPE ids, sorted *)
}

let sorted_keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare

let snapshot t =
  {
    s_mapdb = Mapdb.snapshot t.mapdb;
    s_membership = Membership.snapshot t.membership;
    s_directory =
      Hashtbl.fold (fun name key acc -> (name, key) :: acc) t.directory []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    s_next_op = t.next_op;
    s_pending_ops = sorted_keys t.pending_ops;
    s_retry_ops = sorted_keys t.retry_msgs;
    s_remote_ops = sorted_keys t.remote_ops;
    s_completed_acks = sorted_keys t.completed_acks;
    s_evictions = Queue.length t.evictions;
    s_credits =
      Hashtbl.fold (fun peer (c, q) acc -> (peer, !c, Queue.length q) :: acc) t.credits []
      |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b);
    s_batch =
      Hashtbl.fold (fun peer bs acc -> (peer, Queue.length bs.bq) :: acc) t.batch_queues []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    s_batch_owed =
      Hashtbl.fold
        (fun peer o acc -> (peer, o.o_left, List.sort Int.compare o.o_acks) :: acc)
        t.batch_owed []
      |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b);
    s_vpes = sorted_keys t.vpes;
  }

let restore t s =
  (* The idempotency caches (remote ops, completed acks) and eviction
     queue are validated too: they only ever grow during traffic, so a
     control plane that handled syscalls since the snapshot is caught
     here even when its event queue drained back to the snapshot's
     shape — which the timer wheel's eager cancellation makes routine. *)
  if
    sorted_keys t.pending_ops <> s.s_pending_ops
    || sorted_keys t.retry_msgs <> s.s_retry_ops
    || sorted_keys t.remote_ops <> s.s_remote_ops
    || sorted_keys t.completed_acks <> s.s_completed_acks
    || Queue.length t.evictions <> s.s_evictions
  then
    invalid_arg
      "Kernel.restore: live control plane does not match the snapshot (pending operations are \
       restored only by whole-image checkpoints)";
  Mapdb.restore t.mapdb s.s_mapdb;
  Membership.restore t.membership s.s_membership;
  Hashtbl.reset t.directory;
  List.iter (fun (name, key) -> Hashtbl.replace t.directory name key) s.s_directory;
  t.next_op <- s.s_next_op;
  List.iter
    (fun (peer, credits, queued) ->
      match Hashtbl.find_opt t.credits peer with
      | Some (c, q) ->
        if Queue.length q <> queued then
          invalid_arg "Kernel.restore: queued credit-stalled sends do not match the snapshot";
        c := credits
      | None ->
        if queued <> 0 then
          invalid_arg "Kernel.restore: queued credit-stalled sends do not match the snapshot";
        Hashtbl.replace t.credits peer (ref credits, Queue.create ()))
    s.s_credits;
  (* Batch queues hold closures' worth of in-flight protocol state only
     via plain messages awaiting a flush tick; like credit queues they
     are validated, not rebuilt (whole-image checkpoints carry them). *)
  List.iter
    (fun (peer, queued) ->
      let live =
        match Hashtbl.find_opt t.batch_queues peer with
        | Some bs -> Queue.length bs.bq
        | None -> 0
      in
      if live <> queued then
        invalid_arg "Kernel.restore: queued batched sends do not match the snapshot")
    s.s_batch;
  (* Owed-credit state is plain data and restores fully. *)
  List.iter
    (fun (peer, left, acks) ->
      match Hashtbl.find_opt t.batch_owed peer with
      | Some o ->
        o.o_left <- left;
        o.o_acks <- acks
      | None -> Hashtbl.replace t.batch_owed peer { o_left = left; o_acks = acks })
    s.s_batch_owed

let lookup_service t name = Hashtbl.find_opt t.directory name

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let c t = t.cost

let fresh_op t =
  let n = t.next_op in
  t.next_op <- n + 1;
  (t.id * 0x1000000) + n

let owner_kernel t key = Membership.kernel_of_key t.membership key

let is_local_key t key = owner_kernel t key = t.id

(* Non-raising locality check for bookkeeping that must not trip over
   a partition whose records are mid-handoff (counted as remote). *)
let key_surely_local t key =
  match owner_kernel t key with
  | owner -> owner = t.id
  | exception Membership.Mid_handoff _ -> false

let mint_key t ~creator_pe ~creator_vpe ~kind =
  Key.make ~pe:creator_pe ~vpe:creator_vpe ~kind ~obj:(Mapdb.fresh_obj t.mapdb)

let job t f = Server.submit_work t.server f

(* Span events. No optional arguments, so a call boxes nothing; [-1]
   marks an absent op id or endpoint. *)
let trace_event t ~kind ~op ~src ~dst detail =
  Obs.Trace.emit t.trace ~ts:(Int64.to_int (Engine.now t.engine)) ~kind ~op ~src ~dst detail

(* An event whose detail is integers, rendered through [layout] only
   when the ring is read. *)
let trace_ints t ~kind ~op ~src ~dst layout a b c =
  Obs.Trace.emit_ints t.trace ~ts:(Int64.to_int (Engine.now t.engine)) ~kind ~op ~src ~dst layout
    a b c

let d_revoke_sweep = Obs.Trace.layout "deleted=%d"
let d_revoke_cont = Obs.Trace.layout "absorbed=%d marked=%d"
let d_revoke_mark = Obs.Trace.layout "marked=%d remote_msgs=%d"
let d_part_transfer = Obs.Trace.layout "pes=%d vpes=%d caps=%d"
let d_handoff_start = Obs.Trace.layout "pes=%d vpes=%d"

(* Operation id carried by an IKC, or -1 for untagged messages. *)
let ikc_op : P.ikc -> int = function
  | P.Ik_obtain_req { op; _ }
  | P.Ik_obtain_reply { op; _ }
  | P.Ik_delegate_req { op; _ }
  | P.Ik_delegate_reply { op; _ }
  | P.Ik_delegate_ack { op; _ }
  | P.Ik_open_sess_req { op; _ }
  | P.Ik_open_sess_reply { op; _ }
  | P.Ik_revoke_req { op; _ }
  | P.Ik_revoke_reply { op; _ }
  | P.Ik_migrate_ack { op }
  | P.Ik_remove_child { op; _ }
  | P.Ik_srv_announce { op; _ }
  | P.Ik_fleet_state { op; _ }
  | P.Ik_part_update { op; _ }
  | P.Ik_part_records { op; _ } ->
    op
  | P.Ik_batch _ -> -1

(* How long idempotency-cache entries must be kept: once the full retry
   budget plus slack has elapsed, no retransmission of the request (or
   redelivery of its reply) can still be in flight. *)
let retention t =
  Int64.add (retry_window t.cost) (Int64.mul 2L t.cost.Cost.retry_timeout)

(* Lazily drop expired idempotency-cache entries; called on kernel
   activity (syscall entry, IKC delivery) rather than from timers so
   drain-based measurements see no extra events. *)
let evict_expired t =
  let now = Engine.now t.engine in
  let continue = ref true in
  while !continue && not (Queue.is_empty t.evictions) do
    let expiry, key = Queue.peek t.evictions in
    if Int64.compare expiry now > 0 then continue := false
    else begin
      ignore (Queue.pop t.evictions);
      match key with
      | Ev_remote op -> (
        (* Only a finished op may be dropped: an in-progress entry is
           still the dedup guard for its request. *)
        match Hashtbl.find_opt t.remote_ops op with
        | Some (R_done _) -> Hashtbl.remove t.remote_ops op
        | Some R_in_progress | None -> ())
      | Ev_ack op -> Hashtbl.remove t.completed_acks op
    end
  done

(* The instruments cached under [name] in [tbl], registered by [make]
   on the name's first use. [make] is a top-level function, so a cache
   hit allocates nothing. *)
let resolve tbl t name make =
  match Hashtbl.find tbl name with
  | v -> v
  | exception Not_found ->
    let v = make t name in
    Hashtbl.add tbl name v;
    v

let syscall_latency_hist t name =
  Obs.Registry.histogram t.obs
    (Printf.sprintf "kernel%d.syscall_latency.%s" t.id name)
    ~buckets:latency_buckets

let ikc_instruments t name =
  let hist what buckets =
    Obs.Registry.histogram t.obs (Printf.sprintf "kernel%d.%s.%s" t.id what name) ~buckets
  in
  let ikc_latency = hist "ikc_latency" latency_buckets in
  { ikc_latency; ikc_retries = hist "ikc_retries" retry_buckets }

let cycles_since t start = Int64.to_int (Int64.sub (Engine.now t.engine) start)

let record_latency t (vpe : Vpe.t) =
  let h = resolve t.ctr.latencies t vpe.Vpe.syscall_name syscall_latency_hist in
  Obs.Registry.observe_int h (cycles_since t vpe.Vpe.syscall_start)

(* Syscall reply: message from the kernel PE back to the VPE's PE. *)
let send_reply t (vpe : Vpe.t) (r : P.reply) =
  Fabric.send t.fabric ~src:t.pe ~dst:vpe.Vpe.pe ~bytes:(c t).Cost.reply_bytes (fun () ->
      vpe.Vpe.syscall_pending <- false;
      record_latency t vpe;
      trace_event t ~kind:"syscall_exit" ~op:vpe.Vpe.span ~src:t.id ~dst:vpe.Vpe.id
        vpe.Vpe.syscall_name;
      match vpe.Vpe.reply_k with
      | Some k ->
        vpe.Vpe.reply_k <- None;
        k r
      | None -> ())

(* Reply and release the syscall thread. *)
let finish_syscall t vpe r =
  Thread_pool.release t.threads;
  send_reply t vpe r

(* ------------------------------------------------------------------ *)
(* Inter-kernel transport with in-flight limiting (paper §4.1)         *)

let credit_state t peer =
  match Hashtbl.find_opt t.credits peer with
  | Some s -> s
  | None ->
    let s = (ref Cost.max_inflight, Queue.create ()) in
    Hashtbl.add t.credits peer s;
    s

let rec transmit_ikc t ~dst (ikc : P.ikc) =
  match Hashtbl.find_opt t.registry dst with
  | None -> Log.err (fun m -> m "kernel %d: no peer kernel %d" t.id dst)
  | Some peer ->
    Obs.Registry.incr t.ctr.ikc_sent;
    trace_event t ~kind:"ikc_send" ~op:(ikc_op ikc) ~src:t.id ~dst (P.ikc_name ikc);
    (* A framed multi-message is one fabric transfer whose size grows
       with its payload, so coalescing still pays serialisation latency
       for every inner message — only per-message overheads amortise. *)
    let bytes =
      match ikc with
      | P.Ik_batch { msgs; _ } ->
        (c t).Cost.batch_header_bytes + (List.length msgs * (c t).Cost.ikc_bytes)
      (* A bulk partition handoff ships its record wave as one framed
         transfer sized like a batch: header plus one slot per record. *)
      | P.Ik_part_records { records; _ } ->
        (c t).Cost.batch_header_bytes + (max 1 (List.length records) * (c t).Cost.ikc_bytes)
      | _ -> (c t).Cost.ikc_bytes
    in
    Fabric.send_tagged t.fabric ~tag:(P.ikc_name ikc) ~src:t.pe ~dst:peer.pe ~bytes (fun () ->
        deliver_ikc peer ~src_kernel:t.id ikc)

(* Credit-gated dispatch: consume one in-flight credit or park the
   message until a credit returns (paper §5.1, four per peer pair). *)
and dispatch_ikc t ~dst ikc =
  let credits, queue = credit_state t dst in
  if !credits > 0 then begin
    decr credits;
    transmit_ikc t ~dst ikc
  end
  else begin
    Obs.Registry.incr t.ctr.credit_stalls;
    trace_event t ~kind:"credit_stall" ~op:(ikc_op ikc) ~src:t.id ~dst (P.ikc_name ikc);
    Queue.push (ikc, dst) queue
  end

(* DTU slot-window coalescing (batching mode). The leader of a wave —
   the first message to a peer with no window open — dispatches
   immediately and opens a [batch_window]-cycle window; followers queue
   and leave together as one framed [Ik_batch] when the flush tick
   fires. Leader-dispatches-immediately means an isolated message (the
   common case on a revocation chain) sees zero added latency. *)
and ikc_send t ~dst ikc =
  if dst = t.id then invalid_arg "Kernel.ikc_send: message to self";
  if Cost.batching (c t) then enqueue_batch t ~dst ikc else dispatch_ikc t ~dst ikc

and enqueue_batch t ~dst ikc =
  let bs =
    match Hashtbl.find_opt t.batch_queues dst with
    | Some bs -> bs
    | None ->
      let bs = { bq = Queue.create (); bw_until = Int64.min_int } in
      Hashtbl.add t.batch_queues dst bs;
      bs
  in
  if Int64.compare (Engine.now t.engine) bs.bw_until < 0 then Queue.push ikc bs.bq
  else begin
    dispatch_ikc t ~dst ikc;
    open_batch_window t ~dst bs
  end

and open_batch_window t ~dst bs =
  bs.bw_until <- Int64.add (Engine.now t.engine) (c t).Cost.batch_window;
  Engine.after t.engine (c t).Cost.batch_window (fun () -> flush_batch t ~dst bs)

and flush_batch t ~dst bs =
  match Queue.length bs.bq with
  | 0 -> ()  (* window closes; next message becomes a new leader *)
  | 1 ->
    dispatch_ikc t ~dst (Queue.pop bs.bq);
    open_batch_window t ~dst bs
  | n ->
    let msgs = List.rev (Queue.fold (fun acc m -> m :: acc) [] bs.bq) in
    Queue.clear bs.bq;
    Obs.Registry.incr t.ctr.batches_sent;
    Obs.Registry.add t.ctr.batched_msgs n;
    Obs.Registry.observe_int t.ctr.batch_occupancy n;
    dispatch_ikc t ~dst (P.Ik_batch { src_kernel = t.id; msgs });
    open_batch_window t ~dst bs

and receive_credit t ~peer =
  let credits, queue = credit_state t peer in
  if Queue.is_empty queue then begin
    (* Clamp at the §5.1 bound: a retransmission refund racing the
       original message's credit return (or a fault-injected duplicate
       returning credit twice) must not widen the window permanently. *)
    if !credits >= Cost.max_inflight then Obs.Registry.incr t.ctr.credit_overrefund
    else incr credits
  end
  else begin
    let ikc, dst = Queue.pop queue in
    transmit_ikc t ~dst ikc
  end

(* The DTU frees the message slot as soon as the kernel has fetched the
   message, which returns the sender's credit; we model that at the end
   of the first processing job for the message. [ack_op] piggybacks a
   delivery acknowledgement for an op-tagged notification on the credit
   message — the credit channel is never dropped or duplicated by fault
   plans, so the ack is reliable and costs no extra fabric transfer.
   For inner messages of an [Ik_batch] frame all but one credit return
   per frame is absorbed ([owed]); their acks are stashed and ride the
   next credit message to the same peer. *)
and return_credit ?ack_op t ~src_kernel =
  match Hashtbl.find_opt t.registry src_kernel with
  | None -> ()
  | Some peer -> (
    match Hashtbl.find_opt t.batch_owed src_kernel with
    | Some o when o.o_left > 0 ->
      o.o_left <- o.o_left - 1;
      (match ack_op with Some op -> o.o_acks <- op :: o.o_acks | None -> ())
    | _ ->
      let acks =
        match Hashtbl.find_opt t.batch_owed src_kernel with
        | Some o ->
          let stashed = o.o_acks in
          o.o_acks <- [];
          stashed
        | None -> []
      in
      let acks = match ack_op with Some op -> op :: acks | None -> acks in
      Fabric.send_tagged t.fabric ~tag:"credit" ~src:t.pe ~dst:peer.pe
        ~bytes:(c t).Cost.credit_bytes
        (fun () ->
          receive_credit peer ~peer:t.id;
          List.iter (fun op -> clear_retry peer op) acks))

(* ------------------------------------------------------------------ *)
(* Reliability: timeout-driven retransmission + duplicate detection.
   Op-tagged requests are retransmitted until their reply arrives (or
   the attempt budget runs out); responders answer redeliveries from a
   cache. Each retransmission refunds one credit first, on the
   assumption the lost message's credit was leaked with it — so bounded
   drops cannot wedge the in-flight window permanently. *)

(* The reliable unicast: send [msg] now and retransmit it until the
   reply (or delivery ack) for [op] clears it. *)
and send_retried t op ~dst msg =
  ikc_send t ~dst msg;
  register_retry t op ~dst msg

(* One revoke request of operation [rop], under its own message op
   (see [P_revoke_msg]). *)
and send_revoke_req t rop ~dst keys =
  let op = fresh_op t in
  Hashtbl.add t.pending_ops op (P_revoke_msg { rop });
  send_retried t op ~dst (P.Ik_revoke_req { op; src_kernel = t.id; keys })

(* Reliable unlink notification: drop [child_key] from its parent's
   child list at [dst]. *)
and send_unlink t ~dst ~parent_key ~child_key =
  let op = fresh_op t in
  send_retried t op ~dst (P.Ik_remove_child { op; parent_key; child_key })

and register_retry t op ~dst msg =
  let st = { rdst = dst; rmsg = msg; rstart = Engine.now t.engine; rattempts = 0; rtimer = None } in
  Hashtbl.replace t.retry_msgs op st;
  if (c t).Cost.retry_max > 0 then begin
    let rec tick () =
      match Hashtbl.find_opt t.retry_msgs op with
      | None -> ()
      | Some st ->
        st.rtimer <- None;
        if st.rattempts >= (c t).Cost.retry_max then begin
          (* Budget exhausted: stop retransmitting and fail the pending
             operation explicitly instead of leaving the syscall (and
             its kernel thread) parked forever. *)
          Hashtbl.remove t.retry_msgs op;
          Obs.Registry.incr t.ctr.retry_exhausted;
          trace_event t ~kind:"ikc_timeout" ~op ~src:t.id ~dst:st.rdst (P.ikc_name st.rmsg);
          fail_exhausted_op t op
        end
        else begin
          st.rattempts <- st.rattempts + 1;
          Obs.Registry.incr t.ctr.retries;
          trace_event t ~kind:"ikc_retry" ~op ~src:t.id ~dst:st.rdst (P.ikc_name st.rmsg);
          receive_credit t ~peer:st.rdst;
          ikc_send t ~dst:st.rdst st.rmsg;
          st.rtimer <-
            Some (Engine.after_cancellable t.engine (retry_interval (c t) st.rattempts) tick)
        end
    in
    st.rtimer <- Some (Engine.after_cancellable t.engine (retry_interval (c t) 0) tick)
  end

and clear_retry t op =
  match Hashtbl.find_opt t.retry_msgs op with
  | None -> ()
  | Some st ->
    Hashtbl.remove t.retry_msgs op;
    Option.iter (Engine.cancel t.engine) st.rtimer;
    let hs = resolve t.ctr.ikc_hists t (P.ikc_name st.rmsg) ikc_instruments in
    Obs.Registry.observe_int hs.ikc_latency (cycles_since t st.rstart);
    Obs.Registry.observe_int hs.ikc_retries st.rattempts

(* Retry budget exhausted for [op]: the peer is presumed unreachable.
   Requester-side operations answer the parked syscall with
   [E_timeout]; a responder-side delegate handshake aborts its
   uncommitted capability and releases the held thread; a revoke wave
   releases its outstanding count so the operation can complete. Late
   replies arriving after this hit the regular duplicate paths. *)
and fail_exhausted_op t op =
  match Hashtbl.find_opt t.pending_ops op with
  | None -> ()
  | Some (P_obtain { client }) ->
    Hashtbl.remove t.pending_ops op;
    finish_syscall t client (P.R_err P.E_timeout)
  | Some (P_delegate_src { client; _ }) ->
    Hashtbl.remove t.pending_ops op;
    finish_syscall t client (P.R_err P.E_timeout)
  | Some (P_open_sess { client; _ }) ->
    Hashtbl.remove t.pending_ops op;
    finish_syscall t client (P.R_err P.E_timeout)
  | Some (P_revoke_msg { rop }) ->
    Hashtbl.remove t.pending_ops op;
    revoke_release t rop
  | Some (P_delegate_dst { child_key; src_kernel; recv_vpe = _ }) ->
    (* The delegate ack never came: abort the half-open handshake. The
       provisional capability was never inserted into the receiver's
       capability space, so dropping its record suffices; best-effort
       unlink at the source. *)
    Hashtbl.remove t.pending_ops op;
    (match Mapdb.find t.mapdb child_key with
    | Some cap ->
      Mapdb.remove t.mapdb child_key;
      Obs.Registry.incr t.ctr.caps_deleted;
      (match cap.Cap.parent with
      | Some parent_key -> send_unlink t ~dst:src_kernel ~parent_key ~child_key
      | None -> ())
    | None -> ());
    Thread_pool.release t.threads
  | Some (P_part_caps { pc_done }) ->
    (* The destination never confirmed the install: the records are in
       limbo. Surface it loudly and release the caller — the audit layer
       will flag the leaked records. *)
    Hashtbl.remove t.pending_ops op;
    Log.err (fun m -> m "kernel %d: part_records exhausted retries; records lost" t.id);
    pc_done ()
  | Some (P_revoke _ | P_bcast _) ->
    (* Not retried through [register_retry]; nothing to fail. *)
    ()

(* Returns [true] when the request was seen before; credit is returned
   either way, and a finished op re-sends its cached reply. *)
and remote_dup t ~src_kernel ~op =
  match Hashtbl.find_opt t.remote_ops op with
  | None ->
    Hashtbl.replace t.remote_ops op R_in_progress;
    false
  | Some R_in_progress ->
    Obs.Registry.incr t.ctr.dup_ikc;
    return_credit t ~src_kernel;
    true
  | Some (R_done { dst; msg }) ->
    Obs.Registry.incr t.ctr.dup_ikc;
    return_credit t ~src_kernel;
    (* The requester retransmitted, so the cached reply may have been
       dropped — and a dropped reply leaks the credit it consumed,
       since replies ride the requester's retry loop instead of their
       own. Refund it before the resend, exactly like a register_retry
       retransmission; the window clamp absorbs the refund when the
       original reply actually survived. On a perfect fabric no reply
       is ever lost — the retransmission just outran a slow reply — so
       the refund stands down and the credit flow stays exactly the
       paper's. *)
    if Fabric.has_injector t.fabric then receive_credit t ~peer:dst;
    ikc_send t ~dst msg;
    true

(* Send the final reply for an op-tagged request and cache it for
   redeliveries. *)
and finish_remote t ~op ~dst msg =
  Hashtbl.replace t.remote_ops op (R_done { dst; msg });
  Queue.push (Int64.add (Engine.now t.engine) (retention t), Ev_remote op) t.evictions;
  ikc_send t ~dst msg

(* ------------------------------------------------------------------ *)
(* VPE interaction: the kernel asks the other party of an exchange      *)

(* Kernel -> VPE offer message, VPE-side processing, VPE -> kernel
   answer. The kernel thread suspends; the kernel PE itself stays free
   to serve other work (cooperative multithreading, §4.2). *)
and vpe_accept_roundtrip t (vpe : Vpe.t) k =
  Fabric.send t.fabric ~src:t.pe ~dst:vpe.Vpe.pe ~bytes:32 (fun () ->
      Engine.after t.engine (c t).Cost.vpe_accept (fun () ->
          Fabric.send t.fabric ~src:vpe.Vpe.pe ~dst:t.pe ~bytes:16 (fun () ->
              k vpe.Vpe.accept_exchange)))

(* Ask a local service; the handler charges time on the service's PE. *)
and service_upcall t ~srv_key req k =
  match Key.Table.find_opt t.services_by_key srv_key with
  | None -> k (P.Srs_reject P.E_no_such_service)
  | Some service -> service.srv_handler req k

(* ------------------------------------------------------------------ *)
(* Capability lookup helpers                                           *)

and resolve_sel t (vpe : Vpe.t) sel : (Cap.t, P.error) result =
  match Capspace.find vpe.Vpe.capspace sel with
  | None -> Error P.E_no_such_cap
  | Some key -> (
    match Mapdb.find t.mapdb key with
    | None -> Error P.E_no_such_cap
    | Some cap -> Ok cap)

and exchangeable (cap : Cap.t) : (Cap.t, P.error) result =
  if Cap.is_marked cap then Error P.E_in_revocation else Ok cap

(* Create a capability record, link it under [parent], and insert it
   into [owner]'s capability space. Returns the selector. *)
and create_linked_cap t ~(owner : Vpe.t) ~kind ~(parent : Cap.t option) ~key =
  let parent_key = Option.map (fun (p : Cap.t) -> p.Cap.key) parent in
  let cap = Cap.make ~key ~kind ~owner_vpe:owner.Vpe.id ?parent:parent_key () in
  Mapdb.insert t.mapdb cap;
  (match parent with Some p -> Mapdb.add_child t.mapdb ~parent:p.Cap.key key | None -> ());
  Obs.Registry.incr t.ctr.caps_created;
  Capspace.insert owner.Vpe.capspace key

(* ------------------------------------------------------------------ *)
(* Revocation: two-phase mark and sweep (Algorithm 1)                  *)

(* Phase 1: mark the local subtree under [key]; queue IKC revoke
   requests for remote children; wait on overlapping operations. Runs
   inside a server job — sends are deferred to [to_send]. *)
and mark_subtree t (op : revoke_op) ~to_send key =
  match Mapdb.find t.mapdb key with
  | None -> () (* already deleted: nothing left to do for this branch *)
  | Some cap -> (
    match cap.Cap.state with
    | Cap.Marked { revoke_op } when revoke_op = op.rop_id -> ()
    | Cap.Marked { revoke_op = _ } ->
      (* Overlapping revoke: the region is already marked by another
         operation. Marked capabilities are unusable (exchanges are
         denied, activation is refused, and their endpoints are
         invalidated at deletion), so access is already withdrawn and
         this operation need not wait — deletion is guaranteed by the
         marking operation. Waiting here instead (on whole-operation
         completion) can deadlock: concurrent multi-root revokes form
         wait cycles across kernels, whereas the paper's per-capability
         counters only ever wait along tree edges, which are acyclic. *)
      ()
    | Cap.Alive ->
      cap.Cap.state <- Cap.Marked { revoke_op = op.rop_id };
      op.marked <- key :: op.marked;
      Key.Table.replace op.marked_set key ();
      Mapdb.iter_children t.mapdb key (fun child_key ->
          op.links_seen <- op.links_seen + 1;
          match owner_kernel t child_key with
          | owner when owner = t.id -> mark_subtree t op ~to_send child_key
          | owner -> to_send := (owner, child_key) :: !to_send
          | exception Membership.Mid_handoff _ -> defer_revoke_child t op child_key))

(* A remote reply (or an overlapping operation we waited on) came in. *)
and revoke_release t (op : revoke_op) =
  op.outstanding <- op.outstanding - 1;
  if op.outstanding = 0 then complete_revoke t op

(* A child key's partition is mid-handoff: its records are in flight
   between kernels, so neither marking locally nor sending the revoke
   request can reach them yet. Hold the operation open (one outstanding
   unit) and re-resolve once the handoff completes — handoffs finish in
   bounded time because the record wave itself is op-tagged and
   retried. [root_unlink] carries the surviving root of a children-only
   revoke, recorded only if the child ends up remote (local children
   are unlinked by the sweep). *)
and defer_revoke_child t (op : revoke_op) ?root_unlink child_key =
  op.outstanding <- op.outstanding + 1;
  let rec retry () =
    match owner_kernel t child_key with
    | exception Membership.Mid_handoff _ -> Engine.after t.engine 200L retry
    | owner when owner = t.id ->
      (* The records landed here (this kernel was the handoff
         destination): mark the subtree like any other local branch,
         forwarding children it reveals on other kernels. *)
      job t (fun () ->
          let before = List.length op.marked in
          let to_send = ref [] in
          mark_subtree t op ~to_send child_key;
          let visited = List.length op.marked - before in
          let messages = List.rev_map (fun (dst, key) -> (dst, [ key ])) !to_send in
          op.outstanding <- op.outstanding + List.length messages;
          let cost =
            Int64.add
              (Int64.mul (Int64.of_int (List.length messages)) (c t).Cost.revoke_send)
              (Int64.add
                 (Int64.mul (Int64.of_int visited) (c t).Cost.revoke_per_cap)
                 (Cost.ddl (c t) visited))
          in
          ( cost,
            fun () ->
              List.iter (fun (dst, keys) -> send_revoke_req t op ~dst keys) messages;
              revoke_release t op ))
    | owner ->
      (* Resolved to another kernel: the outstanding unit held for the
         deferral now stands for this request's reply. *)
      (match root_unlink with
      | Some root -> op.root_unlinks <- (root, child_key) :: op.root_unlinks
      | None -> ());
      job t (fun () ->
          ( (c t).Cost.revoke_send,
            fun () -> send_revoke_req t op ~dst:owner [ child_key ] ))
  in
  Engine.after t.engine 200L retry

(* Phase 2: all outstanding replies drained — delete the marked region,
   unlink it from surviving parents, acknowledge. *)
and complete_revoke t (op : revoke_op) =
  job t (fun () ->
      let deleted = ref 0 in
      let remote_unlinks = ref [] in
      (* Children-only revoke: prune acknowledged remote children from
         their surviving roots. *)
      List.iter
        (fun (root_key, child_key) -> Mapdb.remove_child t.mapdb ~parent:root_key child_key)
        op.root_unlinks;
      let in_marked k =
        Obs.Registry.incr t.ctr.revoke_sweep_probes;
        Key.Table.mem op.marked_set k
      in
      List.iter
        (fun key ->
          match Mapdb.find t.mapdb key with
          | None -> ()
          | Some cap ->
            incr deleted;
            (* Unlink from a surviving parent: locally if we own it,
               via IKC if another kernel does. Parents that are being
               deleted by this same operation need no unlinking; a
               remote parent owned by the kernel that *requested* this
               revoke is itself in deletion there. *)
            (match cap.Cap.parent with
            | None -> ()
            | Some pk when in_marked pk -> ()
            (* A subtree root absorbed from a responder's [cont]: its
               remote parent was swept by that responder before it
               replied, so there is nothing left to unlink. *)
            | Some _ when Key.Table.mem op.cont_roots key -> ()
            | Some pk ->
              if is_local_key t pk then Mapdb.remove_child t.mapdb ~parent:pk key
              else begin
                let pk_kernel = owner_kernel t pk in
                let requested_by =
                  match op.origin with Ro_remote (k, _) -> k = pk_kernel | Ro_syscall _ | Ro_exit _ -> false
                in
                if not requested_by then
                  remote_unlinks := (pk_kernel, pk, key) :: !remote_unlinks
              end);
            (* Drop from the owner VPE's capability space. *)
            (match t.env.locate_vpe cap.Cap.owner_vpe with
            | Some owner -> Capspace.remove_key owner.Vpe.capspace key
            | None -> ());
            (* NoC-level isolation: a revoked gate or memory capability
               must stop working in hardware — invalidate the endpoint
               the kernel configured for it. *)
            (match Key.Table.find_opt t.activations key with
            | Some (pe, ep) ->
              Key.Table.remove t.activations key;
              (match Semper_dtu.Dtu.find t.grid ~pe with
              | dtu ->
                ignore
                  (Semper_dtu.Dtu.configure_remote
                     ~by:(Semper_dtu.Dtu.find t.grid ~pe:t.pe)
                     dtu ~ep `Invalidate)
              | exception Not_found -> ())
            | None -> ());
            Mapdb.remove t.mapdb key;
            Obs.Registry.incr t.ctr.caps_deleted)
        op.marked;
      (* For a children-only revoke the roots survive with their child
         lists already pruned by the unlinking above. *)
      let cost = Cost.ddl (c t) (2 * !deleted) in
      ( cost,
        fun () ->
          trace_ints t ~kind:"revoke_sweep" ~op:op.rop_id ~src:t.id ~dst:(-1) d_revoke_sweep
            !deleted 0 0;
          (* Op-tagged so a dropped unlink is retransmitted: before,
             one lost [Ik_remove_child] left a dangling remote child
             link that only the cross-kernel audit noticed. *)
          List.iter
            (fun (dst, parent_key, child_key) -> send_unlink t ~dst ~parent_key ~child_key)
            !remote_unlinks;
          Hashtbl.remove t.pending_ops op.rop_id;
          let waiters = op.on_complete in
          op.on_complete <- [];
          List.iter (fun k -> k ()) waiters;
          (match op.origin with
          | Ro_syscall vpe -> finish_syscall t vpe P.R_ok
          | Ro_exit vpe ->
            t.env.on_vpe_exit vpe;
            finish_syscall t vpe P.R_ok
          | Ro_remote (src_kernel, remote_op) ->
            finish_remote t ~op:remote_op ~dst:src_kernel
              (P.Ik_revoke_reply { op = remote_op; keys = op.roots; cont = op.cont_out }));
          (* The operation is finished: recycle its scratch sets. *)
          Pool.release t.keyset_pool op.marked_set;
          Pool.release t.keyset_pool op.cont_roots ))

(* The responder of one of our revoke requests handed back subtree
   roots we own (the reply's [cont] field, batching mode): absorb them
   into [op] as if their parents had been local. Holds one outstanding
   unit so the operation cannot complete while the absorption job is
   queued; the roots enter [cont_roots] so the sweep skips the unlink
   of their already-swept remote parents. *)
and absorb_continuation t (op : revoke_op) keys =
  op.outstanding <- op.outstanding + 1;
  job t (fun () ->
      let before = List.length op.marked in
      let to_send = ref [] in
      List.iter
        (fun key ->
          Key.Table.replace op.cont_roots key ();
          match owner_kernel t key with
          | owner when owner = t.id -> mark_subtree t op ~to_send key
          | owner -> to_send := (owner, key) :: !to_send
          | exception Membership.Mid_handoff _ -> defer_revoke_child t op key)
        keys;
      let visited = List.length op.marked - before in
      (* The handoff continues transitively: children owned by our own
         requester ride our eventual reply's [cont] in turn. *)
      let to_send =
        match op.origin with
        | Ro_remote (req_k, _) when Cost.batching (c t) ->
          let cont, rest = List.partition (fun (dst, _) -> dst = req_k) !to_send in
          op.cont_out <- List.rev_append (List.map snd cont) op.cont_out;
          rest
        | _ -> !to_send
      in
      let messages =
        Pool.with_ t.dstmap_pool (fun by_dst ->
            List.iter
              (fun (dst, key) ->
                let keys = try Hashtbl.find by_dst dst with Not_found -> [] in
                Hashtbl.replace by_dst dst (key :: keys))
              to_send;
            Hashtbl.fold (fun dst keys acc -> (dst, keys) :: acc) by_dst [])
      in
      op.outstanding <- op.outstanding + List.length messages;
      let cost =
        Int64.add
          (Int64.mul (Int64.of_int (List.length messages)) (c t).Cost.revoke_send)
          (Int64.add
             (Int64.mul (Int64.of_int visited) (c t).Cost.revoke_per_cap)
             (Cost.ddl (c t) visited))
      in
      ( cost,
        fun () ->
          trace_ints t ~kind:"revoke_cont" ~op:op.rop_id ~src:t.id ~dst:(-1) d_revoke_cont
            (List.length keys) visited 0;
          List.iter (fun (dst, keys) -> send_revoke_req t op ~dst keys) messages;
          revoke_release t op ))

(* Entry point for both revoke syscalls and incoming revoke requests.
   [base_cost] is the fixed processing charge for this trigger. *)
and start_revoke t ~origin ~roots ~own ~base_cost =
  let op =
    {
      rop_id = fresh_op t;
      roots;
      own;
      origin;
      outstanding = 0;
      marked = [];
      marked_set = Pool.acquire t.keyset_pool;
      links_seen = 0;
      root_unlinks = [];
      cont_out = [];
      cont_roots = Pool.acquire t.keyset_pool;
      on_complete = [];
    }
  in
  Hashtbl.add t.pending_ops op.rop_id (P_revoke op);
  job t (fun () ->
      let to_send = ref [] in
      List.iter
        (fun root ->
          match Mapdb.find t.mapdb root with
          | None -> ()
          | Some _ ->
            if own then mark_subtree t op ~to_send root
            else
              (* Children-only revoke: mark each child subtree but keep
                 the root capability itself. *)
              Mapdb.iter_children t.mapdb root (fun child_key ->
                  op.links_seen <- op.links_seen + 1;
                  match owner_kernel t child_key with
                  | owner when owner = t.id -> mark_subtree t op ~to_send child_key
                  | owner ->
                    (* The root survives this revoke, so the remote
                       child must be unlinked from it at completion. *)
                    op.root_unlinks <- (root, child_key) :: op.root_unlinks;
                    to_send := (owner, child_key) :: !to_send
                  | exception Membership.Mid_handoff _ ->
                    defer_revoke_child t op ~root_unlink:root child_key))
        roots;
      (* Requester handoff (batching mode): children owned by the
         kernel that requested this revoke ride back in the reply's
         [cont] field and get absorbed into the requester's own wave —
         one message (the reply we owe anyway) instead of a revoke
         request straight back plus its reply. On a kernel-spanning
         chain this halves both the messages and the round trips per
         link. *)
      let to_send =
        match op.origin with
        | Ro_remote (req_k, _) when Cost.batching (c t) ->
          let cont, rest = List.partition (fun (dst, _) -> dst = req_k) !to_send in
          op.cont_out <- List.rev_append (List.map snd cont) op.cont_out;
          rest
        | _ -> !to_send
      in
      (* One revoke request per remote child — or, with batching
         enabled (the paper's §5.2 improvement), one per destination
         kernel carrying all its children. The Barrelfish-style
         broadcast baseline instead messages *every* kernel, whether or
         not it holds descendants. *)
      let initiator =
        match op.origin with Ro_syscall _ | Ro_exit _ -> true | Ro_remote _ -> false
      in
      let messages =
        if Cost.broadcast (c t) && initiator then
          Pool.with_ t.dstmap_pool (fun by_dst ->
              Hashtbl.iter
                (fun kid _ -> if kid <> t.id then Hashtbl.replace by_dst kid [])
                t.registry;
              List.iter
                (fun (dst, key) ->
                  let keys = try Hashtbl.find by_dst dst with Not_found -> [] in
                  Hashtbl.replace by_dst dst (key :: keys))
                to_send;
              Hashtbl.fold (fun dst keys acc -> (dst, keys) :: acc) by_dst [])
        else if Cost.batching (c t) then
          Pool.with_ t.dstmap_pool (fun by_dst ->
              List.iter
                (fun (dst, key) ->
                  let keys = try Hashtbl.find by_dst dst with Not_found -> [] in
                  Hashtbl.replace by_dst dst (key :: keys))
                to_send;
              Hashtbl.fold (fun dst keys acc -> (dst, keys) :: acc) by_dst [])
        else List.rev_map (fun (dst, key) -> (dst, [ key ])) to_send
      in
      op.outstanding <- op.outstanding + List.length messages;
      let visited = List.length op.marked in
      let cost =
        Int64.add base_cost
          (Int64.add
             (Int64.mul (Int64.of_int (List.length messages)) (c t).Cost.revoke_send)
             (Int64.add
                (Int64.mul (Int64.of_int visited) (c t).Cost.revoke_per_cap)
                (Cost.ddl (c t) (visited + op.links_seen))))
      in
      ( cost,
        fun () ->
          trace_ints t ~kind:"revoke_mark" ~op:op.rop_id ~src:t.id ~dst:(-1) d_revoke_mark
            visited (List.length messages) 0;
          List.iter (fun (dst, keys) -> send_revoke_req t op ~dst keys) messages;
          if op.outstanding = 0 then complete_revoke t op ))

(* ------------------------------------------------------------------ *)
(* Obtain                                                              *)

(* Local obtain: donor capability and client managed by this kernel.
   [accept] asks the donor party; [parent_of_grant] resolves the donor
   capability after acceptance (it may have changed in the meantime). *)
and local_obtain t ~(client : Vpe.t) ~accept ~(parent_of_grant : unit -> (Cap.t * Cap.kind, P.error) result) =
  accept (fun decision ->
      match decision with
      | Error e -> finish_syscall t client (P.R_err e)
      | Ok () ->
        job t (fun () ->
            match
              if not (Vpe.is_alive client) then Error P.E_vpe_dead
              else Result.bind (parent_of_grant ()) (fun (p, kind) ->
                  Result.map (fun p -> (p, kind)) (exchangeable p))
            with
            | Error e -> ((c t).Cost.exchange_create, fun () -> finish_syscall t client (P.R_err e))
            | Ok (parent, kind) ->
              let key =
                mint_key t ~creator_pe:client.Vpe.pe ~creator_vpe:client.Vpe.id
                  ~kind:(Cap.kind_to_key_kind kind)
              in
              let sel = create_linked_cap t ~owner:client ~kind ~parent:(Some parent) ~key in
              Obs.Registry.incr t.ctr.exchanges_local;
              ( Int64.add (c t).Cost.exchange_create (Cost.ddl (c t) 3),
                fun () -> finish_syscall t client (P.R_sel sel) )))

(* Spanning obtain: forward to the donor's kernel, park the syscall. *)
and remote_obtain t ~(client : Vpe.t) ~dst_kernel ~donor =
  let op = fresh_op t in
  let obj_reserved = Mapdb.fresh_obj t.mapdb in
  Hashtbl.add t.pending_ops op (P_obtain { client });
  Obs.Registry.incr t.ctr.exchanges_spanning;
  let msg =
    P.Ik_obtain_req
      { op; src_kernel = t.id; obj_reserved; client_pe = client.Vpe.pe; client_vpe = client.Vpe.id; donor }
  in
  send_retried t op ~dst:dst_kernel msg

(* ------------------------------------------------------------------ *)
(* Syscall handling                                                    *)

and handle_syscall t (vpe : Vpe.t) (call : P.syscall) =
  let dispatch = (c t).Cost.syscall_dispatch in
  (* Capability-modifying operations, counted once per request — the
     unit of Table 4 in the paper. *)
  (match call with
  | P.Sys_alloc_mem _ | P.Sys_derive_mem _ | P.Sys_obtain _ | P.Sys_delegate _
  | P.Sys_obtain_from _ | P.Sys_delegate_to _ | P.Sys_revoke _ | P.Sys_create_sgate _
  | P.Sys_open_session _ ->
    Obs.Registry.incr t.ctr.cap_ops
  | P.Sys_create_vpe _ | P.Sys_create_srv _ | P.Sys_create_rgate _ | P.Sys_activate _ | P.Sys_exit
    ->
    ());
  match call with
  | P.Sys_create_vpe { on_pe } ->
    job t (fun () ->
        match
          match on_pe with
          | Some pe -> Some pe
          | None -> t.env.alloc_pe ~kernel:t.id
        with
        | None -> (Int64.add dispatch (c t).Cost.create_obj, fun () -> finish_syscall t vpe (P.R_err P.E_no_pe))
        | Some pe ->
          let nv = t.env.make_vpe ~pe ~kernel:t.id in
          let key = mint_key t ~creator_pe:vpe.Vpe.pe ~creator_vpe:vpe.Vpe.id ~kind:Key.Vpe_obj in
          let sel = create_linked_cap t ~owner:vpe ~kind:(Cap.Vpe_cap { vpe = nv.Vpe.id }) ~parent:None ~key in
          ( Int64.add dispatch (c t).Cost.create_obj,
            fun () -> finish_syscall t vpe (P.R_vpe { vpe = nv.Vpe.id; sel }) ))
  | P.Sys_create_srv { name } ->
    job t (fun () ->
        match Hashtbl.find_opt t.pending_handlers name with
        | None -> (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_no_such_service))
        | Some handler ->
          if Hashtbl.mem t.directory name then
            (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_invalid))
          else begin
            let key = mint_key t ~creator_pe:vpe.Vpe.pe ~creator_vpe:vpe.Vpe.id ~kind:Key.Srv_obj in
            let sel = create_linked_cap t ~owner:vpe ~kind:(Cap.Srv_cap { name }) ~parent:None ~key in
            let service = { srv_key = key; srv_vpe = vpe.Vpe.id; srv_handler = handler } in
            Hashtbl.replace t.local_services name service;
            Key.Table.replace t.services_by_key key service;
            Hashtbl.replace t.directory name key;
              ( Int64.add dispatch (c t).Cost.create_obj,
              fun () ->
                (* Announce to every other kernel (IKC group 1/2),
                   op-tagged per peer and retried until the delivery
                   ack (piggybacked on the credit return) comes back. *)
                Hashtbl.iter
                  (fun kid _ ->
                    if kid <> t.id then begin
                      let op = fresh_op t in
                      send_retried t op ~dst:kid
                        (P.Ik_srv_announce { op; name; srv_key = key; kernel = t.id })
                    end)
                  t.registry;
                finish_syscall t vpe (P.R_sel sel) )
          end)
  | P.Sys_create_rgate { ep; slots } ->
    job t (fun () ->
        let key = mint_key t ~creator_pe:vpe.Vpe.pe ~creator_vpe:vpe.Vpe.id ~kind:Key.Rgate_obj in
        let sel = create_linked_cap t ~owner:vpe ~kind:(Cap.Rgate_cap { ep; slots }) ~parent:None ~key in
        (Int64.add dispatch (c t).Cost.create_obj, fun () -> finish_syscall t vpe (P.R_sel sel)))
  | P.Sys_create_sgate { rgate; label } ->
    job t (fun () ->
        match Result.bind (resolve_sel t vpe rgate) exchangeable with
        | Error e -> (dispatch, fun () -> finish_syscall t vpe (P.R_err e))
        | Ok parent -> (
          match parent.Cap.kind with
          | Cap.Rgate_cap { ep; slots } ->
            let key = mint_key t ~creator_pe:vpe.Vpe.pe ~creator_vpe:vpe.Vpe.id ~kind:Key.Sgate_obj in
            (* Send credits match the receive gate's message slots. *)
            let kind =
              Cap.Sgate_cap { target_pe = vpe.Vpe.pe; target_ep = ep; label; credits = slots }
            in
            let sel = create_linked_cap t ~owner:vpe ~kind ~parent:(Some parent) ~key in
              ( Int64.add (Int64.add dispatch (c t).Cost.create_obj) (Cost.ddl (c t) 1),
              fun () -> finish_syscall t vpe (P.R_sel sel) )
          | Cap.Vpe_cap _ | Cap.Mem_cap _ | Cap.Srv_cap _ | Cap.Sess_cap _ | Cap.Sgate_cap _
          | Cap.Kernel_cap _ ->
            (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_invalid))))
  | P.Sys_alloc_mem { size; perms } ->
    job t (fun () ->
        if Int64.compare size 0L <= 0 then
          (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_invalid))
        else begin
          let key = mint_key t ~creator_pe:vpe.Vpe.pe ~creator_vpe:vpe.Vpe.id ~kind:Key.Mem_obj in
          (* Backing store is modelled on the kernel's group tile. *)
          let kind = Cap.Mem_cap { host_pe = t.pe; addr = 0L; size; perms } in
          let sel = create_linked_cap t ~owner:vpe ~kind ~parent:None ~key in
          (Int64.add dispatch (c t).Cost.create_obj, fun () -> finish_syscall t vpe (P.R_sel sel))
        end)
  | P.Sys_derive_mem { sel; offset; size; perms } ->
    job t (fun () ->
        match Result.bind (resolve_sel t vpe sel) exchangeable with
        | Error e -> (dispatch, fun () -> finish_syscall t vpe (P.R_err e))
        | Ok parent -> (
          match parent.Cap.kind with
          | Cap.Mem_cap m ->
            if
              Int64.compare offset 0L < 0
              || Int64.compare size 0L <= 0
              || Int64.compare (Int64.add offset size) m.size > 0
              || not (Semper_caps.Perms.subset perms ~of_:m.perms)
            then (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_invalid))
            else begin
              let key = mint_key t ~creator_pe:vpe.Vpe.pe ~creator_vpe:vpe.Vpe.id ~kind:Key.Mem_obj in
              let kind =
                Cap.Mem_cap { host_pe = m.host_pe; addr = Int64.add m.addr offset; size; perms }
              in
              let sel' = create_linked_cap t ~owner:vpe ~kind ~parent:(Some parent) ~key in
                  Obs.Registry.incr t.ctr.exchanges_local;
              ( Int64.add (Int64.add dispatch (c t).Cost.exchange_create) (Cost.ddl (c t) 2),
                fun () -> finish_syscall t vpe (P.R_sel sel') )
            end
          | Cap.Vpe_cap _ | Cap.Rgate_cap _ | Cap.Srv_cap _ | Cap.Sess_cap _ | Cap.Sgate_cap _
          | Cap.Kernel_cap _ ->
            (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_invalid))))
  | P.Sys_open_session { service } ->
    job t (fun () ->
        match Hashtbl.find_opt t.directory service with
        | None -> (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_no_such_service))
        | Some srv_key ->
          let srv_kernel = owner_kernel t srv_key in
          let cost = Int64.add dispatch (Cost.ddl (c t) 1) in
          if srv_kernel = t.id then
            ( cost,
              fun () ->
                service_upcall t ~srv_key (P.Srq_open_session { client_vpe = vpe.Vpe.id }) (fun resp ->
                    job t (fun () ->
                        match resp with
                        | P.Srs_session { ident } -> (
                          match Mapdb.find t.mapdb srv_key with
                          | None ->
                            ((c t).Cost.session_open, fun () -> finish_syscall t vpe (P.R_err P.E_no_such_service))
                          | Some srv_cap ->
                            let key =
                              mint_key t ~creator_pe:vpe.Vpe.pe ~creator_vpe:vpe.Vpe.id ~kind:Key.Sess_obj
                            in
                            let kind = Cap.Sess_cap { srv = srv_key; ident } in
                            let sel = create_linked_cap t ~owner:vpe ~kind ~parent:(Some srv_cap) ~key in
                                              ( Int64.add (c t).Cost.session_open (Cost.ddl (c t) 1),
                              fun () -> finish_syscall t vpe (P.R_sess { sel; ident }) ))
                        | P.Srs_reject e -> ((c t).Cost.session_open, fun () -> finish_syscall t vpe (P.R_err e))
                        | P.Srs_grant _ | P.Srs_accept ->
                          ((c t).Cost.session_open, fun () -> finish_syscall t vpe (P.R_err P.E_invalid)))) )
          else begin
            (* Cross-group session (Figure 3, sequence B). *)
            let sess_key = mint_key t ~creator_pe:vpe.Vpe.pe ~creator_vpe:vpe.Vpe.id ~kind:Key.Sess_obj in
            let op = fresh_op t in
            Hashtbl.add t.pending_ops op (P_open_sess { client = vpe; sess_key; srv_key; srv_kernel });
            ( Int64.add cost (c t).Cost.session_open,
              fun () ->
                let msg =
                  P.Ik_open_sess_req { op; src_kernel = t.id; srv_key; sess_key; client_vpe = vpe.Vpe.id }
                in
                send_retried t op ~dst:srv_kernel msg )
          end)
  | P.Sys_obtain { sess; args } ->
    job t (fun () ->
        match Result.bind (resolve_sel t vpe sess) exchangeable with
        | Error e -> (dispatch, fun () -> finish_syscall t vpe (P.R_err e))
        | Ok sess_cap -> (
          match sess_cap.Cap.kind with
          | Cap.Sess_cap { srv; ident } ->
            let srv_kernel = owner_kernel t srv in
            let cost = Int64.add dispatch (Cost.ddl (c t) 1) in
            if srv_kernel = t.id then
              ( cost,
                fun () ->
                  let accept k =
                    service_upcall t ~srv_key:srv (P.Srq_obtain { ident; args }) (fun resp ->
                        match resp with
                        | P.Srs_grant { parent; kind } -> k (Ok (parent, kind))
                        | P.Srs_reject e -> k (Error e)
                        | P.Srs_session _ | P.Srs_accept -> k (Error P.E_invalid))
                  in
                  let granted = ref None in
                  local_obtain t ~client:vpe
                    ~accept:(fun k ->
                      accept (fun r ->
                          match r with
                          | Ok g ->
                            granted := Some g;
                            k (Ok ())
                          | Error e -> k (Error e)))
                    ~parent_of_grant:(fun () ->
                      match !granted with
                      | None -> Error P.E_invalid
                      | Some (parent_key, kind) -> (
                        match Mapdb.find t.mapdb parent_key with
                        | None -> Error P.E_no_such_cap
                        | Some p -> Ok (p, kind))) )
            else begin
                  ( Int64.add cost (c t).Cost.exchange_forward,
                fun () ->
                  remote_obtain t ~client:vpe ~dst_kernel:srv_kernel
                    ~donor:(P.Via_session { srv_key = srv; ident; args }) )
            end
          | Cap.Vpe_cap _ | Cap.Mem_cap _ | Cap.Srv_cap _ | Cap.Rgate_cap _ | Cap.Sgate_cap _
          | Cap.Kernel_cap _ ->
            (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_no_such_session))))
  | P.Sys_obtain_from { donor_vpe; donor_sel } ->
    job t (fun () ->
        match t.env.locate_vpe donor_vpe with
        | None -> (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_no_such_vpe))
        | Some donor when not (Vpe.is_alive donor) ->
          (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_vpe_dead))
        | Some donor ->
          if donor.Vpe.kernel = t.id then
            ( dispatch,
              fun () ->
                      local_obtain t ~client:vpe
                  ~accept:(fun k ->
                    vpe_accept_roundtrip t donor (fun accepted ->
                        k (if accepted then Ok () else Error P.E_denied)))
                  ~parent_of_grant:(fun () ->
                    Result.map
                      (fun (cap : Cap.t) -> (cap, cap.Cap.kind))
                      (resolve_sel t donor donor_sel)) )
          else begin
              ( Int64.add (Int64.add dispatch (c t).Cost.exchange_forward) (Cost.ddl (c t) 1),
              fun () ->
                remote_obtain t ~client:vpe ~dst_kernel:donor.Vpe.kernel
                  ~donor:(P.Direct { donor_vpe; donor_sel }) )
          end)
  | P.Sys_delegate_to { recv_vpe; sel } ->
    job t (fun () ->
        match Result.bind (resolve_sel t vpe sel) exchangeable with
        | Error e -> (dispatch, fun () -> finish_syscall t vpe (P.R_err e))
        | Ok src_cap -> (
          match t.env.locate_vpe recv_vpe with
          | None -> (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_no_such_vpe))
          | Some recv when not (Vpe.is_alive recv) ->
            (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_vpe_dead))
          | Some recv ->
              if recv.Vpe.kernel = t.id then
              ( Int64.add dispatch (Cost.ddl (c t) 1),
                fun () -> local_delegate t ~client:vpe ~src_key:src_cap.Cap.key ~recv )
            else begin
              let op = fresh_op t in
              Hashtbl.add t.pending_ops op
                (P_delegate_src { client = vpe; src_key = src_cap.Cap.key; dst_kernel = recv.Vpe.kernel });
              Obs.Registry.incr t.ctr.exchanges_spanning;
              ( Int64.add (Int64.add dispatch (c t).Cost.exchange_forward) (Cost.ddl (c t) 1),
                fun () ->
                  let msg =
                    P.Ik_delegate_req
                      {
                        op;
                        src_kernel = t.id;
                        parent_key = src_cap.Cap.key;
                        kind = src_cap.Cap.kind;
                        recv = P.Recv_vpe recv_vpe;
                      }
                  in
                  send_retried t op ~dst:recv.Vpe.kernel msg )
            end))
  | P.Sys_delegate { sess; sel; args } ->
    job t (fun () ->
        match Result.bind (resolve_sel t vpe sess) exchangeable with
        | Error e -> (dispatch, fun () -> finish_syscall t vpe (P.R_err e))
        | Ok sess_cap -> (
          match sess_cap.Cap.kind with
          | Cap.Sess_cap { srv; ident } -> (
            match Result.bind (resolve_sel t vpe sel) exchangeable with
            | Error e -> (dispatch, fun () -> finish_syscall t vpe (P.R_err e))
            | Ok src_cap ->
              let srv_kernel = owner_kernel t srv in
                  if srv_kernel = t.id then
                ( Int64.add dispatch (Cost.ddl (c t) 1),
                  fun () ->
                    service_upcall t ~srv_key:srv
                      (P.Srq_delegate { ident; args; kind = src_cap.Cap.kind })
                      (fun resp ->
                        match resp with
                        | P.Srs_accept -> (
                          match Key.Table.find_opt t.services_by_key srv with
                          | None -> finish_syscall t vpe (P.R_err P.E_no_such_service)
                          | Some service -> (
                            match t.env.locate_vpe service.srv_vpe with
                            | None -> finish_syscall t vpe (P.R_err P.E_no_such_vpe)
                            | Some recv -> local_delegate t ~client:vpe ~src_key:src_cap.Cap.key ~recv))
                        | P.Srs_reject e -> finish_syscall t vpe (P.R_err e)
                        | P.Srs_session _ | P.Srs_grant _ -> finish_syscall t vpe (P.R_err P.E_invalid)) )
              else begin
                let op = fresh_op t in
                Hashtbl.add t.pending_ops op
                  (P_delegate_src { client = vpe; src_key = src_cap.Cap.key; dst_kernel = srv_kernel });
                Obs.Registry.incr t.ctr.exchanges_spanning;
                ( Int64.add (Int64.add dispatch (c t).Cost.exchange_forward) (Cost.ddl (c t) 1),
                  fun () ->
                    let msg =
                      P.Ik_delegate_req
                        {
                          op;
                          src_kernel = t.id;
                          parent_key = src_cap.Cap.key;
                          kind = src_cap.Cap.kind;
                          recv = P.Recv_service { srv_key = srv; ident; args };
                        }
                    in
                    send_retried t op ~dst:srv_kernel msg )
              end)
          | Cap.Vpe_cap _ | Cap.Mem_cap _ | Cap.Srv_cap _ | Cap.Rgate_cap _ | Cap.Sgate_cap _
          | Cap.Kernel_cap _ ->
            (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_no_such_session))))
  | P.Sys_revoke { sel; own } ->
    job t (fun () ->
        match resolve_sel t vpe sel with
        | Error e -> (dispatch, fun () -> finish_syscall t vpe (P.R_err e))
        | Ok cap -> (
          let spanning =
            Mapdb.exists_child t.mapdb cap.Cap.key (fun k -> not (key_surely_local t k))
          in
          if spanning then Obs.Registry.incr t.ctr.revokes_spanning
          else Obs.Registry.incr t.ctr.revokes_local;
          match cap.Cap.state with
          | Cap.Marked { revoke_op } -> (
            (* Already being revoked: wait for that operation, then
               acknowledge (no incomplete acks, no duplicate work). *)
            match Hashtbl.find_opt t.pending_ops revoke_op with
            | Some (P_revoke other) ->
              ( dispatch,
                fun () ->
                  other.on_complete <- (fun () -> finish_syscall t vpe P.R_ok) :: other.on_complete )
            | Some
                ( P_obtain _ | P_delegate_src _ | P_delegate_dst _ | P_open_sess _ | P_revoke_msg _
                | P_bcast _ | P_part_caps _ )
            | None ->
              (dispatch, fun () -> finish_syscall t vpe P.R_ok))
          | Cap.Alive ->
            ( Int64.add dispatch (Cost.ddl (c t) 1),
              fun () ->
                start_revoke t ~origin:(Ro_syscall vpe) ~roots:[ cap.Cap.key ] ~own
                  ~base_cost:(c t).Cost.revoke_start )))
  | P.Sys_activate { sel; ep } ->
    job t (fun () ->
        match Result.bind (resolve_sel t vpe sel) exchangeable with
        | Error e -> (dispatch, fun () -> finish_syscall t vpe (P.R_err e))
        | Ok cap ->
          let target = Semper_dtu.Dtu.find t.grid ~pe:vpe.Vpe.pe in
          let by = Semper_dtu.Dtu.find t.grid ~pe:t.pe in
          let config =
            match cap.Cap.kind with
            | Cap.Sgate_cap { target_pe; target_ep; label = _; credits } ->
              Some (`Send (target_pe, target_ep, credits))
            | Cap.Rgate_cap { ep = _; slots } ->
              (* Deliver into the owning VPE's inbox: the app-visible
                 end of the channel. *)
              Some (`Receive (slots, fun msg -> Queue.push msg vpe.Vpe.inbox))
            | Cap.Mem_cap { host_pe; addr; size; perms } ->
              Some (`Memory (host_pe, addr, size, perms.Semper_caps.Perms.write))
            | Cap.Vpe_cap _ | Cap.Srv_cap _ | Cap.Sess_cap _ | Cap.Kernel_cap _ -> None
          in
          (match config with
          | None -> (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_invalid))
          | Some config -> (
            match Semper_dtu.Dtu.configure_remote ~by target ~ep config with
            | Ok () ->
              (* Remember the binding: revoking the capability must
                 invalidate the endpoint. *)
              Key.Table.replace t.activations cap.Cap.key (vpe.Vpe.pe, ep);
              (Int64.add dispatch (c t).Cost.activate, fun () -> finish_syscall t vpe P.R_ok)
            | Error _ -> (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_invalid)))))
  | P.Sys_exit ->
    job t (fun () ->
        vpe.Vpe.state <- Vpe.Exited;
        let roots = ref [] in
        Capspace.iter (fun _sel key -> roots := key :: !roots) vpe.Vpe.capspace;
        (* Only roots we host can be revoked here; each capability of a
           VPE is hosted at its managing kernel, so that is all of them. *)
        ( dispatch,
          fun () ->
            start_revoke t ~origin:(Ro_exit vpe) ~roots:!roots ~own:true
              ~base_cost:(c t).Cost.revoke_start ))

(* Local delegate: create the child under the receiver, no handshake
   needed since a single kernel serialises everything. *)
and local_delegate t ~(client : Vpe.t) ~src_key ~(recv : Vpe.t) =
  vpe_accept_roundtrip t recv (fun accepted ->
      job t (fun () ->
          if not accepted then
            ((c t).Cost.exchange_create, fun () -> finish_syscall t client (P.R_err P.E_denied))
          else
            match
              match Mapdb.find t.mapdb src_key with
              | None -> Error P.E_no_such_cap
              | Some cap -> exchangeable cap
            with
            | Error e -> ((c t).Cost.exchange_create, fun () -> finish_syscall t client (P.R_err e))
            | Ok src_cap ->
              if not (Vpe.is_alive recv) then
                ((c t).Cost.exchange_create, fun () -> finish_syscall t client (P.R_err P.E_vpe_dead))
              else begin
                let key =
                  mint_key t ~creator_pe:recv.Vpe.pe ~creator_vpe:recv.Vpe.id
                    ~kind:(Cap.kind_to_key_kind src_cap.Cap.kind)
                in
                let _sel = create_linked_cap t ~owner:recv ~kind:src_cap.Cap.kind ~parent:(Some src_cap) ~key in
                Obs.Registry.incr t.ctr.exchanges_local;
                ( Int64.add (c t).Cost.exchange_create (Cost.ddl (c t) 3),
                  fun () -> finish_syscall t client P.R_ok )
              end))

(* ------------------------------------------------------------------ *)
(* Inter-kernel call handling                                          *)

and deliver_ikc t ~src_kernel (ikc : P.ikc) =
  evict_expired t;
  Obs.Registry.observe_int t.ctr.queue_depth (Server.queue_length t.server);
  Obs.Registry.incr t.ctr.ikc_received;
  trace_event t ~kind:"ikc_recv" ~op:(ikc_op ikc) ~src:src_kernel ~dst:t.id (P.ikc_name ikc);
  match ikc with
  | P.Ik_obtain_req { op; src_kernel = origin; obj_reserved; client_pe; client_vpe; donor } ->
    if remote_dup t ~src_kernel ~op then ()
    else
      Thread_pool.acquire t.threads (fun () ->
          job t (fun () ->
              let cost = Int64.add (c t).Cost.exchange_remote (Cost.ddl (c t) 2) in
              ( cost,
                fun () ->
                  return_credit t ~src_kernel;
                  handle_obtain_req t ~origin ~op ~obj_reserved ~client_pe ~client_vpe ~donor )))
  | P.Ik_obtain_reply { op; result } ->
    job t (fun () ->
        let cost = Int64.add (c t).Cost.exchange_create (Cost.ddl (c t) 2) in
        ( cost,
          fun () ->
            return_credit t ~src_kernel;
            handle_obtain_reply t ~op ~result ))
  | P.Ik_delegate_req { op; src_kernel = origin; parent_key; kind; recv } ->
    if remote_dup t ~src_kernel ~op then ()
    else
      Thread_pool.acquire t.threads (fun () ->
          job t (fun () ->
              let cost = Int64.add (c t).Cost.exchange_remote (Cost.ddl (c t) 1) in
              ( cost,
                fun () ->
                  return_credit t ~src_kernel;
                  handle_delegate_req t ~origin ~op ~parent_key ~kind ~recv )))
  | P.Ik_delegate_reply { op; result } ->
    job t (fun () ->
        let cost = Int64.add (c t).Cost.exchange_create (Cost.ddl (c t) 2) in
        ( cost,
          fun () ->
            return_credit t ~src_kernel;
            handle_delegate_reply t ~op ~result ))
  | P.Ik_delegate_ack { op; child_key; commit } ->
    job t (fun () ->
        ( Cost.ddl (c t) 1,
          fun () ->
            return_credit t ~src_kernel;
            handle_delegate_ack t ~op ~child_key ~commit ))
  | P.Ik_open_sess_req { op; src_kernel = origin; srv_key; sess_key; client_vpe } ->
    if remote_dup t ~src_kernel ~op then ()
    else
      Thread_pool.acquire t.threads (fun () ->
          job t (fun () ->
              ( (c t).Cost.session_open,
                fun () ->
                  return_credit t ~src_kernel;
                  handle_open_sess_req t ~origin ~op ~srv_key ~sess_key ~client_vpe )))
  | P.Ik_open_sess_reply { op; result } ->
    job t (fun () ->
        ( Int64.add (c t).Cost.session_open (Cost.ddl (c t) 1),
          fun () ->
            return_credit t ~src_kernel;
            handle_open_sess_reply t ~op ~result ))
  | P.Ik_revoke_req { op; src_kernel = origin; keys } ->
    if remote_dup t ~src_kernel ~op then ()
    else
      (* Handled without pausing a thread (Algorithm 1). *)
      return_credit_after_dispatch t ~src_kernel (fun () ->
        let base_cost =
          if Cost.broadcast (c t) then
            (* No explicit relations: scan the whole mapping database. *)
            Int64.add (c t).Cost.revoke_request
              (Int64.mul (Int64.of_int (Mapdb.count t.mapdb)) (c t).Cost.revoke_scan_per_cap)
          else (c t).Cost.revoke_request
        in
        start_revoke t ~origin:(Ro_remote (origin, op)) ~roots:keys ~own:true ~base_cost)
  | P.Ik_revoke_reply { op; keys = _; cont } ->
    job t (fun () ->
        ( (c t).Cost.revoke_reply,
          fun () ->
            return_credit t ~src_kernel;
            (match Hashtbl.find_opt t.pending_ops op with
            | Some (P_revoke_msg { rop }) ->
              Hashtbl.remove t.pending_ops op;
              clear_retry t op;
              (* Absorb handed-back subtree roots before releasing the
                 outstanding unit, so the operation cannot complete
                 with the continuation still pending. *)
              if cont <> [] then absorb_continuation t rop cont;
              revoke_release t rop
            | Some (P_revoke rop) -> revoke_release t rop
            | Some
                ( P_obtain _ | P_delegate_src _ | P_delegate_dst _ | P_open_sess _ | P_bcast _
                | P_part_caps _ )
            | None ->
              (* Redelivered reply for a message op already retired. *)
              Obs.Registry.incr t.ctr.dup_ikc) ))
  | P.Ik_remove_child { op; parent_key; child_key } ->
    job t (fun () ->
        ( Cost.ddl (c t) 2,
          fun () ->
            (* Idempotent notification: a redelivery re-runs the unlink
               (a no-op on an already-pruned parent), and the delivery
               ack piggybacks on the credit return to stop the sender's
               retransmission timer. *)
            return_credit t ~ack_op:op ~src_kernel;
            Mapdb.remove_child t.mapdb ~parent:parent_key child_key ))
  | P.Ik_migrate_ack { op } ->
    job t (fun () ->
        ( 100L,
          fun () ->
            return_credit t ~src_kernel;
            (match Hashtbl.find_opt t.pending_ops op with
            | Some (P_bcast b) ->
              (* Acks are deduplicated by sender: a redelivered ack from
                 an already-counted peer must not skip a pending one. *)
              if Hashtbl.mem b.b_peers src_kernel then begin
                Hashtbl.remove b.b_peers src_kernel;
                if Hashtbl.length b.b_peers = 0 then begin
                  Hashtbl.remove t.pending_ops op;
                  Option.iter (Engine.cancel t.engine) b.b_timer;
                  b.b_timer <- None;
                  b.b_done ()
                end
              end
              else Obs.Registry.incr t.ctr.dup_ikc
            | Some (P_part_caps { pc_done }) ->
              (* The destination installed the partition wave. *)
              Hashtbl.remove t.pending_ops op;
              clear_retry t op;
              pc_done ()
            | Some
                ( P_obtain _ | P_delegate_src _ | P_delegate_dst _ | P_open_sess _ | P_revoke _
                | P_revoke_msg _ )
            | None ->
              (* Redelivered ack after the broadcast or wave completed. *)
              Obs.Registry.incr t.ctr.dup_ikc) ))
  | P.Ik_srv_announce { op; name; srv_key; kernel = _ } ->
    job t (fun () ->
        ( 100L,
          fun () ->
            (* Idempotent directory write; the ack rides the credit
               return so the announcing kernel stops retransmitting.
               Before this the announce was fire-and-forget: one drop
               and every open_sess routed here failed forever. *)
            return_credit t ~ack_op:op ~src_kernel;
            Hashtbl.replace t.directory name srv_key ))
  | P.Ik_fleet_state { op; src_kernel = origin; kernel; state } ->
    if remote_dup t ~src_kernel ~op then ()
    else
      job t (fun () ->
          ( 100L,
            fun () ->
              return_credit t ~src_kernel;
              (* Idempotent replica write: redeliveries re-record the same
                 state. *)
              Membership.set_kernel_state t.membership ~kernel state;
              finish_remote t ~op ~dst:origin (P.Ik_migrate_ack { op }) ))
  | P.Ik_part_update { op; src_kernel = origin; pes; new_kernel } ->
    if remote_dup t ~src_kernel ~op then ()
    else
      job t (fun () ->
          ( Int64.mul (Int64.of_int (max 1 (List.length pes))) 200L,
            fun () ->
              return_credit t ~src_kernel;
              (if new_kernel = t.id then
                 (* Destination of the handoff: mark every PE mid-handoff
                    instead of reassigning — lookups must not route here
                    until the records actually arrive (Ik_part_records).
                    The guards keep a redelivered update idempotent. *)
                 List.iter
                   (fun pe ->
                     if
                       (not (Membership.in_handoff t.membership pe))
                       && (try Membership.kernel_of_pe t.membership pe <> t.id
                           with Not_found -> false)
                     then Membership.begin_handoff t.membership ~pe)
                   pes
               else begin
                 (* Bystander replica: any PE this replica still holds
                    mid-handoff (it was the destination of an earlier
                    move) completes to the new owner; the rest flip as
                    one atomic bulk reassignment. *)
                 let marked, unmarked =
                   List.partition (fun pe -> Membership.in_handoff t.membership pe) pes
                 in
                 List.iter
                   (fun pe -> Membership.complete_handoff t.membership ~pe ~kernel:new_kernel)
                   marked;
                 Membership.reassign_partition t.membership ~pes:unmarked ~kernel:new_kernel
               end);
              finish_remote t ~op ~dst:origin (P.Ik_migrate_ack { op }) ))
  | P.Ik_part_records { op; src_kernel = origin; pes; vpes = vids; records } ->
    if remote_dup t ~src_kernel ~op then ()
    else
      job t (fun () ->
          (* Installing the wave costs time proportional to the records
             carried. *)
          ( Int64.mul (Int64.of_int (max 1 (List.length records))) 150L,
            fun () ->
              return_credit t ~src_kernel;
              List.iter
                (fun (r : P.migrated_cap) ->
                  let cap =
                    Cap.make ~key:r.P.m_key ~kind:r.P.m_kind ~owner_vpe:r.P.m_owner
                      ?parent:r.P.m_parent ()
                  in
                  (* Future keys minted here must not collide with object
                     ids allocated by the previous owning kernel. *)
                  Mapdb.bump_obj t.mapdb (Key.obj r.P.m_key);
                  Mapdb.insert t.mapdb cap;
                  Mapdb.set_children t.mapdb r.P.m_key r.P.m_children)
                records;
              (* The partitions' VPEs are ours now. *)
              List.iter
                (fun vid ->
                  match t.env.locate_vpe vid with
                  | Some vpe ->
                    Hashtbl.replace t.vpes vid vpe;
                    Thread_pool.add_vpe_thread t.threads;
                    vpe.Vpe.frozen <- false
                  | None -> Log.err (fun m -> m "kernel %d: handed-off VPE %d unknown" t.id vid))
                vids;
              (* Only now can lookups route here: end every PE's handoff
                 window (fall back to a plain reassign when a test ships
                 the wave without a preceding update). *)
              List.iter
                (fun pe ->
                  if Membership.in_handoff t.membership pe then
                    Membership.complete_handoff t.membership ~pe ~kernel:t.id
                  else if
                    try Membership.kernel_of_pe t.membership pe <> t.id with Not_found -> true
                  then Membership.reassign t.membership ~pe ~kernel:t.id)
                pes;
              finish_remote t ~op ~dst:origin (P.Ik_migrate_ack { op }) ))
  | P.Ik_batch { src_kernel = _; msgs } ->
    (* The frame consumed ONE sender credit, yet each inner delivery
       returns one: record the surplus so [return_credit] absorbs all
       but one return per frame (their piggybacked acks ride the credit
       message that does go out). *)
    let o =
      match Hashtbl.find_opt t.batch_owed src_kernel with
      | Some o -> o
      | None ->
        let o = { o_left = 0; o_acks = [] } in
        Hashtbl.add t.batch_owed src_kernel o;
        o
    in
    o.o_left <- o.o_left + (List.length msgs - 1);
    List.iter (fun m -> deliver_ikc t ~src_kernel m) msgs

(* Revoke requests return their credit right after the (cost-bearing)
   dispatch; the marking job itself carries the real cost. *)
and return_credit_after_dispatch t ~src_kernel k =
  return_credit t ~src_kernel;
  k ()

and handle_obtain_req t ~origin ~op ~obj_reserved ~client_pe ~client_vpe ~donor =
  let reply result =
    Thread_pool.release t.threads;
    finish_remote t ~op ~dst:origin (P.Ik_obtain_reply { op; result })
  in
  let grant ~parent_key ~kind =
    job t (fun () ->
        match Mapdb.find t.mapdb parent_key with
        | None -> (Cost.ddl (c t) 1, fun () -> reply (Error P.E_no_such_cap))
        | Some parent ->
          if Cap.is_marked parent then (Cost.ddl (c t) 1, fun () -> reply (Error P.E_in_revocation))
          else begin
            let child_key =
              Key.make ~pe:client_pe ~vpe:client_vpe ~kind:(Cap.kind_to_key_kind kind) ~obj:obj_reserved
            in
            Mapdb.add_child t.mapdb ~parent:parent.Cap.key child_key;
            Obs.Registry.incr t.ctr.exchanges_spanning;
            (Cost.ddl (c t) 1, fun () -> reply (Ok (child_key, kind, parent_key)))
          end)
  in
  match donor with
  | P.Direct { donor_vpe; donor_sel } -> (
    match t.env.locate_vpe donor_vpe with
    | None -> reply (Error P.E_no_such_vpe)
    | Some donor_v when donor_v.Vpe.kernel <> t.id -> reply (Error P.E_no_such_vpe)
    | Some donor_v when not (Vpe.is_alive donor_v) -> reply (Error P.E_vpe_dead)
    | Some donor_v -> (
      match Result.bind (resolve_sel t donor_v donor_sel) exchangeable with
      | Error e -> reply (Error e)
      | Ok donor_cap ->
        vpe_accept_roundtrip t donor_v (fun accepted ->
            if not accepted then reply (Error P.E_denied)
            else grant ~parent_key:donor_cap.Cap.key ~kind:donor_cap.Cap.kind)))
  | P.Via_session { srv_key; ident; args } ->
    service_upcall t ~srv_key (P.Srq_obtain { ident; args }) (fun resp ->
        match resp with
        | P.Srs_grant { parent; kind } -> grant ~parent_key:parent ~kind
        | P.Srs_reject e -> reply (Error e)
        | P.Srs_session _ | P.Srs_accept -> reply (Error P.E_invalid))

and handle_obtain_reply t ~op ~result =
  match Hashtbl.find_opt t.pending_ops op with
  | Some (P_obtain { client }) -> (
    Hashtbl.remove t.pending_ops op;
    clear_retry t op;
    match result with
    | Error e -> finish_syscall t client (P.R_err e)
    | Ok (child_key, kind, parent_key) ->
      if not (Vpe.is_alive client) then begin
        (* Orphaned child at the donor side (paper §4.3.2, "Orphaned"):
           notify the donor's kernel so it can unlink promptly. *)
        send_unlink t ~dst:(owner_kernel t parent_key) ~parent_key ~child_key;
        Thread_pool.release t.threads
      end
      else begin
        let cap = Cap.make ~key:child_key ~kind ~owner_vpe:client.Vpe.id ~parent:parent_key () in
        Mapdb.insert t.mapdb cap;
        Obs.Registry.incr t.ctr.caps_created;
        let sel = Capspace.insert client.Vpe.capspace child_key in
        finish_syscall t client (P.R_sel sel)
      end)
  | Some
      ( P_delegate_src _ | P_delegate_dst _ | P_open_sess _ | P_revoke _ | P_revoke_msg _
      | P_bcast _ | P_part_caps _ )
  | None ->
    (* Redelivered reply: the obtain already completed. *)
    Obs.Registry.incr t.ctr.dup_ikc;
    Log.debug (fun m -> m "kernel %d: duplicate obtain reply for op %d" t.id op)

and handle_delegate_req t ~origin ~op ~parent_key ~kind ~recv =
  let reply result =
    (* The thread stays held until the ack: the two-way handshake is the
       paper's fix for the "Invalid" anomaly. A committed reply is also
       retransmitted until the ack arrives, covering a lost ack (the
       source re-sends its cached ack on seeing the duplicate reply). *)
    let msg = P.Ik_delegate_reply { op; result } in
    (match result with
    | Ok _ -> register_retry t op ~dst:origin msg
    | Error _ -> ());
    finish_remote t ~op ~dst:origin msg
  in
  let proceed (recv_v : Vpe.t) =
    job t (fun () ->
        if not (Vpe.is_alive recv_v) then (0L, fun () -> Thread_pool.release t.threads; reply (Error P.E_vpe_dead))
        else begin
          let child_key =
            mint_key t ~creator_pe:recv_v.Vpe.pe ~creator_vpe:recv_v.Vpe.id
              ~kind:(Cap.kind_to_key_kind kind)
          in
          (* Created but *not* yet inserted into the receiver's cap
             space: that happens on the ack. *)
          let cap = Cap.make ~key:child_key ~kind ~owner_vpe:recv_v.Vpe.id ~parent:parent_key () in
          Mapdb.insert t.mapdb cap;
          Hashtbl.add t.pending_ops op
            (P_delegate_dst { child_key; recv_vpe = recv_v.Vpe.id; src_kernel = origin });
          Obs.Registry.incr t.ctr.exchanges_spanning;
          (Cost.ddl (c t) 2, fun () -> reply (Ok child_key))
        end)
  in
  match recv with
  | P.Recv_vpe recv_vpe -> (
    match t.env.locate_vpe recv_vpe with
    | None -> Thread_pool.release t.threads; reply (Error P.E_no_such_vpe)
    | Some recv_v when recv_v.Vpe.kernel <> t.id -> Thread_pool.release t.threads; reply (Error P.E_no_such_vpe)
    | Some recv_v when not (Vpe.is_alive recv_v) -> Thread_pool.release t.threads; reply (Error P.E_vpe_dead)
    | Some recv_v ->
      vpe_accept_roundtrip t recv_v (fun accepted ->
          if not accepted then begin
            Thread_pool.release t.threads;
            reply (Error P.E_denied)
          end
          else proceed recv_v))
  | P.Recv_service { srv_key; ident; args } ->
    service_upcall t ~srv_key (P.Srq_delegate { ident; args; kind }) (fun resp ->
        match resp with
        | P.Srs_accept -> (
          match Key.Table.find_opt t.services_by_key srv_key with
          | None -> Thread_pool.release t.threads; reply (Error P.E_no_such_service)
          | Some service -> (
            match t.env.locate_vpe service.srv_vpe with
            | None -> Thread_pool.release t.threads; reply (Error P.E_no_such_vpe)
            | Some recv_v -> proceed recv_v))
        | P.Srs_reject e -> Thread_pool.release t.threads; reply (Error e)
        | P.Srs_session _ | P.Srs_grant _ -> Thread_pool.release t.threads; reply (Error P.E_invalid))

and handle_delegate_reply t ~op ~result =
  match Hashtbl.find_opt t.pending_ops op with
  | Some (P_delegate_src { client; src_key; dst_kernel }) -> (
    Hashtbl.remove t.pending_ops op;
    clear_retry t op;
    let send_ack commit child_key =
      let ack = P.Ik_delegate_ack { op; child_key; commit } in
      (* Cache the ack: a redelivered reply means the destination is
         still waiting, so the ack may have been lost and is re-sent. *)
      Hashtbl.replace t.completed_acks op (dst_kernel, ack);
      Queue.push (Int64.add (Engine.now t.engine) (retention t), Ev_ack op) t.evictions;
      ikc_send t ~dst:dst_kernel ack
    in
    match result with
    | Error e -> finish_syscall t client (P.R_err e)
    | Ok child_key -> (
      match Mapdb.find t.mapdb src_key with
      | Some src_cap when not (Cap.is_marked src_cap) ->
        Mapdb.add_child t.mapdb ~parent:src_cap.Cap.key child_key;
        send_ack true child_key;
        finish_syscall t client P.R_ok
      | Some _ | None ->
        (* The delegated capability was revoked while the handshake was
           in flight: abort so the receiver never gains unjustified
           access (paper §4.3.2, "Invalid"). *)
        send_ack false child_key;
        finish_syscall t client (P.R_err P.E_in_revocation)))
  | Some
      ( P_obtain _ | P_delegate_dst _ | P_open_sess _ | P_revoke _ | P_revoke_msg _ | P_bcast _
      | P_part_caps _ )
  | None -> (
    (* Redelivered reply after the handshake completed here: re-send
       the cached ack in case the original ack was lost. *)
    match Hashtbl.find_opt t.completed_acks op with
    | Some (dst, ack) ->
      Obs.Registry.incr t.ctr.dup_ikc;
      receive_credit t ~peer:dst;
      ikc_send t ~dst ack
    | None ->
      Obs.Registry.incr t.ctr.dup_ikc;
      Log.debug (fun m -> m "kernel %d: duplicate delegate reply for op %d" t.id op))

and handle_delegate_ack t ~op ~child_key ~commit =
  match Hashtbl.find_opt t.pending_ops op with
  | Some (P_delegate_dst { child_key = ck; recv_vpe; src_kernel }) -> (
    Hashtbl.remove t.pending_ops op;
    (* Stop retransmitting the reply; the handshake is over. *)
    clear_retry t op;
    assert (Key.equal ck child_key);
    (match Mapdb.find t.mapdb child_key with
    | None -> () (* revoked in the meantime; nothing to do *)
    | Some cap ->
      if not commit then begin
        Mapdb.remove t.mapdb child_key;
        Obs.Registry.incr t.ctr.caps_deleted
      end
      else begin
        match t.env.locate_vpe recv_vpe with
        | Some recv when Vpe.is_alive recv ->
          ignore (Capspace.insert recv.Vpe.capspace child_key);
          Obs.Registry.incr t.ctr.caps_created
        | Some _ | None -> (
          (* Receiver died while waiting for the ack: orphan; drop the
             record and tell the source kernel to unlink. *)
          Mapdb.remove t.mapdb child_key;
          Obs.Registry.incr t.ctr.caps_deleted;
          match cap.Cap.parent with
          | Some parent_key -> send_unlink t ~dst:src_kernel ~parent_key ~child_key
          | None -> ())
      end);
    (* Handshake over: release the thread held since the request. *)
    Thread_pool.release t.threads)
  | Some
      ( P_obtain _ | P_delegate_src _ | P_open_sess _ | P_revoke _ | P_revoke_msg _ | P_bcast _
      | P_part_caps _ )
  | None ->
    (* Redelivered ack: the handshake already completed and its thread
       was already released — releasing again would corrupt the pool. *)
    Obs.Registry.incr t.ctr.dup_ikc

and handle_open_sess_req t ~origin ~op ~srv_key ~sess_key ~client_vpe =
  let reply result =
    Thread_pool.release t.threads;
    finish_remote t ~op ~dst:origin (P.Ik_open_sess_reply { op; result })
  in
  match Mapdb.find t.mapdb srv_key with
  | None -> reply (Error P.E_no_such_service)
  | Some srv_cap when Cap.is_marked srv_cap -> reply (Error P.E_in_revocation)
  | Some srv_cap ->
    service_upcall t ~srv_key (P.Srq_open_session { client_vpe }) (fun resp ->
        match resp with
        | P.Srs_session { ident } ->
          job t (fun () ->
              match Mapdb.find t.mapdb srv_cap.Cap.key with
              | Some srv_cap when not (Cap.is_marked srv_cap) ->
                Mapdb.add_child t.mapdb ~parent:srv_cap.Cap.key sess_key;
                (Cost.ddl (c t) 1, fun () -> reply (Ok ident))
              | Some _ | None -> (Cost.ddl (c t) 1, fun () -> reply (Error P.E_in_revocation)))
        | P.Srs_reject e -> reply (Error e)
        | P.Srs_grant _ | P.Srs_accept -> reply (Error P.E_invalid))

and handle_open_sess_reply t ~op ~result =
  match Hashtbl.find_opt t.pending_ops op with
  | Some (P_open_sess { client; sess_key; srv_key; srv_kernel }) -> (
    Hashtbl.remove t.pending_ops op;
    clear_retry t op;
    match result with
    | Error e -> finish_syscall t client (P.R_err e)
    | Ok ident ->
      if not (Vpe.is_alive client) then begin
        send_unlink t ~dst:srv_kernel ~parent_key:srv_key ~child_key:sess_key;
        Thread_pool.release t.threads
      end
      else begin
        let kind = Cap.Sess_cap { srv = srv_key; ident } in
        let cap = Cap.make ~key:sess_key ~kind ~owner_vpe:client.Vpe.id ~parent:srv_key () in
        Mapdb.insert t.mapdb cap;
        Obs.Registry.incr t.ctr.caps_created;
        let sel = Capspace.insert client.Vpe.capspace sess_key in
        finish_syscall t client (P.R_sess { sel; ident })
      end)
  | Some
      ( P_obtain _ | P_delegate_src _ | P_delegate_dst _ | P_revoke _ | P_revoke_msg _
      | P_bcast _ | P_part_caps _ )
  | None ->
    (* Redelivered reply: the session open already completed. *)
    Obs.Registry.incr t.ctr.dup_ikc;
    Log.debug (fun m -> m "kernel %d: duplicate open-session reply for op %d" t.id op)

(* Phase 2 of a bulk partition handoff: extract every record of the
   moving partitions, detach their VPEs, and ship the whole set to the
   destination as one framed record wave. *)
and part_transfer t ~pes ~(vpes : Vpe.t list) ~dst ~done_k =
  job t (fun () ->
      let records =
        List.concat_map
          (fun pe ->
            List.map
              (fun (cap : Cap.t) ->
                {
                  P.m_key = cap.Cap.key;
                  m_kind = cap.Cap.kind;
                  m_owner = cap.Cap.owner_vpe;
                  m_parent = cap.Cap.parent;
                  m_children = Mapdb.children t.mapdb cap.Cap.key;
                })
              (Mapdb.caps_of_pe t.mapdb ~pe))
          pes
      in
      List.iter (fun (r : P.migrated_cap) -> Mapdb.remove t.mapdb r.P.m_key) records;
      List.iter
        (fun (vpe : Vpe.t) ->
          Hashtbl.remove t.vpes vpe.Vpe.id;
          Thread_pool.remove_vpe_thread t.threads;
          vpe.Vpe.kernel <- dst)
        vpes;
      (* The records are gone from this kernel: our own replica may now
         route the partitions to their new owner. *)
      List.iter (fun pe -> Membership.complete_handoff t.membership ~pe ~kernel:dst) pes;
      ( Int64.mul (Int64.of_int (max 1 (List.length records))) 150L,
        fun () ->
          trace_ints t ~kind:"part_transfer" ~op:(-1) ~src:t.id ~dst d_part_transfer
            (List.length pes) (List.length vpes) (List.length records);
          let op = fresh_op t in
          Hashtbl.add t.pending_ops op (P_part_caps { pc_done = done_k });
          (* Retransmitted until the destination acks the install — a
             lost wave would otherwise leak every record it carries.
             [done_k] fires on that ack. *)
          send_retried t op ~dst
            (P.Ik_part_records
               { op; src_kernel = t.id; pes; vpes = List.map (fun (v : Vpe.t) -> v.Vpe.id) vpes; records }) ))

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let syscall t ~vpe call k =
  if not (Vpe.is_alive vpe) then Engine.after t.engine 0L (fun () -> k (P.R_err P.E_vpe_dead))
  else if vpe.Vpe.syscall_pending then Engine.after t.engine 0L (fun () -> k (P.R_err P.E_busy))
  else begin
    evict_expired t;
    Obs.Registry.observe_int t.ctr.queue_depth (Server.queue_length t.server);
    vpe.Vpe.syscall_pending <- true;
    vpe.Vpe.reply_k <- Some k;
    vpe.Vpe.syscall_name <- P.syscall_name call;
    vpe.Vpe.syscall_start <- Engine.now t.engine;
    vpe.Vpe.span <- fresh_op t;
    Obs.Registry.incr t.ctr.syscalls;
    trace_event t ~kind:"syscall_enter" ~op:vpe.Vpe.span ~src:t.id ~dst:vpe.Vpe.id
      vpe.Vpe.syscall_name;
    Fabric.send t.fabric ~src:vpe.Vpe.pe ~dst:t.pe ~bytes:(c t).Cost.syscall_bytes (fun () ->
        Thread_pool.acquire t.threads (fun () -> handle_syscall t vpe call))
  end

let deliver_ikc = deliver_ikc

let install_cap t cap =
  match t.env.locate_vpe cap.Cap.owner_vpe with
  | None -> invalid_arg "Kernel.install_cap: unknown owner VPE"
  | Some owner ->
    Mapdb.insert t.mapdb cap;
    (match cap.Cap.parent with
    | Some pk when is_local_key t pk ->
      if Mapdb.mem t.mapdb pk && not (Mapdb.has_child t.mapdb ~parent:pk cap.Cap.key) then
        Mapdb.add_child t.mapdb ~parent:pk cap.Cap.key
    | Some _ | None -> ());
    Obs.Registry.incr t.ctr.caps_created;
    Capspace.insert owner.Vpe.capspace cap.Cap.key

let install_new_cap t ~owner ~kind ?parent () =
  let key =
    mint_key t ~creator_pe:owner.Vpe.pe ~creator_vpe:owner.Vpe.id ~kind:(Cap.kind_to_key_kind kind)
  in
  let cap = Cap.make ~key ~kind ~owner_vpe:owner.Vpe.id ?parent () in
  let sel = install_cap t cap in
  (sel, key)

(* The acked broadcast: send [make op] to every peer and run [done_k]
   once each has acked with [Ik_migrate_ack]. The send job charges
   [per_peer] cycles per peer. Peers that have not acked are resent the
   message on a backoff tick — messages are idempotent and acks dedup
   by sender — in kernel-id order, so table iteration order never leaks
   into the message schedule. The tick is a cancellable timer,
   cancelled when the last ack lands, so a fault-free broadcast leaves
   nothing queued. An exhausted budget is counted and traced per
   unacked peer; the operation stays pending, so a late ack still
   completes it. *)
let acked_broadcast t ~per_peer make done_k =
  let peers = Hashtbl.fold (fun kid _ acc -> if kid <> t.id then kid :: acc else acc) t.registry [] in
  match peers with
  | [] -> done_k ()
  | peers ->
    let op = fresh_op t in
    let b_peers = Hashtbl.create (List.length peers) in
    List.iter (fun kid -> Hashtbl.replace b_peers kid ()) peers;
    let bop = { b_peers; b_done = done_k; b_timer = None } in
    Hashtbl.add t.pending_ops op (P_bcast bop);
    let msg = make op in
    let rec tick attempts () =
      match Hashtbl.find_opt t.pending_ops op with
      | Some (P_bcast b) ->
        let unacked = List.sort compare (Hashtbl.fold (fun kid () acc -> kid :: acc) b.b_peers []) in
        if attempts < (c t).Cost.retry_max then begin
          List.iter
            (fun kid ->
              Obs.Registry.incr t.ctr.retries;
              receive_credit t ~peer:kid;
              ikc_send t ~dst:kid msg)
            unacked;
          b.b_timer <-
            Some
              (Engine.after_cancellable t.engine
                 (retry_interval (c t) (attempts + 1))
                 (tick (attempts + 1)))
        end
        else begin
          b.b_timer <- None;
          Obs.Registry.incr t.ctr.retry_exhausted;
          List.iter
            (fun kid -> trace_event t ~kind:"ikc_timeout" ~op ~src:t.id ~dst:kid (P.ikc_name msg))
            unacked
        end
      | Some _ | None -> ()
    in
    job t (fun () ->
        ( Int64.mul (Int64.of_int (List.length peers)) per_peer,
          fun () ->
            List.iter (fun kid -> ikc_send t ~dst:kid msg) peers;
            if (c t).Cost.retry_max > 0 then
              bop.b_timer <-
                Some (Engine.after_cancellable t.engine (retry_interval (c t) 0) (tick 0)) ))

(* Reliable fleet-state broadcast: record the transition on our own
   replica, tell every peer, and run [done_k] once all have acked. *)
let announce_state t ~kernel state done_k =
  Membership.set_kernel_state t.membership ~kernel state;
  trace_event t ~kind:"fleet_state" ~op:(-1) ~src:t.id ~dst:kernel
    (match state with
    | Membership.Spare -> "spare"
    | Membership.Joining -> "joining"
    | Membership.Active -> "active"
    | Membership.Draining -> "draining"
    | Membership.Retired -> "retired");
  acked_broadcast t ~per_peer:100L
    (fun op -> P.Ik_fleet_state { op; src_kernel = t.id; kernel; state })
    done_k

(* Bulk partition handoff (fleet join/drain, and single-VPE migration
   as a one-PE wave): move every capability record and VPE of the
   partitions in [pes] to [dst] in one two-phase exchange — the
   membership broadcast flips (or mid-handoff-marks) every replica,
   then one framed record wave ships the data. *)
let handoff_partitions t ~pes ~vpes ~dst done_k =
  if dst = t.id then invalid_arg "Kernel.handoff_partitions: already managed here";
  if not (Hashtbl.mem t.registry dst) then invalid_arg "Kernel.handoff_partitions: no such kernel";
  if pes = [] then invalid_arg "Kernel.handoff_partitions: empty partition set";
  (match Membership.kernel_state t.membership dst with
  | Membership.Active | Membership.Joining -> ()
  | Membership.Spare | Membership.Draining | Membership.Retired ->
    invalid_arg "Kernel.handoff_partitions: destination kernel is not accepting partitions");
  List.iter
    (fun (vpe : Vpe.t) ->
      if vpe.Vpe.syscall_pending then
        invalid_arg "Kernel.handoff_partitions: VPE has a syscall in flight";
      if vpe.Vpe.frozen then invalid_arg "Kernel.handoff_partitions: VPE is already migrating")
    vpes;
  (* Freeze the moving VPEs (syscalls are held at System level while
     records are in flight) and mark every PE mid-handoff on our own
     replica: in-flight resolves defer loudly instead of misrouting —
     the records stay here until [part_transfer]. *)
  List.iter (fun (vpe : Vpe.t) -> vpe.Vpe.frozen <- true) vpes;
  List.iter (fun pe -> Membership.begin_handoff t.membership ~pe) pes;
  trace_ints t ~kind:"handoff_start" ~op:(-1) ~src:t.id ~dst d_handoff_start (List.length pes)
    (List.length vpes) 0;
  acked_broadcast t ~per_peer:200L
    (fun op -> P.Ik_part_update { op; src_kernel = t.id; pes; new_kernel = dst })
    (fun () -> part_transfer t ~pes ~vpes ~dst ~done_k)

(* PE migration (the paper's named future work, §3.2) is a one-PE
   partition handoff. The system must be quiescent with respect to this
   VPE: no in-flight operations may reference its capabilities. *)
let migrate_vpe t ~(vpe : Vpe.t) ~dst done_k =
  if dst = t.id then invalid_arg "Kernel.migrate_vpe: already managed here";
  if not (Hashtbl.mem t.registry dst) then invalid_arg "Kernel.migrate_vpe: no such kernel";
  (* Safety gate: never migrate onto a kernel that is not (or no
     longer) serving — a mid-leave destination would strand the VPE. *)
  if Membership.kernel_state t.membership dst <> Membership.Active then
    invalid_arg "Kernel.migrate_vpe: destination kernel is not active";
  if not (Vpe.is_alive vpe) then invalid_arg "Kernel.migrate_vpe: VPE is dead";
  handoff_partitions t ~pes:[ vpe.Vpe.pe ] ~vpes:[ vpe ] ~dst done_k

(* Control-plane quiescence: nothing pending, nothing awaiting
   retransmission, no batched sends parked in a slot window, no
   absorbed credit returns owed, and every send-credit window back at
   the §5.1 bound. A kernel may retire only when this holds with its
   VPE table and mapping database empty. *)
let quiescent t =
  Hashtbl.length t.pending_ops = 0
  && Hashtbl.length t.retry_msgs = 0
  && Hashtbl.fold (fun _ bs acc -> acc && Queue.is_empty bs.bq) t.batch_queues true
  && Hashtbl.fold (fun _ o acc -> acc && o.o_left = 0 && o.o_acks = []) t.batch_owed true
  && Hashtbl.fold (fun _ (credits, q) acc -> acc && !credits = Cost.max_inflight && Queue.is_empty q)
       t.credits true

let quiescence_report t =
  let parts = ref [] in
  let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
  let pend_kind = function
    | P_obtain _ -> "obtain"
    | P_delegate_src _ -> "delegate_src"
    | P_delegate_dst _ -> "delegate_dst"
    | P_open_sess _ -> "open_sess"
    | P_revoke _ -> "revoke"
    | P_revoke_msg _ -> "revoke_msg"
    | P_bcast _ -> "bcast"
    | P_part_caps _ -> "part_caps"
  in
  Hashtbl.iter (fun op p -> add "pending op %d (%s)" op (pend_kind p)) t.pending_ops;
  Hashtbl.iter (fun op _ -> add "retrying msg op %d" op) t.retry_msgs;
  Hashtbl.iter
    (fun dst bs ->
      if not (Queue.is_empty bs.bq) then add "batch queue to %d holds %d" dst (Queue.length bs.bq))
    t.batch_queues;
  Hashtbl.iter
    (fun src o ->
      if o.o_left <> 0 || o.o_acks <> [] then
        add "owes %d credit acks to %d (%d parked)" o.o_left src (List.length o.o_acks))
    t.batch_owed;
  Hashtbl.iter
    (fun dst (credits, q) ->
      if !credits <> Cost.max_inflight || not (Queue.is_empty q) then
        add "credit window to %d at %d/%d (%d queued)" dst !credits Cost.max_inflight
          (Queue.length q))
    t.credits;
  if !parts = [] then "quiescent" else String.concat "; " (List.sort compare !parts)

let check_invariants t =
  let errors = ref (Mapdb.check_local_links t.mapdb) in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Mapdb.iter
    (fun cap ->
      (* Hosting invariant: a capability lives at the kernel managing
         its owner VPE. *)
      (match t.env.locate_vpe cap.Cap.owner_vpe with
      | None -> err "cap %s owned by unknown VPE %d" (Key.to_string cap.Cap.key) cap.Cap.owner_vpe
      | Some v ->
        if v.Vpe.kernel <> t.id then
          err "cap %s hosted at kernel %d but owner VPE %d is managed by %d"
            (Key.to_string cap.Cap.key) t.id cap.Cap.owner_vpe v.Vpe.kernel);
      if Cap.is_marked cap then
        err "cap %s still marked while system is idle" (Key.to_string cap.Cap.key))
    t.mapdb;
  Hashtbl.iter (fun op _ -> err "pending operation %d while system is idle" op) t.pending_ops;
  Hashtbl.iter
    (fun peer bs ->
      if not (Queue.is_empty bs.bq) then
        err "%d messages for kernel %d still queued in a batch window while system is idle"
          (Queue.length bs.bq) peer)
    t.batch_queues;
  Hashtbl.iter
    (fun peer o ->
      if o.o_left <> 0 then
        err "%d absorbed credit returns still owed to kernel %d while system is idle" o.o_left
          peer;
      if o.o_acks <> [] then
        err "%d piggybacked acks for kernel %d still stashed while system is idle"
          (List.length o.o_acks) peer)
    t.batch_owed;
  Hashtbl.iter
    (fun vid (vpe : Vpe.t) ->
      if vpe.Vpe.frozen then err "VPE %d still frozen while system is idle" vid)
    t.vpes;
  Hashtbl.iter
    (fun vid (vpe : Vpe.t) ->
      Capspace.iter
        (fun sel key ->
          if Vpe.is_alive vpe && not (Mapdb.mem t.mapdb key) then
            err "VPE %d selector %d references missing cap %s" vid sel (Key.to_string key))
        vpe.Vpe.capspace)
    t.vpes;
  List.rev !errors
