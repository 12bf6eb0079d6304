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
     latency and retransmission counts keyed by message name. A
     checkpoint marshals the registry and this table together, so a
     loaded image's handles still point into its own registry. *)
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
  | P_obtain of { client : Vpe.t; donor : P.donor; obj_reserved : int }  (* also a session open *)
  | P_delegate_src of { client : Vpe.t; src_key : Key.t; dst_kernel : int }
  | P_delegate_dst of { child_key : Key.t; recv_vpe : int; src_kernel : int }
  | P_revoke of revoke_op
  (* One outstanding [Ik_revoke_req]: every revoke message carries its
     own op id so the responder can deduplicate redeliveries and a
     duplicated reply cannot double-decrement [outstanding]. *)
  | P_revoke_msg of { rop : revoke_op }
  (* One peer's copy of a broadcast ([broadcast]), each under its own
     op: a service announcement, a fleet lifecycle announcement, or
     phase 1 of a partition handoff (the membership flip). *)
  | P_bcast of bcast_op
  (* Phase 2 of a partition handoff: the framed record wave awaiting
     the destination's install acknowledgement. *)
  | P_part_caps of { pc_done : unit -> unit }

(* The peers of a broadcast whose ack is still missing. Each peer's op
   leaves [pending_ops] on its first ack, so a redelivered ack cannot
   count twice. *)
and bcast_op = { mutable b_left : int; b_done : unit -> unit }

(* The exchange kinds (§4.3.2). A session open is an obtain whose donor
   is the service; it is a kind of its own only for its charges, its
   syscall reply, and the [exchanges_*] counters, which skip it. *)
type exchange = Obtain | Open | Delegate

(* The cycle charges of one exchange kind at each of its steps. The
   syscall's own decoding is charged by its arm; [forward] is added
   there when the other party lives in another group. *)
type charges = {
  forward : int64;  (* requester: forwarding to the other party's kernel *)
  serve : int64;  (* responder: decoding the request *)
  remote_link : int64;  (* responder: linking (obtain) or creating (delegate) the child *)
  remote_fail : int64;  (* responder: a link-time check failed *)
  reply : int64;  (* requester: the reply *)
  refuse_in_job : bool;  (* group-local: a refusal is answered by a [fail] job, not at once *)
  fail : int64;  (* group-local: a link-time check failed *)
  link : int64;  (* group-local: the child linked *)
}

let exchange_charges cost ex =
  let ( + ) = Int64.add and ddl = Cost.ddl cost in
  let create = cost.Cost.exchange_create and open_ = cost.Cost.session_open in
  let fwd = cost.Cost.exchange_forward and remote = cost.Cost.exchange_remote in
  match ex with
  | Obtain ->
    { forward = fwd; serve = remote + ddl 2; remote_link = ddl 1; remote_fail = ddl 1;
      reply = create + ddl 2; refuse_in_job = false; fail = create; link = create + ddl 3 }
  | Open ->
    { forward = open_; serve = open_; remote_link = ddl 1; remote_fail = ddl 1;
      reply = open_ + ddl 1; refuse_in_job = true; fail = open_; link = open_ + ddl 1 }
  | Delegate ->
    { forward = fwd; serve = remote + ddl 1; remote_link = ddl 2; remote_fail = 0L;
      reply = create + ddl 2; refuse_in_job = true; fail = create; link = create + ddl 3 }

(* What a donor hands over: a capability named with the child's kind,
   looked up again when the child is linked, or why a VPE donor's
   selector named none when it was resolved; that error is reported
   only at link time, after the donor's round trip. *)
type grant = (Key.t * Cap.kind, P.error) result

(* Responder-side record of an op-tagged message: op ids are globally
   unique (minted by the sender), so a redelivery — retransmission or
   fault-injected duplicate — is recognised and never re-executed. A
   finished request is answered from its cached reply; a handled
   notification is acked again. *)
type remote_state = R_in_progress | R_done of { dst : int; msg : P.ikc } | R_acked

(* A request awaiting a reply, retransmitted on timeout. [rstart] and
   [rattempts] feed the per-op latency and retry histograms. [rtimer]
   is the pending retransmission tick, cancelled when the reply
   arrives — otherwise every successfully-acked message would leave a
   dead event in the engine queue until its timeout expired. *)
type retry_state = {
  rdst : int;
  rmsg : P.ikc;
  rstart : int;
  mutable rattempts : int;
  mutable rtimer : Engine.handle option;
}

(* Outgoing coalescing state for one peer kernel (batching mode): the
   first message to a peer opens a DTU slot window ([bw_until]);
   messages issued before it closes queue in [bq] and leave as one
   framed [Ik_batch] when the window's flush tick fires. *)
type batch_state = { bq : P.ikc Queue.t; mutable bw_until : int }

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
  charges : charges array;  (* by [exchange], see [charges] *)
  retry_intervals : int64 array;
  retention : int;
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
  (* Messages awaiting their reply or ack, retransmitted on timeout. *)
  retry_msgs : (int, retry_state) Hashtbl.t;
  (* FIFO of (expiry, op) for [remote_ops]; expiries are monotone
     because entries are pushed at event time. *)
  evictions : (int * int) Queue.t;
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
   the reply. Attempt [i] waits entry [min i 6]. *)
let retry_intervals cost =
  Array.init 7 (fun i -> Int64.mul cost.Cost.retry_timeout (Int64.of_int (1 lsl i)))

(* How long idempotency-cache entries must be kept: once the full retry
   budget (every backoff interval of attempts 0..retry_max) plus two
   timeouts of slack has elapsed, no retransmission of the request (or
   redelivery of its reply) can still be in flight. *)
let retention cost intervals =
  let total = ref (Int64.to_int (Int64.mul 2L cost.Cost.retry_timeout)) in
  for i = 0 to cost.Cost.retry_max do
    total := !total + Int64.to_int intervals.(min i 6)
  done;
  !total

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
  let retry_intervals = retry_intervals cost in
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
      charges = Array.map (exchange_charges cost) [| Obtain; Open; Delegate |];
      retry_intervals;
      retention = retention cost retry_intervals;
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

let idempotency_cache_sizes t = Hashtbl.length t.remote_ops

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

(* The snapshot is a fingerprint input. It copies the kernel's data
   plane (mapping database, membership replica, service directory,
   op-id cursor, credit windows). The control plane (pending
   operations, retry timers, idempotency caches — all carrying
   continuations or engine handles) travels only inside whole-image
   checkpoints, so the snapshot records just its op ids and sizes,
   enough for a fingerprint to distinguish states. *)
type snapshot = {
  s_mapdb : Mapdb.snapshot;
  s_membership : Membership.snapshot;
  s_directory : (string * Key.t) list;  (* sorted by name *)
  s_next_op : int;
  s_pending_ops : int list;  (* sorted *)
  s_retry_ops : int list;  (* sorted *)
  s_remote_ops : int list;  (* sorted *)
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

let lookup_service t name = Hashtbl.find_opt t.directory name

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let c t = t.cost

let charges t ex = t.charges.(match ex with Obtain -> 0 | Open -> 1 | Delegate -> 2)

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

(* The key of an exchanged child of [kind] for the VPE [vpe] on PE
   [pe], from object [obj]. *)
let child_key ~pe ~vpe kind obj = Key.make ~pe ~vpe ~kind:(Cap.kind_to_key_kind kind) ~obj

let job t f = Server.submit_work t.server f

(* Span events. No optional arguments, so a call boxes nothing; [-1]
   marks an absent op id or endpoint. *)
let trace_event t ~kind ~op ~src ~dst detail =
  Obs.Trace.emit t.trace ~ts:(Engine.clock t.engine) ~kind ~op ~src ~dst detail

(* An event whose detail is integers, rendered through [layout] only
   when the ring is read. *)
let trace_ints t ~kind ~op ~src ~dst layout a b c =
  Obs.Trace.emit_ints t.trace ~ts:(Engine.clock t.engine) ~kind ~op ~src ~dst layout
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
  | P.Ik_revoke_req { op; _ }
  | P.Ik_revoke_reply { op; _ }
  | P.Ik_remove_child { op; _ }
  | P.Ik_srv_announce { op; _ }
  | P.Ik_fleet_state { op; _ }
  | P.Ik_part_update { op; _ }
  | P.Ik_part_records { op; _ } ->
    op
  | P.Ik_batch _ -> -1

let retry_interval t i = t.retry_intervals.(min i 6)

(* Lazily drop expired idempotency-cache entries; called on kernel
   activity (syscall entry, IKC delivery) rather than from timers so
   drain-based measurements see no extra events. *)
let evict_expired t =
  let now = Engine.clock t.engine in
  let continue = ref true in
  while !continue && not (Queue.is_empty t.evictions) do
    let expiry, op = Queue.peek t.evictions in
    if expiry > now then continue := false
    else begin
      ignore (Queue.pop t.evictions);
      (* Only a finished op may be dropped: an in-progress entry is
         still the dedup guard for its message. *)
      match Hashtbl.find_opt t.remote_ops op with
      | Some (R_done _ | R_acked) -> Hashtbl.remove t.remote_ops op
      | Some R_in_progress | None -> ()
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

let cycles_since t start = Engine.clock t.engine - start

let record_latency t (vpe : Vpe.t) =
  let h = resolve t.ctr.latencies t vpe.Vpe.syscall_name syscall_latency_hist in
  Obs.Registry.observe_int h (cycles_since t (Int64.to_int vpe.Vpe.syscall_start))

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

(* The syscall reply of a completed exchange whose child landed at
   [sel] in the client's (obtain) or receiver's (delegate) space. *)
let exchanged ex ~sel (kind : Cap.kind) =
  match (ex, kind) with
  | Open, Cap.Sess_cap { ident; srv = _ } -> P.R_sess { sel; ident }
  | Delegate, _ -> P.R_ok
  | (Obtain | Open), _ -> P.R_sel sel

(* The error a service's answer stands for when it is not the one the
   kernel asked for. *)
let refusal : P.service_response -> P.error = function
  | P.Srs_reject e -> e
  | P.Srs_session _ | P.Srs_grant _ | P.Srs_accept -> P.E_invalid

let refused ex error = P.Refused { error; sess_open = ex = Open }

let obtain_kind : P.donor -> exchange = function
  | P.Open_session _ -> Open
  | P.Direct _ | P.Via_session _ -> Obtain

(* ------------------------------------------------------------------ *)
(* Asking the other party of an exchange                                *)

(* Ask a local service; the handler charges time on the service's PE. *)
let service_upcall t ~srv_key req k =
  match Key.Table.find_opt t.services_by_key srv_key with
  | None -> k (P.Srs_reject P.E_no_such_service)
  | Some service -> service.srv_handler req k

(* Kernel -> VPE offer message, VPE-side processing, VPE -> kernel
   answer. The kernel thread suspends; the kernel PE itself stays free
   to serve other work (cooperative multithreading, §4.2). A refusal
   overrides [answer]. *)
let vpe_accept_roundtrip t (vpe : Vpe.t) answer k =
  Fabric.send t.fabric ~src:t.pe ~dst:vpe.Vpe.pe ~bytes:32 (fun () ->
      Engine.after t.engine (c t).Cost.vpe_accept (fun () ->
          Fabric.send t.fabric ~src:vpe.Vpe.pe ~dst:t.pe ~bytes:16 (fun () ->
              k (if vpe.Vpe.accept_exchange then answer else Error P.E_denied))))

(* ------------------------------------------------------------------ *)
(* Inter-kernel transport with in-flight limiting (paper §4.1)         *)

let credit_state t peer =
  match Hashtbl.find_opt t.credits peer with
  | Some s -> s
  | None ->
    let s = (ref Cost.max_inflight, Queue.create ()) in
    Hashtbl.add t.credits peer s;
    s

(* Revoke keys grouped into one message per destination kernel; with
   [all_peers], every other kernel gets a message, keys or not (the
   broadcast baseline). *)
let group_by_dst ?(all_peers = false) t to_send =
  Pool.with_ t.dstmap_pool (fun by_dst ->
      if all_peers then
        Hashtbl.iter (fun kid _ -> if kid <> t.id then Hashtbl.replace by_dst kid []) t.registry;
      List.iter
        (fun (dst, key) ->
          let keys = try Hashtbl.find by_dst dst with Not_found -> [] in
          Hashtbl.replace by_dst dst (key :: keys))
        to_send;
      Hashtbl.fold (fun dst keys acc -> (dst, keys) :: acc) by_dst [])

(* Requester handoff (batching mode): children owned by the kernel
   that requested [op] ride back in its reply's [cont] field and get
   absorbed into the requester's own wave — one message (the reply we
   owe anyway) instead of a revoke request straight back plus its
   reply. On a kernel-spanning chain this halves both the messages and
   the round trips per link. Returns the rest of [to_send]. *)
let hand_back t (op : revoke_op) to_send =
  match op.origin with
  | Ro_remote (req_k, _) when Cost.batching (c t) ->
    let cont, rest = List.partition (fun (dst, _) -> dst = req_k) to_send in
    op.cont_out <- List.rev_append (List.map snd cont) op.cont_out;
    rest
  | Ro_remote _ | Ro_syscall _ | Ro_exit _ -> to_send

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
      let bs = { bq = Queue.create (); bw_until = min_int } in
      Hashtbl.add t.batch_queues dst bs;
      bs
  in
  if Engine.clock t.engine < bs.bw_until then Queue.push ikc bs.bq
  else begin
    dispatch_ikc t ~dst ikc;
    open_batch_window t ~dst bs
  end

and open_batch_window t ~dst bs =
  bs.bw_until <- Engine.clock t.engine + Int64.to_int (c t).Cost.batch_window;
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
          List.iter (fun op -> acked peer op) acks))

(* A notification's delivery ack: stop retransmitting it and complete
   what its op waits for — a broadcast countdown or a record wave. A
   redelivered copy is acked again; only the first ack finds its op
   pending. *)
and acked t op =
  clear_retry t op;
  match Hashtbl.find_opt t.pending_ops op with
  | Some (P_bcast b) ->
    Hashtbl.remove t.pending_ops op;
    b.b_left <- b.b_left - 1;
    if b.b_left = 0 then b.b_done ()
  | Some (P_part_caps { pc_done }) ->
    Hashtbl.remove t.pending_ops op;
    pc_done ()
  | Some (P_obtain _ | P_delegate_src _ | P_delegate_dst _ | P_revoke _ | P_revoke_msg _) | None -> ()

(* ------------------------------------------------------------------ *)
(* Reliability: timeout-driven retransmission + duplicate detection.
   Every reliable message is retransmitted until its one kind of ack
   arrives (or the attempt budget runs out): a request's reply, or a
   notification's delivery ack on the credit return. Responders answer
   a redelivered request from a cache and ack a redelivered
   notification again. Each retransmission refunds one credit first, on
   the assumption the lost message's credit was leaked with it — so
   bounded drops cannot wedge the in-flight window permanently. *)

(* The reliable send: send [msg] now and retransmit it until the reply
   or delivery ack for [op] clears it. *)
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

(* The broadcast: send [make op] to every peer in registry order, each
   under its own op with [send_retried], and run [done_k] once every
   peer has acked. *)
and broadcast t make done_k =
  let b = { b_left = 0; b_done = done_k } in
  Hashtbl.iter
    (fun kid _ ->
      if kid <> t.id then begin
        let op = fresh_op t in
        b.b_left <- b.b_left + 1;
        Hashtbl.add t.pending_ops op (P_bcast b);
        send_retried t op ~dst:kid (make op)
      end)
    t.registry;
  if b.b_left = 0 then done_k ()

and register_retry t op ~dst msg =
  let st = { rdst = dst; rmsg = msg; rstart = Engine.clock t.engine; rattempts = 0; rtimer = None } in
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
            Some (Engine.after_cancellable t.engine (retry_interval t st.rattempts) tick)
        end
    in
    st.rtimer <- Some (Engine.after_cancellable t.engine (retry_interval t 0) tick)
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
   [E_timeout]; a revoke wave releases its outstanding count so the
   operation can complete. A broadcast stays pending, so a late ack
   still completes it. Late replies arriving after this hit the regular
   duplicate paths. *)
and fail_exhausted_op t op =
  match Hashtbl.find_opt t.pending_ops op with
  | None -> ()
  | Some (P_obtain { client; _ } | P_delegate_src { client; _ }) ->
    Hashtbl.remove t.pending_ops op;
    finish_syscall t client (P.R_err P.E_timeout)
  | Some (P_revoke_msg { rop }) ->
    Hashtbl.remove t.pending_ops op;
    revoke_release t rop
  | Some (P_part_caps { pc_done }) ->
    (* The destination never confirmed the install: the records are in
       limbo. Surface it loudly and release the caller — the audit layer
       will flag the leaked records. *)
    Hashtbl.remove t.pending_ops op;
    Log.err (fun m -> m "kernel %d: part_records exhausted retries; records lost" t.id);
    pc_done ()
  | Some (P_revoke _ | P_delegate_dst _ | P_bcast _) -> ()

(* Drop a delegated child that never entered its receiver's space, and
   unlink it at the source kernel [src_kernel]. *)
and drop_delegated t ~src_kernel (cap : Cap.t) =
  Mapdb.remove t.mapdb cap.Cap.key;
  Obs.Registry.incr t.ctr.caps_deleted;
  Option.iter
    (fun parent_key -> send_unlink t ~dst:src_kernel ~parent_key ~child_key:cap.Cap.key)
    cap.Cap.parent

(* Returns [true] when [request] (carrying [op]) was seen before;
   credit is returned either way. A finished request re-sends its
   cached reply, and a handled notification is acked again. *)
and remote_dup t ~src_kernel ~op request =
  match Hashtbl.find_opt t.remote_ops op with
  | None ->
    Hashtbl.replace t.remote_ops op R_in_progress;
    false
  | Some R_in_progress ->
    Obs.Registry.incr t.ctr.dup_ikc;
    return_credit t ~src_kernel;
    true
  | Some R_acked ->
    Obs.Registry.incr t.ctr.dup_ikc;
    return_credit t ~ack_op:op ~src_kernel;
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
    ikc_send t ~dst (cached_reply t ~request msg);
    true

(* Send the final reply for an op-tagged request and cache it for
   redeliveries. *)
and finish_remote t ~op ~dst msg =
  Hashtbl.replace t.remote_ops op (R_done { dst; msg });
  Queue.push (Engine.clock t.engine + t.retention, op) t.evictions;
  ikc_send t ~dst msg

(* Ack a deduplicated notification on its credit return, and remember
   it so a redelivery is acked again instead of handled twice. *)
and ack_notification t ~src_kernel ~op =
  Hashtbl.replace t.remote_ops op R_acked;
  Queue.push (Engine.clock t.engine + t.retention, op) t.evictions;
  return_credit t ~ack_op:op ~src_kernel

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
      let to_send = hand_back t op !to_send in
      let messages = group_by_dst t to_send in
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
      let to_send = hand_back t op !to_send in
      (* One revoke request per remote child — or, with batching
         enabled (the paper's §5.2 improvement), one per destination
         kernel carrying all its children. The Barrelfish-style
         broadcast baseline instead messages *every* kernel, whether or
         not it holds descendants. *)
      let initiator =
        match op.origin with Ro_syscall _ | Ro_exit _ -> true | Ro_remote _ -> false
      in
      let messages =
        if Cost.broadcast (c t) && initiator then group_by_dst ~all_peers:true t to_send
        else if Cost.batching (c t) then group_by_dst t to_send
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
(* Exchange (§4.3.2): one party step per direction, called by the
   group-local path and by the inter-kernel responder alike            *)

(* Ask the donor of an obtain. A VPE donor's selector is resolved as it
   is asked, before the accept round trip, so a capability that takes
   the selector over meanwhile is never handed over; both callers ask
   in the job that decoded the request. A service grants a child
   through [Srq_obtain], or opens a session through
   [Srq_open_session]. *)
and ask_donor t ~client_vpe (donor : P.donor) k =
  match donor with
  | P.Direct { donor_vpe; donor_sel } -> (
    match t.env.locate_vpe donor_vpe with
    | None -> k (Error P.E_no_such_vpe)
    | Some d -> vpe_accept_roundtrip t d (Ok (donor_grant t d donor_sel)) k)
  | P.Via_session { srv_key; ident; args } ->
    service_upcall t ~srv_key (P.Srq_obtain { ident; args }) (function
      | P.Srs_grant { parent; kind } -> k (Ok (Ok (parent, kind)))
      | (P.Srs_session _ | P.Srs_accept | P.Srs_reject _) as r -> k (Error (refusal r)))
  | P.Open_session { srv_key } ->
    service_upcall t ~srv_key (P.Srq_open_session { client_vpe }) (function
      | P.Srs_session { ident } -> k (Ok (Ok (srv_key, Cap.Sess_cap { srv = srv_key; ident })))
      | (P.Srs_grant _ | P.Srs_accept | P.Srs_reject _) as r -> k (Error (refusal r)))

(* The capability a VPE donor's selector names now. *)
and donor_grant t (donor : Vpe.t) sel : grant =
  Result.map
    (fun (cap : Cap.t) -> (cap.Cap.key, cap.Cap.kind))
    (Result.bind (resolve_sel t donor sel) exchangeable)

(* Ask the receiver of a delegate: a VPE accepts through the round
   trip, a service through [Srq_delegate]. The answer is the VPE that
   will own the child. *)
and ask_receiver t ~kind (recv : P.recv_ref) k =
  match recv with
  | P.Recv_vpe vid -> (
    match t.env.locate_vpe vid with
    | None -> k (Error P.E_no_such_vpe)
    | Some v -> vpe_accept_roundtrip t v (Ok v) k)
  | P.Recv_service { srv_key; ident; args } ->
    service_upcall t ~srv_key (P.Srq_delegate { ident; args; kind }) (function
      | P.Srs_accept ->
        k (match Key.Table.find_opt t.services_by_key srv_key with
          | None -> Error P.E_no_such_service
          | Some service -> Option.to_result ~none:P.E_no_such_vpe (t.env.locate_vpe service.srv_vpe))
      | (P.Srs_session _ | P.Srs_grant _ | P.Srs_reject _) as r -> k (Error (refusal r)))

(* Link-time check, shared by every path: the parent still exists and
   is not being revoked. *)
and live_parent t key = match Mapdb.find t.mapdb key with None -> Error P.E_no_such_cap | Some p -> exchangeable p

(* The parent a grant names, checked at link time, with the child's
   kind. *)
and granted_parent t : grant -> _ = function
  | Ok (key, kind) -> (
    match live_parent t key with Ok parent -> Ok (parent, kind) | Error e -> Error e)
  | Error e -> Error e

(* A VPE this kernel hosts and that is alive: what the responder checks
   before asking a VPE party. *)
and hosted_vpe t vid =
  match t.env.locate_vpe vid with
  | Some v when v.Vpe.kernel = t.id -> if Vpe.is_alive v then Ok v else Error P.E_vpe_dead
  | Some _ | None -> Error P.E_no_such_vpe

(* Group-local exchange, after the other party answered: link the child
   in one job. [answer] names the child's owner (the client for an
   obtain, the receiver for a delegate) and what it is linked under. *)
and link_local t ex ~(client : Vpe.t) answer =
  let ch = charges t ex in
  match answer with
  | Error e when not ch.refuse_in_job -> finish_syscall t client (P.R_err e)
  | Error _ | Ok _ ->
    job t (fun () ->
        match answer with
        | Ok ((owner : Vpe.t), grant) when Vpe.is_alive owner -> (
          match granted_parent t grant with
          | Ok (parent, kind) ->
            let key = child_key ~pe:owner.Vpe.pe ~vpe:owner.Vpe.id kind (Mapdb.fresh_obj t.mapdb) in
            let sel = create_linked_cap t ~owner ~kind ~parent:(Some parent) ~key in
            if ex <> Open then Obs.Registry.incr t.ctr.exchanges_local;
            (ch.link, fun () -> finish_syscall t client (exchanged ex ~sel kind))
          | Error e -> (ch.fail, fun () -> finish_syscall t client (P.R_err e)))
        | Ok _ -> (ch.fail, fun () -> finish_syscall t client (P.R_err P.E_vpe_dead))
        | Error e -> (ch.fail, fun () -> finish_syscall t client (P.R_err e)))

(* Start an obtain (or session open) inside [client]'s syscall job,
   whose own decoding costs [cost]: group-local when the donor lives on
   this kernel, otherwise forwarded to the donor's kernel [dst] with the
   syscall parked until the reply. A session open reserves its op and
   child object when the syscall is decoded, an obtain when it is
   forwarded. *)
and start_obtain t ~(client : Vpe.t) ~dst ~cost donor =
  let ex = obtain_kind donor in
  if dst = t.id then
    ( cost,
      fun () ->
        ask_donor t ~client_vpe:client.Vpe.id donor (fun answer ->
            link_local t ex ~client (Result.map (fun g -> (client, g)) answer)) )
  else
    let cost = Int64.add cost (charges t ex).forward in
    match donor with
    | P.Open_session _ ->
      let obj = Mapdb.fresh_obj t.mapdb in
      let op = fresh_op t in
      (cost, fun () -> forward_obtain t ~client ~dst ~op ~obj donor)
    | P.Direct _ | P.Via_session _ ->
      ( cost,
        fun () ->
          let op = fresh_op t in
          let obj = Mapdb.fresh_obj t.mapdb in
          Obs.Registry.incr t.ctr.exchanges_spanning;
          forward_obtain t ~client ~dst ~op ~obj donor )

and forward_obtain t ~(client : Vpe.t) ~dst ~op ~obj donor =
  Hashtbl.add t.pending_ops op (P_obtain { client; donor; obj_reserved = obj });
  send_retried t op ~dst
    (P.Ik_obtain_req
       { op; src_kernel = t.id; obj_reserved = obj; client_pe = client.Vpe.pe; client_vpe = client.Vpe.id; donor })

(* Start a delegate of [src] inside [client]'s syscall job, whose own
   decoding costs [cost]: group-local when the receiver lives on this
   kernel, otherwise the two-way handshake with its kernel [dst]. *)
and start_delegate t ~(client : Vpe.t) ~(src : Cap.t) ~dst ~cost recv =
  if dst = t.id then
    ( cost,
      fun () ->
        ask_receiver t ~kind:src.Cap.kind recv (fun answer ->
            link_local t Delegate ~client
              (Result.map (fun r -> (r, Ok (src.Cap.key, src.Cap.kind))) answer)) )
  else begin
    let op = fresh_op t in
    Hashtbl.add t.pending_ops op (P_delegate_src { client; src_key = src.Cap.key; dst_kernel = dst });
    Obs.Registry.incr t.ctr.exchanges_spanning;
    ( Int64.add cost (charges t Delegate).forward,
      fun () ->
        send_retried t op ~dst
          (P.Ik_delegate_req
             { op; src_kernel = t.id; parent_key = src.Cap.key; kind = src.Cap.kind; recv }) )
  end

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
                (* Announce to every other kernel (IKC group 1/2). *)
                broadcast t (fun op -> P.Ik_srv_announce { op; name; srv_key = key; kernel = t.id }) ignore;
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
          (* Cross-group when the service lives elsewhere (Figure 3,
             sequence B). *)
          start_obtain t ~client:vpe ~dst:(owner_kernel t srv_key)
            ~cost:(Int64.add dispatch (Cost.ddl (c t) 1))
            (P.Open_session { srv_key }))
  | P.Sys_obtain { sess; args } ->
    job t (fun () ->
        match Result.bind (resolve_sel t vpe sess) exchangeable with
        | Error e -> (dispatch, fun () -> finish_syscall t vpe (P.R_err e))
        | Ok sess_cap -> (
          match sess_cap.Cap.kind with
          | Cap.Sess_cap { srv; ident } ->
            start_obtain t ~client:vpe ~dst:(owner_kernel t srv)
              ~cost:(Int64.add dispatch (Cost.ddl (c t) 1))
              (P.Via_session { srv_key = srv; ident; args })
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
          let dst = donor.Vpe.kernel in
          (* Only a remote donor's key needs decoding here. *)
          let cost = if dst = t.id then dispatch else Int64.add dispatch (Cost.ddl (c t) 1) in
          start_obtain t ~client:vpe ~dst ~cost (P.Direct { donor_vpe; donor_sel }))
  | P.Sys_delegate_to { recv_vpe; sel } ->
    job t (fun () ->
        match Result.bind (resolve_sel t vpe sel) exchangeable with
        | Error e -> (dispatch, fun () -> finish_syscall t vpe (P.R_err e))
        | Ok src -> (
          match t.env.locate_vpe recv_vpe with
          | None -> (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_no_such_vpe))
          | Some recv when not (Vpe.is_alive recv) ->
            (dispatch, fun () -> finish_syscall t vpe (P.R_err P.E_vpe_dead))
          | Some recv ->
            start_delegate t ~client:vpe ~src ~dst:recv.Vpe.kernel
              ~cost:(Int64.add dispatch (Cost.ddl (c t) 1))
              (P.Recv_vpe recv_vpe)))
  | P.Sys_delegate { sess; sel; args } ->
    job t (fun () ->
        match Result.bind (resolve_sel t vpe sess) exchangeable with
        | Error e -> (dispatch, fun () -> finish_syscall t vpe (P.R_err e))
        | Ok sess_cap -> (
          match sess_cap.Cap.kind with
          | Cap.Sess_cap { srv; ident } -> (
            match Result.bind (resolve_sel t vpe sel) exchangeable with
            | Error e -> (dispatch, fun () -> finish_syscall t vpe (P.R_err e))
            | Ok src ->
              start_delegate t ~client:vpe ~src ~dst:(owner_kernel t srv)
                ~cost:(Int64.add dispatch (Cost.ddl (c t) 1))
                (P.Recv_service { srv_key = srv; ident; args }))
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
                ( P_obtain _ | P_delegate_src _ | P_delegate_dst _ | P_revoke_msg _ | P_bcast _
                | P_part_caps _ )
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

(* ------------------------------------------------------------------ *)
(* Inter-kernel call handling                                          *)

and deliver_ikc t ~src_kernel (ikc : P.ikc) =
  evict_expired t;
  Obs.Registry.observe_int t.ctr.queue_depth (Server.queue_length t.server);
  Obs.Registry.incr t.ctr.ikc_received;
  trace_event t ~kind:"ikc_recv" ~op:(ikc_op ikc) ~src:src_kernel ~dst:t.id (P.ikc_name ikc);
  match ikc with
  | P.Ik_obtain_req { op; src_kernel = origin; obj_reserved; client_pe; client_vpe; donor } ->
    exchange_request t ~src_kernel ~op (obtain_kind donor) ikc (fun () ->
        handle_obtain_req t ~origin ~op ~obj_reserved ~client_pe ~client_vpe ~donor)
  | P.Ik_obtain_reply { op; result } ->
    let ex =
      match result with
      | P.Session _ | P.Refused { sess_open = true; _ } -> Open
      | P.Linked _ | P.Refused { sess_open = false; _ } -> Obtain
    in
    exchange_reply t ~src_kernel (charges t ex).reply (fun () -> handle_obtain_reply t ~op ~result)
  | P.Ik_delegate_req { op; src_kernel = origin; parent_key; kind; recv } ->
    exchange_request t ~src_kernel ~op Delegate ikc (fun () ->
        handle_delegate_req t ~origin ~op ~parent_key ~kind ~recv)
  | P.Ik_delegate_reply { op; result } ->
    exchange_reply t ~src_kernel (charges t Delegate).reply (fun () -> handle_delegate_reply t ~op ~result)
  | P.Ik_delegate_ack { op; child_key; commit } ->
    job t (fun () ->
        ( Cost.ddl (c t) 1,
          fun () ->
            return_credit t ~ack_op:op ~src_kernel;
            handle_delegate_ack t ~op ~child_key ~commit ))
  | P.Ik_revoke_req { op; src_kernel = origin; keys } ->
    if not (remote_dup t ~src_kernel ~op ikc) then begin
      (* Handled without pausing a thread (Algorithm 1). The credit
         returns at once; the marking job carries the real cost. *)
      return_credit t ~src_kernel;
      let base_cost =
        if Cost.broadcast (c t) then
          (* No explicit relations: scan the whole mapping database. *)
          Int64.add (c t).Cost.revoke_request
            (Int64.mul (Int64.of_int (Mapdb.count t.mapdb)) (c t).Cost.revoke_scan_per_cap)
        else (c t).Cost.revoke_request
      in
      start_revoke t ~origin:(Ro_remote (origin, op)) ~roots:keys ~own:true ~base_cost
    end
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
                (P_obtain _ | P_delegate_src _ | P_delegate_dst _ | P_bcast _ | P_part_caps _)
            | None ->
              (* Redelivered reply for a message op already retired. *)
              Obs.Registry.incr t.ctr.dup_ikc) ))
  | P.Ik_remove_child { op; parent_key; child_key } ->
    job t (fun () ->
        ( Cost.ddl (c t) 2,
          fun () ->
            (* Idempotent: a redelivery re-runs the unlink, a no-op on
               an already-pruned parent. *)
            return_credit t ~ack_op:op ~src_kernel;
            Mapdb.remove_child t.mapdb ~parent:parent_key child_key ))
  | P.Ik_srv_announce { op; name; srv_key; kernel = _ } ->
    job t (fun () ->
        ( 100L,
          fun () ->
            (* Idempotent directory write. *)
            return_credit t ~ack_op:op ~src_kernel;
            Hashtbl.replace t.directory name srv_key ))
  | P.Ik_fleet_state { op; src_kernel = _; kernel; state } ->
    if remote_dup t ~src_kernel ~op ikc then ()
    else
      job t (fun () ->
          ( 100L,
            fun () ->
              ack_notification t ~src_kernel ~op;
              Membership.set_kernel_state t.membership ~kernel state ))
  | P.Ik_part_update { op; src_kernel = _; pes; new_kernel } ->
    if remote_dup t ~src_kernel ~op ikc then ()
    else
      job t (fun () ->
          ( Int64.mul (Int64.of_int (max 1 (List.length pes))) 200L,
            fun () ->
              ack_notification t ~src_kernel ~op;
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
               end) ))
  | P.Ik_part_records { op; src_kernel = _; pes; vpes = vids; records } ->
    if remote_dup t ~src_kernel ~op ikc then ()
    else
      job t (fun () ->
          (* Installing the wave costs time proportional to the records
             carried. *)
          ( Int64.mul (Int64.of_int (max 1 (List.length records))) 150L,
            fun () ->
              ack_notification t ~src_kernel ~op;
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
                pes ))
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

(* A spanning exchange request, unless redelivered: served on a kernel
   thread that stays held until the exchange is decided. *)
and exchange_request t ~src_kernel ~op ex request serve =
  if not (remote_dup t ~src_kernel ~op request) then
    Thread_pool.acquire t.threads (fun () ->
        job t (fun () ->
            ( (charges t ex).serve,
              fun () ->
                return_credit t ~src_kernel;
                serve () )))

(* A reply of a spanning exchange, handled after a [cost] job. *)
and exchange_reply t ~src_kernel cost handle =
  job t (fun () ->
      ( cost,
        fun () ->
          return_credit t ~src_kernel;
          handle () ))

(* The donor's kernel serves a spanning obtain: check what it hosts, ask
   the donor, and link the child under the parent before replying. *)
and handle_obtain_req t ~origin ~op ~obj_reserved ~client_pe ~client_vpe ~donor =
  let ex = obtain_kind donor in
  let reply result =
    Thread_pool.release t.threads;
    finish_remote t ~op ~dst:origin (P.Ik_obtain_reply { op; result })
  in
  let hosted =
    match donor with
    | P.Direct { donor_vpe; donor_sel } ->
      Result.bind (hosted_vpe t donor_vpe) (fun d -> Result.map ignore (donor_grant t d donor_sel))
    | P.Open_session { srv_key } -> (
      match live_parent t srv_key with
      | Ok _ -> Ok ()
      | Error e -> Error (if e = P.E_no_such_cap then P.E_no_such_service else e))
    | P.Via_session _ -> Ok ()
  in
  match hosted with
  | Error e -> reply (refused ex e)
  | Ok () ->
    ask_donor t ~client_vpe donor (function
      | Error e -> reply (refused ex e)
      | Ok grant ->
        job t (fun () ->
            let ch = charges t ex in
            match granted_parent t grant with
            | Error e -> (ch.remote_fail, fun () -> reply (refused ex e))
            | Ok (parent, kind) ->
              let child_key = child_key ~pe:client_pe ~vpe:client_vpe kind obj_reserved in
              Mapdb.add_child t.mapdb ~parent:parent.Cap.key child_key;
              let answer =
                match (ex, kind) with
                | Open, Cap.Sess_cap { ident; srv = _ } -> P.Session { ident }
                | _, _ ->
                  Obs.Registry.incr t.ctr.exchanges_spanning;
                  P.Linked { kind; parent = parent.Cap.key }
              in
              (ch.remote_link, fun () -> reply answer)))

(* The cached [reply] to a redelivered [request], as it is resent. An
   obtain reply is resent only while the child it reports is still
   linked at this kernel: the parent exists, is unmarked and lists the
   child. Otherwise the resend would follow the revoke or unlink that
   passed the child on the same FIFO channel, and the client's kernel
   would insert an orphan. *)
and cached_reply t ~(request : P.ikc) (reply : P.ikc) =
  match (request, reply) with
  | P.Ik_obtain_req { client_pe; client_vpe; obj_reserved; donor; _ }, P.Ik_obtain_reply { op; result }
    -> (
    let still_linked kind parent =
      Result.is_ok (live_parent t parent)
      && Mapdb.has_child t.mapdb ~parent (child_key ~pe:client_pe ~vpe:client_vpe kind obj_reserved)
    in
    match (result, donor) with
    | P.Linked { kind; parent }, _ when not (still_linked kind parent) ->
      P.Ik_obtain_reply { op; result = refused Obtain P.E_in_revocation }
    | P.Session { ident }, P.Open_session { srv_key }
      when not (still_linked (Cap.Sess_cap { srv = srv_key; ident }) srv_key) ->
      P.Ik_obtain_reply { op; result = refused Open P.E_in_revocation }
    | (P.Linked _ | P.Session _ | P.Refused _), _ -> reply)
  | _ -> reply

and handle_obtain_reply t ~op ~result =
  match Hashtbl.find_opt t.pending_ops op with
  | Some (P_obtain { client; donor; obj_reserved }) -> (
    Hashtbl.remove t.pending_ops op;
    clear_retry t op;
    match (result, donor) with
    | P.Linked { kind; parent }, _ -> obtained t client ~obj_reserved Obtain kind parent
    | P.Session { ident }, P.Open_session { srv_key } ->
      obtained t client ~obj_reserved Open (Cap.Sess_cap { srv = srv_key; ident }) srv_key
    | P.Refused { error; sess_open = _ }, _ -> finish_syscall t client (P.R_err error)
    | P.Session _, (P.Direct _ | P.Via_session _) -> finish_syscall t client (P.R_err P.E_invalid))
  | Some (P_delegate_src _ | P_delegate_dst _ | P_revoke _ | P_revoke_msg _ | P_bcast _ | P_part_caps _)
  | None ->
    (* Redelivered reply: the obtain already completed. *)
    Obs.Registry.incr t.ctr.dup_ikc;
    Log.debug (fun m -> m "kernel %d: duplicate obtain reply for op %d" t.id op)

(* The child linked at the donor's kernel enters the client's space. *)
and obtained t (client : Vpe.t) ~obj_reserved ex kind parent_key =
  let child_key = child_key ~pe:client.Vpe.pe ~vpe:client.Vpe.id kind obj_reserved in
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
    finish_syscall t client (exchanged ex ~sel kind)
  end

(* The receiver's kernel serves a spanning delegate: check what it
   hosts, ask the receiver, and create the child, which enters the
   receiver's space only on the source's commit ack. A committed reply
   holds the thread until that ack (the two-way handshake, the paper's
   fix for the "Invalid" anomaly). The reply needs no timer of its
   own: a lost reply is resent from the cache when the source
   retransmits its request, and the source retransmits its ack until
   it is delivered. *)
and handle_delegate_req t ~origin ~op ~parent_key ~kind ~recv =
  let refuse e =
    Thread_pool.release t.threads;
    finish_remote t ~op ~dst:origin (P.Ik_delegate_reply { op; result = Error e })
  in
  match (match recv with P.Recv_vpe vid -> Result.map ignore (hosted_vpe t vid) | P.Recv_service _ -> Ok ()) with
  | Error e -> refuse e
  | Ok () ->
    ask_receiver t ~kind recv (function
      | Error e -> refuse e
      | Ok (recv_v : Vpe.t) ->
        job t (fun () ->
            let ch = charges t Delegate in
            if not (Vpe.is_alive recv_v) then (ch.remote_fail, fun () -> refuse P.E_vpe_dead)
            else begin
              let child_key = child_key ~pe:recv_v.Vpe.pe ~vpe:recv_v.Vpe.id kind (Mapdb.fresh_obj t.mapdb) in
              (* Created but *not* yet inserted into the receiver's cap
                 space: that happens on the ack. *)
              let cap = Cap.make ~key:child_key ~kind ~owner_vpe:recv_v.Vpe.id ~parent:parent_key () in
              Mapdb.insert t.mapdb cap;
              Hashtbl.add t.pending_ops op
                (P_delegate_dst { child_key; recv_vpe = recv_v.Vpe.id; src_kernel = origin });
              Obs.Registry.incr t.ctr.exchanges_spanning;
              ( ch.remote_link,
                fun () -> finish_remote t ~op ~dst:origin (P.Ik_delegate_reply { op; result = Ok child_key }) )
            end))

and handle_delegate_reply t ~op ~result =
  match Hashtbl.find_opt t.pending_ops op with
  | Some (P_delegate_src { client; src_key; dst_kernel }) -> (
    Hashtbl.remove t.pending_ops op;
    clear_retry t op;
    let send_ack commit child_key =
      send_retried t op ~dst:dst_kernel (P.Ik_delegate_ack { op; child_key; commit })
    in
    match result with
    | Error e -> finish_syscall t client (P.R_err e)
    | Ok child_key -> (
      match live_parent t src_key with
      | Ok src_cap ->
        Mapdb.add_child t.mapdb ~parent:src_cap.Cap.key child_key;
        send_ack true child_key;
        finish_syscall t client P.R_ok
      | Error _ ->
        (* The delegated capability was revoked while the handshake was
           in flight: abort so the receiver never gains unjustified
           access (paper §4.3.2, "Invalid"). *)
        send_ack false child_key;
        finish_syscall t client (P.R_err P.E_in_revocation)))
  | Some (P_obtain _ | P_delegate_dst _ | P_revoke _ | P_revoke_msg _ | P_bcast _ | P_part_caps _)
  | None ->
    (* Redelivered reply: the handshake already went on here, and its
       ack is retransmitted until delivered. *)
    Obs.Registry.incr t.ctr.dup_ikc;
    Log.debug (fun m -> m "kernel %d: duplicate delegate reply for op %d" t.id op)

and handle_delegate_ack t ~op ~child_key ~commit =
  match Hashtbl.find_opt t.pending_ops op with
  | Some (P_delegate_dst { child_key = ck; recv_vpe; src_kernel }) -> (
    Hashtbl.remove t.pending_ops op;
    assert (Key.equal ck child_key);
    (match Mapdb.find t.mapdb child_key with
    | None -> () (* revoked in the meantime; nothing to do *)
    | Some _ when not commit ->
      Mapdb.remove t.mapdb child_key;
      Obs.Registry.incr t.ctr.caps_deleted
    | Some cap -> (
      match t.env.locate_vpe recv_vpe with
      | Some recv when Vpe.is_alive recv ->
        ignore (Capspace.insert recv.Vpe.capspace child_key);
        Obs.Registry.incr t.ctr.caps_created
      | Some _ | None ->
        (* Receiver died while waiting for the ack: orphan. *)
        drop_delegated t ~src_kernel cap));
    (* Handshake over: release the thread held since the request. *)
    Thread_pool.release t.threads)
  | Some (P_obtain _ | P_delegate_src _ | P_revoke _ | P_revoke_msg _ | P_bcast _ | P_part_caps _)
  | None ->
    (* Redelivered ack, acked again on its credit return: the handshake
       already completed and its thread was already released —
       releasing again would corrupt the pool. *)
    Obs.Registry.incr t.ctr.dup_ikc

(* Phase 2 of a bulk partition handoff: extract every record of the
   moving partitions, detach their VPEs, and ship the whole set to the
   destination as one framed record wave. A record marked by a revoke
   request that arrived since phase 1 began stays here: the wave does
   not carry marks, and the revoke that marked it deletes it here. *)
and part_transfer t ~pes ~(vpes : Vpe.t list) ~dst ~done_k =
  job t (fun () ->
      let records =
        List.concat_map
          (fun pe ->
            List.filter_map
              (fun (cap : Cap.t) ->
                if Cap.is_marked cap then None
                else
                  Some
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

(* A broadcast sent from a job that charges [per_peer] cycles per
   peer. *)
let acked_broadcast t ~per_peer make done_k =
  match Hashtbl.length t.registry - 1 with
  | 0 -> done_k ()
  | peers -> job t (fun () -> (Int64.mul (Int64.of_int peers) per_peer, fun () -> broadcast t make done_k))

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
