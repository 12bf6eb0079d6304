(** A SemperOS kernel: manages one PE group and its capabilities, and
    coordinates with peer kernels through inter-kernel calls.

    Implements the paper's distributed capability protocols:
    - capability exchange (obtain and delegate, §4.3.2), including the
      two-way delegate handshake that prevents the "Invalid" anomaly and
      orphan cleanup for obtainers that die mid-exchange;
    - two-phase mark-and-sweep revocation (§4.3.3, Algorithm 1) with
      per-operation outstanding-reply counters, which never acknowledges
      an incomplete revoke and denies exchanges of marked capabilities;
    - cross-group session establishment (Figure 3, sequence B).

    One kernel instance runs on a dedicated kernel PE, modelled as a
    single-capacity server: every message (syscall or IKC) charges
    processing time there, which is what creates the kernel contention
    measured in the paper's application benchmarks. *)

module Key = Semper_ddl.Key

(** Hooks the kernel needs from the surrounding system (VPE directory,
    PE allocation). Stands in for state that the paper's kernels derive
    from boot-time knowledge. *)
type env = {
  locate_vpe : int -> Vpe.t option;
  alloc_pe : kernel:int -> int option;
  make_vpe : pe:int -> kernel:int -> Vpe.t;
  on_vpe_exit : Vpe.t -> unit;
}

(** A service endpoint: requests are answered asynchronously so the
    service implementation can charge time on its own PE first. *)
type service_handler = Protocol.service_request -> (Protocol.service_response -> unit) -> unit

(** A point-in-time snapshot of the kernel's metrics. The live values
    are counters in the kernel's {!Semper_obs.Obs.Registry} (names
    [kernel<id>.<field>]); [latencies] holds a copy of each
    [kernel<id>.syscall_latency.<name>] histogram's moments. *)
type stats = {
  syscalls : int;
  cap_ops : int;  (** capability-modifying operations handled *)
  exchanges_local : int;
  exchanges_spanning : int;
  revokes_local : int;
  revokes_spanning : int;
  caps_created : int;
  caps_deleted : int;
  ikc_sent : int;
  ikc_received : int;
  credit_stalls : int;  (** IKC sends delayed by credit exhaustion *)
  credit_overrefund : int;
      (** credit refunds discarded at the §5.1 [Cost.max_inflight] cap
          (retransmission refund racing the real credit return, or a
          fault-injected duplicate returning credit twice) *)
  retries : int;  (** op-tagged requests retransmitted on timeout *)
  retry_exhausted : int;  (** ops failed with [E_timeout] after the retry budget ran out *)
  dup_ikc : int;  (** duplicate inter-kernel deliveries detected *)
  batches_sent : int;  (** framed [Ik_batch] multi-messages shipped (batching mode) *)
  batched_msgs : int;  (** inner messages those frames carried *)
  latencies : (string, Semper_util.Stats.Acc.t) Hashtbl.t;
      (** end-to-end syscall latency (cycles) per syscall kind *)
}

type t

(** [create ?obs ?trace ... ()] registers this kernel's counters,
    histograms, and gauges in [obs] (default: a fresh private registry)
    under the [kernel<id>.*] namespace, and records protocol events in
    [trace] (default: a private 1024-event ring). *)
val create :
  ?obs:Semper_obs.Obs.Registry.t ->
  ?trace:Semper_obs.Obs.Trace.t ->
  engine:Semper_sim.Engine.t ->
  fabric:Semper_noc.Fabric.t ->
  grid:Semper_dtu.Dtu.grid ->
  id:int ->
  pe:int ->
  membership:Semper_ddl.Membership.t ->
  cost:Cost.t ->
  env:env ->
  registry:(int, t) Hashtbl.t ->
  kernel_count:int ->
  unit ->
  t

val id : t -> int
val pe : t -> int
val mapdb : t -> Semper_caps.Mapdb.t
val server : t -> Semper_sim.Server.t
val threads : t -> Thread_pool.t
val stats : t -> stats

(** This kernel's replica of the PE→kernel membership table. *)
val membership : t -> Semper_ddl.Membership.t

(** Instantaneous syscall/IKC queue depth at the kernel PE. *)
val queue_depth : t -> int

(** VPEs currently managed by this kernel, sorted by VPE id (so
    candidate selection never depends on hash-table iteration order). *)
val local_vpes : t -> Vpe.t list

(** The metrics registry this kernel reports into. *)
val obs : t -> Semper_obs.Obs.Registry.t

(** The trace ring this kernel records into. *)
val trace_buffer : t -> Semper_obs.Obs.Trace.t

(** Current sizes of the two bounded idempotency caches,
    [(remote ops, completed acks)]. Entries are evicted lazily once the
    retry window has safely elapsed; exposed for regression tests. *)
val idempotency_cache_sizes : t -> int * int

(** Per-peer send-credit windows as [(peer kernel, credits)], sorted by
    peer id. The fuzz credit oracle asserts every window stays within
    [\[0, Cost.max_inflight\]]. *)
val credit_windows : t -> (int * int) list

val cost : t -> Cost.t

(** Register a VPE with its managing kernel (done by the system layer at
    spawn time); grows the thread pool by one (Equation 1). *)
val add_vpe : t -> Vpe.t -> unit

val find_vpe : t -> int -> Vpe.t option
val vpe_count : t -> int

(** Attach the handler for a service *before* the service VPE issues
    [Sys_create_srv]. The handler runs at this kernel, which must be
    the one managing the service VPE. *)
val register_service_handler : t -> name:string -> service_handler -> unit

(** Look up a service in the (replicated) directory. *)
val lookup_service : t -> string -> Key.t option

(** Issue a system call on behalf of [vpe]: models the syscall message
    to the kernel PE, queues processing there, and eventually delivers
    the reply message back to the VPE's PE, where [k] runs. Each VPE
    can have only one syscall in flight; violating that yields
    [R_err E_busy] immediately. *)
val syscall : t -> vpe:Vpe.t -> Protocol.syscall -> (Protocol.reply -> unit) -> unit

(** Deliver an inter-kernel call (invoked by peer kernels through the
    fabric; exposed for tests). *)
val deliver_ikc : t -> src_kernel:int -> Protocol.ikc -> unit

(** Directly insert a pre-built capability (boot-time setup for tests
    and services). Counts as a created capability. *)
val install_cap : t -> Semper_caps.Cap.t -> Protocol.selector

(** Mint a fresh key and install a capability for [owner] in one step
    (boot-time setup). Returns the selector and the key. *)
val install_new_cap :
  t ->
  owner:Vpe.t ->
  kind:Semper_caps.Cap.kind ->
  ?parent:Key.t ->
  unit ->
  Protocol.selector * Key.t

(** PE migration (the paper's named future work, §3.2), run as a
    one-PE partition handoff: after its own gates it is exactly
    [handoff_partitions t ~pes:[vpe.pe] ~vpes:[vpe] ~dst done_k] —
    freeze the VPE, broadcast an [Ik_part_update] to every kernel, then
    ship its capability records to [dst] as one [Ik_part_records] wave
    (retransmitted until the destination acks the install). Raises
    [Invalid_argument] if [dst] is this kernel, unknown or not
    [Active], or the VPE is dead (plus {!handoff_partitions}'s gates).
    The system must be quiescent with respect to this VPE (no in-flight
    operations touching its capabilities) — {!System.migrate_vpe}
    enforces that for tests, and the load balancer's candidate gate
    enforces it for live workloads. [done_k] runs at the initiating
    kernel once the destination has acknowledged the records. *)
val migrate_vpe : t -> vpe:Vpe.t -> dst:int -> (unit -> unit) -> unit

(** Reliable fleet lifecycle broadcast: record [state] for [kernel] on
    this kernel's replica, announce it to every peer with an op-tagged
    [Ik_fleet_state] (retransmitted until each peer acks), and run the
    continuation once all acks are in. If the retry budget runs out
    first, the kernel counts it in [retry_exhausted], traces one
    [ikc_timeout] per unacked peer, and leaves the broadcast pending: a
    late ack still runs the continuation. *)
val announce_state :
  t -> kernel:int -> Semper_ddl.Membership.kernel_state -> (unit -> unit) -> unit

(** Bulk partition handoff (fleet join/drain; {!migrate_vpe} is the
    one-PE case): move every capability
    record and VPE of the partitions in [pes] to [dst] in one two-phase
    exchange. Phase 1 freezes the listed VPEs, marks every PE
    mid-handoff here, and broadcasts an [Ik_part_update] (the
    destination marks mid-handoff, bystanders flip atomically via
    [Membership.reassign_partition]); once every peer has acked, phase
    2 ships all records and VPEs as one framed [Ik_part_records] wave,
    retransmitted until the destination acks the install. In-flight
    resolves against the moving partitions hit [Mid_handoff] deferral
    throughout — never a stale owner. Raises [Invalid_argument] if the
    destination is not [Active]/[Joining], a listed VPE is mid-syscall
    or already migrating, or [pes] is empty. [vpes] must be exactly the
    VPEs living on [pes]. *)
val handoff_partitions :
  t -> pes:int list -> vpes:Vpe.t list -> dst:int -> (unit -> unit) -> unit

(** Control-plane quiescence: no pending operations, no messages
    awaiting retransmission, no batched sends parked in a slot window,
    no absorbed credit returns owed, and every send-credit window back
    at the §5.1 bound. Retirement additionally requires {!vpe_count}
    zero and an empty mapping database — see [Fleet.drain]. *)
val quiescent : t -> bool

(** What blocks {!quiescent}, one clause per obstacle, sorted —
    ["quiescent"] when nothing does. Fleet wedge diagnostics embed
    this in their failure message. *)
val quiescence_report : t -> string

(** Run the mapping-database consistency check plus kernel-level
    invariants; returns human-readable violations (empty = healthy). *)
val check_invariants : t -> string list

(** Closure-free image of the kernel. The data plane — mapping
    database, membership replica (including mid-handoff marks),
    service directory, op-id cursor, per-peer credit windows — restores
    in place; the control plane (pending operations, retry timers,
    idempotency caches, which carry continuations and engine handles)
    travels only inside whole-image checkpoints, so the snapshot
    records its op ids and sizes and [restore] raises
    [Invalid_argument] if the live control plane does not match. *)
type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
