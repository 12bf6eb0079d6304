(** System assembly: topology, DTUs, membership, and the kernels.

    Lays out [kernels] PE groups on a square mesh. Each group is a
    contiguous block of PEs — one kernel PE followed by the group's user
    PEs — so intra-group messages travel few hops and group-spanning
    messages travel more, as in a real rack-scale NoC. *)

type config = {
  kernels : int;
  spare_kernels : int;
      (** kernels booted but held out of service ([Spare] lifecycle
          state) until a [Fleet.join] activates them; 0 reproduces the
          fixed boot-time fleet byte-for-byte *)
  user_pes_per_kernel : int;
  mode : Cost.mode;
  noc : Semper_noc.Fabric.config;
  batching : bool;  (** enable revoke-message batching (Cost.with_batching) *)
  broadcast : bool;  (** Barrelfish-style broadcast revocation (Cost.with_broadcast) *)
  fault : Semper_fault.Fault.profile option;
      (** install a seeded fault plan on the fabric (None = perfect delivery) *)
  retry : bool;
      (** timeout/retransmit for op-tagged inter-kernel requests; turn
          off only to demonstrate the fuzz oracle catching lost messages *)
  trace_capacity : int;
      (** size of the shared protocol trace ring (events kept) *)
}

val default_config : config

(** 640 PEs as in the paper's testbed (§5.1): adjust per experiment. *)
val config :
  ?kernels:int ->
  ?spare_kernels:int ->
  ?user_pes_per_kernel:int ->
  ?mode:Cost.mode ->
  ?noc:Semper_noc.Fabric.config ->
  ?batching:bool ->
  ?broadcast:bool ->
  ?fault:Semper_fault.Fault.profile ->
  ?retry:bool ->
  ?trace_capacity:int ->
  unit ->
  config

type t

(** Build and boot the system: topology, fabric, DTUs (user DTUs
    deprivileged), membership table (sealed), kernels. Raises
    [Invalid_argument] for configurations beyond the paper's hardware
    limits (more than 64 kernels or 192 PEs per group). *)
val create : config -> t

val engine : t -> Semper_sim.Engine.t
val fabric : t -> Semper_noc.Fabric.t

(** The installed fault plan, if any (for injection statistics). *)
val fault_plan : t -> Semper_fault.Fault.t option
val grid : t -> Semper_dtu.Dtu.grid
val membership : t -> Semper_ddl.Membership.t

(** The system-wide metrics registry: fabric, DTU, and per-kernel
    instruments all report here. Snapshot with
    [Semper_obs.Obs.Registry.snapshot]. *)
val obs : t -> Semper_obs.Obs.Registry.t

(** The shared protocol trace ring (sim-clock timestamps, so identical
    seeds give byte-identical traces). *)
val trace_buffer : t -> Semper_obs.Obs.Trace.t
val kernel : t -> int -> Kernel.t

(** Every booted kernel, spares included. *)
val kernels : t -> Kernel.t list

(** Kernels booted in total, spares included. *)
val kernel_count : t -> int

(** Kernels that boot [Active] (the [config.kernels] field); ids
    [boot_kernels t .. kernel_count t - 1] are the spares. *)
val boot_kernels : t -> int

val pe_count : t -> int

(** Boot-time VPE spawn: allocates a free user PE in the kernel's group
    (or uses [pe]). Raises [Invalid_argument] when the group is full or
    the kernel is not in the [Active] lifecycle state. *)
val spawn_vpe : ?pe:int -> t -> kernel:int -> Vpe.t

val find_vpe : t -> int -> Vpe.t option

(** Free user PEs remaining in a group. *)
val free_pes : t -> kernel:int -> int

(** The PE range a kernel's group was built with at boot (kernel PE
    first). Partition ownership may drift through fleet handoffs;
    [Fleet.join] reclaims this range so group-local PE allocation and
    the membership replicas agree again. *)
val home_pes : t -> kernel:int -> int list

(** Shorthand for [Kernel.syscall] on the VPE's managing kernel. *)
val syscall : t -> Vpe.t -> Protocol.syscall -> (Protocol.reply -> unit) -> unit

(** Synchronous convenience for tests and examples: runs the engine
    until the reply arrives and returns it. The engine must be
    otherwise idle enough for the syscall to complete. *)
val syscall_sync : t -> Vpe.t -> Protocol.syscall -> Protocol.reply

(** Drive the simulation. Returns events processed. *)
val run : ?until:int64 -> t -> int

val now : t -> int64

(** Aggregate capability operations handled by all kernels. *)
val total_cap_ops : t -> int

(** Union of all kernels' invariant violations. *)
val check_invariants : t -> string list

(** Migrate a VPE's PE to another kernel's group (the paper's named
    future work, §3.2): quiesces the engine, freezes the VPE,
    broadcasts the membership update to every kernel replica, and
    transfers the capability records to the new owning kernel. After
    return the VPE is managed by [to_kernel] and all DDL routing for
    its keys lands there. *)
val migrate_vpe : t -> Vpe.t -> to_kernel:int -> unit

(** Closure-free image of the whole simulation, composed from every
    layer's snapshot: engine scalars, fabric FIFO clamps, DTU credit
    windows, membership replicas (system-level and per-kernel,
    including mid-handoff marks), the fault plan's RNG cursor and
    budgets, the metrics registry, the trace ring, per-kernel data
    planes, and per-VPE state. Everything that carries closures (the
    event queue, pending protocol operations, reply continuations)
    travels only inside whole-image checkpoints ({!Semper_sim.Checkpoint});
    the snapshot summarises it so {!fingerprint} still distinguishes
    states. *)
type snapshot

val snapshot : t -> snapshot

(** In-place restore of every layer's snapshot onto a system of the
    same shape. Raises [Invalid_argument] when shapes or the
    closure-bearing control planes do not match (see
    {!Kernel.restore}). *)
val restore : t -> snapshot -> unit

(** Hex digest of {!snapshot} — the integrity fingerprint stored in
    checkpoint images and re-verified after restore. Deterministic:
    equal states yield equal fingerprints. *)
val fingerprint : t -> string

(** Re-stamp the engine and its pending handles after this system was
    materialised from a checkpoint image ({!Semper_sim.Engine.rebind}).
    Must be called before driving the restored system. *)
val rebind : t -> unit

(** Graceful shutdown: every live VPE — applications and services
    alike — exits, which recursively revokes every capability in the
    system. Runs the engine to completion and returns the number of
    capabilities that survived (0 for a healthy system). *)
val shutdown : t -> int
