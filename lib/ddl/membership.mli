(** Membership table: partition (= PE id) to kernel mapping.

    Replicated at every kernel (paper Figure 2). The mapping is built
    once at boot — [assign] is only legal before the table is [seal]ed —
    and afterwards changes only through the PE-migration path (paper
    §3.2: the membership mappings "would have to be updated at all
    kernels").

    {b Handoff discipline.} A migration moves a PE's capability records
    between two kernels while other traffic is in flight. Replicas must
    therefore obey an ordering contract: a replica is [reassign]ed only
    {e on receipt of} the handoff's [Ik_part_update] message, never
    ahead of it. The two kernels actually exchanging the records use the
    explicit handoff states instead: the source marks the PE with
    {!begin_handoff} when it freezes the VPE, and the mapping flips with
    {!complete_handoff} only once the records have really moved. While a
    PE is mid-handoff, {!kernel_of_pe}/{!kernel_of_key} raise
    {!Mid_handoff} — a loud failure — rather than returning a kernel
    that may not hold the records (a silent misroute, which the
    capability protocols would misinterpret as "already deleted"). *)

type kernel_id = int

(** Raised by lookups that hit a PE whose records are currently in
    flight between two kernels. Carries the PE id. *)
exception Mid_handoff of int

(** Kernel lifecycle, replicated alongside the partition table by the
    fleet protocol ([lib/fleet]): [Spare] kernels are booted but hold
    no partitions and serve no work; [Joining] kernels are absorbing
    partitions; [Active] kernels serve normally (the default — kernels
    never mentioned in a state update are Active); [Draining] kernels
    refuse new work while evacuating; [Retired] kernels hold nothing
    and may later rejoin. *)
type kernel_state = Spare | Joining | Active | Draining | Retired

type t

val create : unit -> t

(** [assign t ~pe ~kernel]. Raises [Invalid_argument] if sealed or if
    the PE is already assigned. *)
val assign : t -> pe:int -> kernel:kernel_id -> unit

(** Freeze the table; further [assign]s raise. *)
val seal : t -> unit

(** [reassign t ~pe ~kernel] moves an already-assigned PE to another
    kernel in one step. This is the form used by replicas that merely
    {e learn} about a migration (the [Ik_part_update] receivers and
    the system-level replica used for spawn routing) — call it only on
    receipt of the update, never before. Allowed on sealed tables;
    raises [Not_found] if the PE was never assigned and
    [Invalid_argument] if the PE is mid-handoff on this replica (the
    kernels holding the records must use {!complete_handoff}). *)
val reassign : t -> pe:int -> kernel:kernel_id -> unit

(** [begin_handoff t ~pe] marks the PE as mid-handoff: the mapping is
    unchanged but lookups raise {!Mid_handoff} until
    {!complete_handoff}. Raises [Not_found] for an unassigned PE and
    [Invalid_argument] if already mid-handoff. *)
val begin_handoff : t -> pe:int -> unit

(** [complete_handoff t ~pe ~kernel] ends the handoff window and
    installs the new mapping atomically. Raises [Invalid_argument] if
    the PE is not mid-handoff. *)
val complete_handoff : t -> pe:int -> kernel:kernel_id -> unit

(** Is the PE currently mid-handoff on this replica? (Never raises.) *)
val in_handoff : t -> int -> bool

val is_sealed : t -> bool

(** [reassign_partition t ~pes ~kernel] moves a whole partition set —
    every PE of a retiring or shedding kernel — in one step. The flip is
    atomic on this replica: all PEs are validated (assigned, not
    mid-handoff) before any mapping changes, so a resolve racing the
    update observes either the old owner for every PE or the new owner
    for every PE, never a half-moved partition. Raises like
    {!reassign}; on raise the table is untouched. *)
val reassign_partition : t -> pes:int list -> kernel:kernel_id -> unit

(** Lifecycle state of a kernel on this replica; [Active] for kernels
    never mentioned in a state update. *)
val kernel_state : t -> kernel_id -> kernel_state

(** Record a kernel lifecycle transition on this replica. Replicas
    apply whatever the fleet broadcast tells them; transition legality
    is enforced by [lib/fleet], not here. *)
val set_kernel_state : t -> kernel:kernel_id -> kernel_state -> unit

(** All explicitly-recorded kernel states, sorted by kernel id. Kernels
    absent from the list are [Active]. Used by the fuzz convergence
    oracle to compare replicas. *)
val kernel_states : t -> (kernel_id * kernel_state) list

(** Raises [Not_found] for an unassigned PE, {!Mid_handoff} for a PE
    whose records are in flight. *)
val kernel_of_pe : t -> int -> kernel_id

(** Owner kernel of a DDL key: the kernel of its partition. Raises like
    {!kernel_of_pe}. *)
val kernel_of_key : t -> Key.t -> kernel_id

(** PEs of a kernel's group, ascending. Mid-handoff PEs are still
    listed under their pre-handoff kernel. *)
val pes_of_kernel : t -> kernel_id -> int list

(** Number of PEs assigned overall. *)
val size : t -> int

(** All kernel ids present, ascending. *)
val kernels : t -> kernel_id list

(** Independent copy (what each kernel holds), including any handoff
    marks. *)
val copy : t -> t

(** Closure-free image of the replica: assignments, handoff marks, and
    the seal bit, sorted by PE. [restore] replaces the replica's
    contents wholesale — including re-creating mid-handoff marks, so a
    snapshot taken inside a [begin_handoff]/[complete_handoff] window
    restores to exactly that window. *)
type snapshot = {
  s_table : (int * kernel_id) list;
  s_handoff : int list;
  s_states : (kernel_id * kernel_state) list;
  s_sealed : bool;
}

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
