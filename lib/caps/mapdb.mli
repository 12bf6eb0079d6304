(** Mapping database: one per kernel.

    Stores every capability owned by this kernel and the local part of
    the sharing tree. Cross-kernel parent/child links are DDL keys
    whose records live in another kernel's mapping database; the
    distributed protocols in [Semper_kernel] keep both sides coherent.

    Backed by the flat {!Arena}: records sit in dense int-indexed
    slots, child links are arena cells rather than [Key.t list]
    spines, and per-VPE / per-PE intrusive chains answer ownership
    queries in O(owned). Slot ids never escape: the API, snapshots,
    and checkpoint images are key-addressed exactly as before. *)

type t

val create : unit -> t

(** Raises [Invalid_argument] if the key is already present. *)
val insert : t -> Cap.t -> unit

val find : t -> Semper_ddl.Key.t -> Cap.t option

(** Raises [Not_found]. *)
val get : t -> Semper_ddl.Key.t -> Cap.t

val mem : t -> Semper_ddl.Key.t -> bool

(** Remove the record and its child cells; no-op if absent. Links held
    by other records are not touched. *)
val remove : t -> Semper_ddl.Key.t -> unit

val count : t -> int

(** Slot-order iteration: deterministic for a fixed operation history,
    independent of hashing or domain count. *)
val iter : (Cap.t -> unit) -> t -> unit

val fold : ('acc -> Cap.t -> 'acc) -> 'acc -> t -> 'acc

(** {2 Child links}

    The sharing-tree child lists live here, as arena cells owned by
    the parent's record. *)

(** [add_child t ~parent k] appends; O(1) duplicate check. Raises
    [Invalid_argument] on a duplicate child or a missing parent. *)
val add_child : t -> parent:Semper_ddl.Key.t -> Semper_ddl.Key.t -> unit

(** No-op if the parent record or the link is absent. *)
val remove_child : t -> parent:Semper_ddl.Key.t -> Semper_ddl.Key.t -> unit

(** O(1); [false] if the parent record is absent. *)
val has_child : t -> parent:Semper_ddl.Key.t -> Semper_ddl.Key.t -> bool

(** Children in insertion order; [[]] if the record is absent. *)
val children : t -> Semper_ddl.Key.t -> Semper_ddl.Key.t list

val child_count : t -> Semper_ddl.Key.t -> int
val iter_children : t -> Semper_ddl.Key.t -> (Semper_ddl.Key.t -> unit) -> unit
val exists_child : t -> Semper_ddl.Key.t -> (Semper_ddl.Key.t -> bool) -> bool

(** Replace the whole child list (migration record install). Raises
    [Invalid_argument] if the parent record is absent. *)
val set_children : t -> Semper_ddl.Key.t -> Semper_ddl.Key.t list -> unit

(** {2 Ownership queries} *)

(** Capabilities owned by a VPE, in insertion order — O(owned), via
    the arena's intrusive per-VPE chain (used on VPE teardown). *)
val caps_of_vpe : t -> vpe:int -> Cap.t list

(** Capabilities whose key partition is [pe], in insertion order —
    O(records in the partition) (used by PE migration and the
    incremental audit). *)
val caps_of_pe : t -> pe:int -> Cap.t list

(** {2 Dirty partitions}

    Every structural change (insert, remove, link, unlink) marks the
    partitions it touches. [drain_dirty] returns them sorted and clears
    the set — the incremental audit's work list.
    Host-side bookkeeping only: never part of snapshots, fingerprints,
    or simulated cost. *)
val drain_dirty : t -> int list

(** Allocate a fresh object id for keys minted by this kernel on behalf
    of creator [(pe, vpe)]. Monotonic per database. *)
val fresh_obj : t -> int

(** [bump_obj t n] ensures future [fresh_obj] results are strictly
    greater than [n] — needed when capability records minted elsewhere
    move into this database (PE migration). *)
val bump_obj : t -> int -> unit

(** Internal consistency check used by tests and assertions: every
    locally-stored child whose parent is also local must appear in that
    parent's child list, and vice versa. Returns error strings. *)
val check_local_links : t -> string list

(** Full copy of the database, an input of the system fingerprint:
    every record (capability records are pure data, so copies are deep)
    with its child keys, sorted by key, plus the object-id cursor. No
    slot index escapes, so databases with equal contents fingerprint
    identically whatever their allocation history. The record is
    exposed so tests can check it against a reference model. *)
type snapshot = { s_caps : (Cap.t * Semper_ddl.Key.t list) list; s_next_obj : int }

val snapshot : t -> snapshot
