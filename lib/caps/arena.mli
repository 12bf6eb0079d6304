(** Int-indexed capability arena.

    Flat storage for the per-kernel capability database: records are
    addressed by dense slot ids handed out from a free list, child
    links are cells in flat arrays threaded as per-parent sibling
    lists (first/next/prev indices) instead of [Key.t list] heap
    spines, and intrusive per-VPE and per-PE chains make ownership
    queries O(owned) instead of O(database). A slot <-> [Key.t] index
    keeps the outside world key-addressed: slot ids never escape this
    module, so snapshots and checkpoint images stay portable across
    allocation histories.

    Determinism contract: iteration is in slot order and the free
    lists are LIFO, so for a fixed operation history every traversal
    order is fixed — independent of hashing, domains, or host.

    Everything inside is plain OCaml data (arrays, lists, hashtables):
    the arena marshals, which whole-image fuzz checkpoints rely on. *)

type t

val create : unit -> t

(** Raises [Invalid_argument] if the key is already present. *)
val insert : t -> Cap.t -> unit

val find : t -> Semper_ddl.Key.t -> Cap.t option
val mem : t -> Semper_ddl.Key.t -> bool

(** Remove the record, releasing its slot and all of its child cells.
    No-op if absent. Links *to* the removed key held by other records
    are untouched (they dangle, exactly as the protocols expect). *)
val remove : t -> Semper_ddl.Key.t -> unit

val count : t -> int

(** Slot-order iteration over live records. *)
val iter : (Cap.t -> unit) -> t -> unit

val fold : ('acc -> Cap.t -> 'acc) -> 'acc -> t -> 'acc

(** [add_child t ~parent k] appends [k] to [parent]'s child list.
    O(1): the duplicate check is a hash probe, the append links a cell
    at the tail. Raises [Invalid_argument] on a duplicate child or a
    missing parent record. *)
val add_child : t -> parent:Semper_ddl.Key.t -> Semper_ddl.Key.t -> unit

(** No-op if the parent or the link is absent. *)
val remove_child : t -> parent:Semper_ddl.Key.t -> Semper_ddl.Key.t -> unit

(** O(1); [false] if the parent record is absent. *)
val has_child : t -> parent:Semper_ddl.Key.t -> Semper_ddl.Key.t -> bool

(** Children in insertion order; [[]] if the record is absent. *)
val children : t -> Semper_ddl.Key.t -> Semper_ddl.Key.t list

val child_count : t -> Semper_ddl.Key.t -> int
val iter_children : t -> Semper_ddl.Key.t -> (Semper_ddl.Key.t -> unit) -> unit
val exists_child : t -> Semper_ddl.Key.t -> (Semper_ddl.Key.t -> bool) -> bool

(** Replace the whole child list (record install during migration). *)
val set_children : t -> Semper_ddl.Key.t -> Semper_ddl.Key.t list -> unit

(** Records owned by [vpe], in insertion order — O(owned). *)
val caps_of_vpe : t -> vpe:int -> Cap.t list

(** Records whose key partition is [pe], in insertion order —
    O(records in the partition). *)
val caps_of_pe : t -> pe:int -> Cap.t list
