(** Per-VPE capability space: selector → DDL key.

    Applications name capabilities by small integer selectors, exactly
    like file descriptors; the kernel resolves selectors through the
    VPE's capability space before touching the mapping database. *)

type selector = int

type t

val create : unit -> t

(** Allocate the lowest free selector for [key]. *)
val insert : t -> Semper_ddl.Key.t -> selector

(** Bind a specific selector. Raises [Invalid_argument] if taken. *)
val insert_at : t -> selector -> Semper_ddl.Key.t -> unit

val find : t -> selector -> Semper_ddl.Key.t option

(** Reverse lookup, O(1) via the maintained inverse index. *)
val selector_of : t -> Semper_ddl.Key.t -> selector option

(** [remove t sel] is a no-op if unbound. *)
val remove : t -> selector -> unit

(** Remove the binding of [key] if present. *)
val remove_key : t -> Semper_ddl.Key.t -> unit

val count : t -> int
val iter : (selector -> Semper_ddl.Key.t -> unit) -> t -> unit

(** Selector bindings plus the allocation hint, sorted by selector: a
    fingerprint input. *)
type snapshot

val snapshot : t -> snapshot
