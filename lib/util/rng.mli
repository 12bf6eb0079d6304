(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic choice in the simulator draws from an explicit [t]
    so that runs are reproducible from a seed, independent of global
    state and evaluation order. *)

type t

(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)
val create : int64 -> t

(** [split t] derives an independent generator; the parent stream
    advances by one step. *)
val split : t -> t

(** Next raw 64-bit value. *)
val next : t -> int64

(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument]
    if [bound <= 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)
val int_in : t -> int -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [exponential t ~mean] draws from an exponential distribution. *)
val exponential : t -> mean:float -> float

(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [choose t arr] is a uniformly drawn element. Raises on empty array. *)
val choose : t -> 'a array -> 'a

(** The generator's cursor, a fingerprint input. SplitMix64 carries
    its whole state in one word, so a snapshot is just that word. *)
type snapshot = int64

val snapshot : t -> snapshot
