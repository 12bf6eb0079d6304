(** Seeded, deterministic fault plans for the inter-kernel fabric.

    A plan perturbs message delivery with four fault classes:

    - {b delay}: extra per-message latency on tagged (inter-kernel)
      traffic;
    - {b duplicate}: a second delivery of the same message a little
      later — only for idempotent, op-tagged protocol messages;
    - {b drop}: the message is never delivered — only for op-tagged
      request/reply traffic that the kernels retransmit, and bounded
      both per directed PE pair and globally so a run cannot exceed
      what the retry budget tolerates;
    - {b stall}: a kernel PE "freezes" for a window; every message
      arriving during the window is held until it ends.

    All randomness comes from a single {!Semper_util.Rng} stream seeded
    by the profile, so a given (configuration, workload, fault seed)
    triple replays bit-identically. The plan itself never reorders a
    (src, dst) channel: the fabric re-clamps each injected arrival to
    preserve the pairwise FIFO guarantee the paper's protocols rely on
    (§4.3.1). *)

type profile = {
  seed : int64;
  delay_prob : float;        (** chance of extra latency per tagged message *)
  max_delay : int;           (** extra latency drawn from [1, max_delay] cycles *)
  dup_prob : float;          (** chance of duplicate delivery *)
  max_dup_delay : int;       (** duplicate lag drawn from [1, max_dup_delay] *)
  drop_prob : float;         (** chance of dropping a retryable message *)
  max_drops_per_pair : int;  (** drop budget per directed (src, dst) pair *)
  max_drops_total : int;     (** global drop budget for the whole run *)
  stall_prob : float;        (** chance a kernel-bound message opens a stall *)
  max_stall : int;           (** stall window drawn from [1, max_stall] cycles *)
}

(** No faults at all (all probabilities zero). *)
val quiet : profile

(** Single-class profiles, used by the per-class property tests. *)
val delay_only : seed:int64 -> profile

val duplicate_only : seed:int64 -> profile
val drop_only : seed:int64 -> profile
val stall_only : seed:int64 -> profile

(** Every fault class enabled at once. *)
val chaos : seed:int64 -> profile

type stats = {
  mutable delays : int;
  mutable dups : int;
  mutable drops : int;
  mutable stalls : int;
}

type t

(** [create ~kernel_pes profile] instantiates the plan. [kernel_pes]
    lists the PEs running kernels — stall windows only ever open
    there. Raises if a probability lies outside [0, 1]. *)
val create : ?kernel_pes:int list -> profile -> t

(** Injection counters so far. *)
val stats : t -> stats

val profile : t -> profile

(** One-line summary of {!stats}, byte-stable for fuzz reports. *)
val stats_line : t -> string

(** [injector t ~src ~dst ~tag ~now ~arrival] decides the fate of one
    message: the returned plan holds one element per copy — [Some time]
    delivers at that absolute time, [None] is a dropped copy, and [[]]
    drops the whole message. Matches the fabric's injector signature;
    the fabric clamps the result so FIFO order and causality
    ([arrival >= now]) still hold. *)
val injector :
  t -> src:int -> dst:int -> tag:string -> now:int64 -> arrival:int64 -> int64 option list

(** The plan's mutable cursor, an input of the system fingerprint: RNG
    state, per-pair and total drop budgets, open stall windows, and the
    injection statistics. A plan loaded from a checkpoint continues its
    fault stream exactly where the image was taken — the property that
    makes faulty runs resumable byte-identically. *)
type snapshot

val snapshot : t -> snapshot
