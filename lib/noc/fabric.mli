(** Message transport over the NoC.

    Latency model: [base + hop_cost * hops + bytes / bytes_per_cycle].
    Delivery between a fixed (src, dst) pair is FIFO — the paper's
    distributed capability protocols *require* pairwise message ordering
    (§4.3.1), so the fabric enforces it even for mixed message sizes,
    and even for copies injected by a fault plan. *)

type config = {
  base_cycles : int;          (** fixed per-message overhead *)
  hop_cycles : int;           (** added per mesh hop *)
  bytes_per_cycle : int;      (** serialisation bandwidth *)
}

(** Defaults calibrated for the Table 3 microbenchmarks. *)
val default_config : config

type t

(** A fault-injection hook: given one message (identified by its
    protocol [tag]; [""] for untagged traffic) and its nominal
    [arrival], returns a delivery plan with one element per copy:
    [Some time] delivers a copy at that absolute time, [None] drops
    that copy. [[]] drops the whole (single-copy) message; a
    duplicate-then-drop plan like [[Some a; None]] delivers one copy
    and counts one drop. The fabric clamps every returned time to at
    least the unfaulted arrival and re-applies the pairwise FIFO clamp,
    so an injector can only add latency, never reorder a channel or
    time-travel. *)
type injector = src:int -> dst:int -> tag:string -> now:int64 -> arrival:int64 -> int64 option list

(** [create ?obs engine topology config] builds the fabric. When [obs]
    is given, the offered/delivered/dropped counters are registered
    there under the [fabric.*] namespace; otherwise a private registry
    backs the accessors below. *)
val create : ?obs:Semper_obs.Obs.Registry.t -> Semper_sim.Engine.t -> Topology.t -> config -> t

val topology : t -> Topology.t
val engine : t -> Semper_sim.Engine.t

(** Install (or clear) the fault injector. *)
val set_injector : t -> injector option -> unit

(** Is a fault injector installed? Without one, delivery is perfect —
    a message is never lost, so loss-recovery heuristics (credit
    refunds for presumed-dropped replies) can stand down. *)
val has_injector : t -> bool

(** [send_tagged t ~tag ~src ~dst ~bytes k] delivers after the modelled
    latency and then runs [k]. [tag] names the protocol message class
    for the injector. Raises if [src]/[dst] are out of range or [bytes]
    is negative. *)
val send_tagged : t -> tag:string -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit

(** [send] is [send_tagged ~tag:""]: an untagged send is never dropped
    or duplicated. *)
val send : t -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit

(** Latency in cycles that [send] would charge for this message. *)
val latency : t -> src:int -> dst:int -> bytes:int -> int64

(** Messages offered to the fabric so far (counted at send time). *)
val messages : t -> int

(** Total payload bytes offered so far. *)
val bytes_carried : t -> int

(** Total hop-traversals offered so far (traffic proxy). *)
val hops_traversed : t -> int

(** Copies actually delivered (>= offered under duplication, < under
    drops; equal when no injector is installed). *)
val messages_delivered : t -> int

(** Payload bytes actually delivered. *)
val bytes_delivered : t -> int

(** Copies dropped by the injector (partial drops of a duplicated
    message count per copy). *)
val dropped : t -> int

(** The fabric's own mutable surface: the pairwise-FIFO last-delivery
    clamp. Traffic counters live in the metrics registry (restored via
    [Obs.Registry.restore]); in-flight deliveries are engine events and
    travel inside whole-image checkpoints. [restore] raises
    [Invalid_argument] on a topology-size mismatch. *)
type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
