(** Deterministic observability: metrics registry, span-trace ring
    buffer, and a dependency-free JSON emitter.

    Nothing in this module reads ambient state (wall-clock time,
    environment); timestamps and values come from the caller, so runs
    with identical seeds produce byte-identical snapshots and traces. *)

(** Hand-rolled JSON values.  [to_string] is deterministic: object keys
    are emitted in the order given, floats use a fixed rendering, and
    non-finite floats become [null] (there is no valid JSON spelling
    for them).  [parse] is a small validator used by tests. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string

  (** Parse a complete JSON document. Escape sequences are decoded
      loosely ([\uXXXX] collapses to ['?']); intended for validating
      our own emitter's output, not as a general-purpose parser. *)
  val parse : string -> (t, string) result
end

(** Named instruments: monotone counters, callback gauges, and
    fixed-bucket latency histograms.  Instruments are created on first
    use ([counter]/[histogram] are get-or-create); re-registering a
    name with a different kind raises [Invalid_argument]. *)
module Registry : sig
  type t
  type counter
  type histogram

  val create : unit -> t

  val counter : t -> string -> counter
  val incr : counter -> unit

  (** [add c n] adds [n] to [c]. *)
  val add : counter -> int -> unit

  val value : counter -> int

  (** [gauge t name f] registers [f] to be sampled at snapshot time.
      Registering the same name again replaces the callback. *)
  val gauge : t -> string -> (unit -> float) -> unit

  (** [histogram t name ~buckets] with upper bucket bounds in
      increasing order; an implicit overflow bucket is appended. *)
  val histogram : t -> string -> buckets:float array -> histogram

  (** [observe] and [observe_int] allocate nothing: a handle resolved
      once with [histogram] can sit on a per-event path. *)
  val observe : histogram -> float -> unit

  (** [observe_int h v] is [observe h (float_of_int v)] without boxing
      the float. *)
  val observe_int : histogram -> int -> unit

  val bucket_counts : histogram -> int array

  (** A fresh accumulator holding the histogram's running moments. *)
  val acc : histogram -> Semper_util.Stats.Acc.t

  (** Registered instrument names, sorted. *)
  val names : t -> string list

  (** [snapshot t] renders every instrument, sorted by name.  Histogram
      [min]/[max]/[mean]/[sum] are [null] when the count is zero. *)
  val snapshot : t -> Json.t

  (** Closure-free image of every instrument, sorted by name — the
      registry's contribution to a checkpoint. Gauges are sampled into
      the dump (their value is derived from live simulation state) but
      skipped on restore; counters and histograms restore in place.
      [restore] creates counters the live registry has not lazily
      created yet, and raises [Invalid_argument] on a kind or bucket
      mismatch rather than misapplying state. *)
  type instrument_state =
    | S_counter of int
    | S_gauge of float
    | S_histogram of { h_buckets : int array; h_acc : Semper_util.Stats.Acc.state }

  type state = (string * instrument_state) list

  val dump : t -> state
  val restore : t -> state -> unit
end

(** Bounded ring buffer of trace events, ordered by insertion (which,
    in the simulator, is sim-clock order). Recording allocates nothing:
    the ring stores each field in its own column, and a structured
    detail is kept as integers plus a {!layout} and rendered to text
    only when the ring is read ([events], [tail], [to_jsonl], [dump]). *)
module Trace : sig
  type event = {
    ts : int64;
    kind : string;
    op : int;
    src : int;
    dst : int;
    detail : string;
  }

  type t

  (** Raises [Invalid_argument] on a non-positive capacity. *)
  val create : capacity:int -> t

  (** [emit t ~ts ~kind ~op ~src ~dst detail] records one event with a
      text detail ([ts] in cycles; [-1] marks an absent id). *)
  val emit : t -> ts:int -> kind:string -> op:int -> src:int -> dst:int -> string -> unit

  (** The static text of a structured detail: a template whose [%d]
      holes (at most three) take integers, e.g.
      [layout "marked=%d remote_msgs=%d"]. Build it once. *)
  type layout

  (** Raises [Invalid_argument] on more than three holes. *)
  val layout : string -> layout

  (** [emit_ints t ~ts ~kind ~op ~src ~dst l a b c] records an event
      whose detail is [l] with its holes filled by [a], [b], [c] in
      order (unused arguments are ignored); it reads exactly as
      [Printf.sprintf] of the same template would. *)
  val emit_ints :
    t -> ts:int -> kind:string -> op:int -> src:int -> dst:int -> layout -> int -> int -> int -> unit

  (** Total events ever recorded (including overwritten ones). *)
  val recorded : t -> int

  (** Events lost to ring wraparound. *)
  val dropped : t -> int

  (** Retained events, oldest first. *)
  val events : t -> event list

  (** Last [n] retained events, oldest first; reads only those [n]
      slots. *)
  val tail : t -> n:int -> event list

  val event_json : event -> Json.t

  (** All retained events as JSON Lines (one object per line). *)
  val to_jsonl : t -> string

  (** Ring contents plus the recorded count, for checkpoint/restore.
      [restore] raises [Invalid_argument] if the live ring's capacity
      differs from the snapshot's. *)
  type state

  val dump : t -> state
  val restore : t -> state -> unit
end
