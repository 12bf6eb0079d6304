(** Discrete-event simulation engine.

    Time is measured in cycles (an [int64], matching the paper's 2 GHz
    clock), kept inside as a native [int]: the [int64] functions
    convert, and raise [Invalid_argument] past [max_int] (2{^62} - 1
    cycles, 73 years at 2 GHz). Per-event paths use {!clock},
    {!at_int} and {!after_int}, since an [int64] crossing a module
    boundary is boxed. Events scheduled for the same cycle run in
    scheduling order, so a run is fully deterministic — the delivery
    order is exactly [(time, seq)], where [seq] is the order of
    scheduling.

    The queue is a hierarchical timer wheel ({!Semper_util.Wheel}):
    O(1) schedule, O(1) cancel (the event's intrusive cell is unlinked
    on the spot) and amortized O(1) expiry, so engine cost does not
    grow with the number of pending events.

    {2 Cancellable timers}

    Protocol timeouts are almost always cancelled (a retransmission
    timer dies the moment the ack arrives), so [at_cancellable] /
    [after_cancellable] return a {!handle} that [cancel] retires. A
    cancelled event leaves the queue immediately and never fires.

    {2 The clock contract}

    [run] moves the clock to the time of each event it fires, and when
    it returns the clock obeys two rules:

    + a bounded [run ~until] ends at [max clock until] — events after
      [until] stay queued and never pull the clock past it;
    + an unbounded [run] drains the queue and ends at
      [max clock horizon], where [horizon] is the latest time ever
      scheduled, cancelled or not.

    The second rule keeps post-drain clocks where an engine that fired
    cancelled timers as no-ops would leave them; harnesses that start
    or stop their timers on the drained clock depend on it. *)

type t

(** A cancellable event: the event's own queue cell, pending exactly
    while it is queued. Handles are single-engine: each handle is
    stamped with the issuing engine's instance id, and [cancel] raises
    [Invalid_argument] for a pending handle stamped by a different
    engine. Handles do {e not} survive a checkpoint restore: the
    restored object graph carries its own copies of every handle, and
    {!rebind} stamps those copies with the restored engine's fresh id —
    any handle from the pre-restore life is permanently foreign to it. *)
type handle

(** Fresh engine at cycle 0. When [obs] is given, the engine registers
    an [engine.events_cancelled] counter and an [engine.heap_peak]
    gauge there. *)
val create : ?obs:Semper_obs.Obs.Registry.t -> unit -> t

(** Current simulation time in cycles. *)
val now : t -> int64

(** [now] as an immediate [int]. *)
val clock : t -> int

(** [at t time f] schedules [f] to run at absolute cycle [time].
    Raises [Invalid_argument] if [time] is in the past or beyond the
    clock's range. *)
val at : t -> int64 -> (unit -> unit) -> unit

(** [after t delay f] schedules [f] to run [delay] cycles from now.
    Raises [Invalid_argument] on a negative delay, or on one whose
    target time is beyond the clock's range. *)
val after : t -> int64 -> (unit -> unit) -> unit

(** [at] and [after] on [int] cycles. Scheduling allocates one queue
    cell and nothing else. *)
val at_int : t -> int -> (unit -> unit) -> unit

val after_int : t -> int -> (unit -> unit) -> unit

(** As [at], returning a handle that {!cancel} accepts. *)
val at_cancellable : t -> int64 -> (unit -> unit) -> handle

(** As [after], returning a handle that {!cancel} accepts. *)
val after_cancellable : t -> int64 -> (unit -> unit) -> handle

(** Retire a scheduled event. Idempotent; a no-op once the event has
    fired. The event's callback is never called after [cancel]
    returns. Raises [Invalid_argument] if a still-pending handle was
    issued by a different engine instance (see {!type-handle}). *)
val cancel : t -> handle -> unit

(** Give the engine a fresh instance id and re-stamp every pending
    handle in its queue with it. Call this on an engine that was just
    materialised from a checkpoint image: it makes the restored copies
    of handles valid for this engine while rendering all pre-restore
    handles (which may alias a still-live original engine) foreign. *)
val rebind : t -> unit

(** Run until the event queue is empty, or until the optional [until]
    cycle (events strictly after it stay queued); the clock then
    follows the two rules of the module docs. Returns the number of
    events executed by this call. Raises [Invalid_argument], before
    firing anything, if [until] is beyond the clock's range. *)
val run : ?until:int64 -> t -> int

(** Total events executed since creation (excludes cancelled ones). *)
val events_processed : t -> int

(** Events retired via {!cancel} before firing. *)
val events_cancelled : t -> int

(** Always 0: cancelled events leave the queue at [cancel], so [run]
    never skips one. Kept for existing readers of the counter. *)
val events_skipped : t -> int

(** Largest queue occupancy observed — the simulator's memory
    high-water mark. *)
val heap_peak : t -> int

(** Events currently queued. *)
val pending : t -> int

(** Closure-free image of the engine's scalar state (clock, sequence
    and event counters, horizon, queue length), an input of the system
    fingerprint. The event queue itself carries closures and travels
    only inside whole-image checkpoints (see {!Checkpoint}). *)
type snapshot = {
  s_clock : int64;
  s_next_seq : int;
  s_processed : int;
  s_horizon : int64;
  s_cancelled : int;
  s_heap_peak : int;
  s_queued : int;
}

val snapshot : t -> snapshot

(** Process-wide totals over every engine ever created, including those
    running on other domains during parallel sweeps. Used by the
    scale benchmark; flushed at the end of each [run] call. *)
module Totals : sig
  val processed : unit -> int

  (** Maximum {!heap_peak} over all engines so far. *)
  val heap_peak : unit -> int

  (** Restart the {!heap_peak} high-water mark from zero. Benchmarks
      that report a peak per measured phase (the scale rows) call this
      at each phase boundary, so an earlier, larger phase — or an
      unmeasured warm-up — cannot mask a later one. Engines that are
      mid-[run] flush their own peak again when that call returns. *)
  val reset_heap_peak : unit -> unit
end
