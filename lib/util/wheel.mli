(** Hierarchical timer wheel: the O(1) event queue behind the
    simulation engine.

    A wheel holds cells keyed by an absolute integer [time] and returns
    them in nondecreasing time order, ties broken by insertion order —
    exactly the engine's [(time, seq)] delivery order, with every
    operation O(1) instead of a binary heap's O(log n):

    - {!add} computes the cell's level/slot from the XOR of its time
      with the wheel cursor (at most 13 probes) and appends it
      to an intrusive doubly-linked slot list;
    - {!remove} unlinks the cell in place — no lazy deletion, no
      compaction pass, no tombstones left for [pop] to skip;
    - {!pop} finds the next occupied slot through one 32-bit occupancy
      bitmap per level and, on crossing a slot-span boundary, cascades
      the higher-level slot's cells down one or more levels (each cell
      cascades at most [levels - 1] times over its whole life, so
      expiry is amortized O(1)).

    {2 Slot layout}

    Level [l] has 32 slots of [32{^l}] ticks each; level 0 slots are
    single ticks. A cell for time [T] under cursor [C] lives at the
    lowest level whose slot span contains both, i.e. the smallest [l]
    with [T lsr (5*(l+1)) = C lsr (5*(l+1))], in slot
    [(T lsr (5*l)) land 31]. Thirteen levels cover the full 63-bit
    [int] range. Because placement demands a shared high prefix with
    the cursor (never a mere delta bound), a slot never mixes cells
    from two wheel rotations, and a level-0 slot holds cells of exactly
    one time value.

    {2 Determinism}

    Within any slot, cells for the same time appear in insertion
    order: [add] appends, and a cascade re-buckets the slot's list
    front to back into lower-level slots that are provably empty at
    that moment (the cursor only enters a span by cascading it, and
    every lower level was drained before the cascade fired). Draining
    a level-0 slot front to back therefore replays the exact global
    insertion order for that tick. *)

type 'a t

(** A queued entry: its time, its value and a caller-owned integer
    stamp. The cell is the handle for {!remove}. *)
type 'a cell

(** [create ~dummy ()] is an empty wheel with its cursor at 0. [dummy]
    fills the sentinel cells; only {!none} is ever returned. *)
val create : dummy:'a -> unit -> 'a t

(** The wheel's unlinked sentinel: what {!pop} returns when nothing is
    due. Compare with [==]. *)
val none : 'a t -> 'a cell

(** Number of queued cells. *)
val length : 'a t -> int

(** [add t ~time ~stamp v] queues [v] at absolute tick [time] and
    returns its cell, the only block it allocates. O(1). Raises
    [Invalid_argument] if [time] precedes the cursor or is negative. *)
val add : 'a t -> time:int -> stamp:int -> 'a -> 'a cell

(** The cell's scheduled tick. *)
val time : 'a cell -> int

(** The queued value. *)
val value : 'a cell -> 'a

(** The stamp the cell was added or last re-stamped with. *)
val stamp : 'a cell -> int

(** Is the cell queued — added and neither popped nor removed? *)
val linked : 'a cell -> bool

(** [remove t cell] unlinks a queued cell in O(1); a no-op if the cell
    was already popped or removed. *)
val remove : 'a t -> 'a cell -> unit

(** [pop t ~limit] unlinks and returns the earliest cell with
    [time <= limit], advancing the cursor to its tick. Returns
    [none t] — without advancing the cursor past [limit] — when every
    queued cell is later than [limit] or the wheel is empty. Allocates
    nothing; amortized O(1) plus the cascades the crossed span
    boundaries require. *)
val pop : 'a t -> limit:int -> 'a cell

(** [restamp t s] sets the stamp of every queued cell to [s]. *)
val restamp : 'a t -> int -> unit
