module Obs = Semper_obs.Obs
module Wheel = Semper_util.Wheel

(* The queue is a hierarchical timer wheel (Semper_util.Wheel): O(1)
   schedule, O(1) cancel (the handle unlinks its intrusive cell on the
   spot) and amortized O(1) expiry, delivering in (time, seq) order
   because the wheel keeps insertion order within a tick. *)

(* [owner] ties a pending handle to the engine instance that issued it,
   so that [cancel] can reject handles from another engine (or from a
   pre-restore life of this engine) instead of unlinking a cell of a
   foreign wheel. Engines get their id from a process-wide counter;
   [rebind] re-stamps a restored engine and its queued handles with a
   fresh id. A handle is pending exactly while it holds its wheel cell;
   firing or cancelling drops it to [Wnone]. The cell travels inside
   checkpoint images by marshalled sharing, so a restored handle still
   points into the restored wheel. *)
type handle = { mutable owner : int; mutable wcell : wref }

and wref = Wnone | Wcell of event Wheel.cell

and event = {
  time : int64;
  run : unit -> unit;
  (* [None] for the plain [at]/[after] events, which avoids allocating
     a handle on the fast path carrying almost all simulation traffic. *)
  cell : handle option;
}

type t = {
  mutable uid : int;
  mutable clock : int64;
  (* Events ever scheduled; the wheel's insertion order is this
     sequence, and [restore] uses it to detect a queue that moved on. *)
  mutable next_seq : int;
  mutable processed : int;
  (* Latest time ever scheduled, cancelled or not. A drained unbounded
     run advances the clock here: the pre-cancellation engine fired
     cancelled timers as no-ops, so its last-popped event was exactly
     the latest-scheduled one, and harnesses that read the clock after
     the queue drains depend on landing there. *)
  mutable horizon : int64;
  mutable cancelled : int;
  (* Largest live occupancy of the wheel. *)
  mutable heap_peak : int;
  (* High-water marks already pushed into [Totals]. *)
  mutable flushed_processed : int;
  mutable flushed_cancelled : int;
  wheel : event Wheel.t;
  ctr_cancelled : Obs.Registry.counter option;
}

(* Process-wide totals across every engine, for wall-clock benchmarking
   of the simulator itself (the per-run registries die with their
   systems, and sweeps fan systems out across domains — hence atomics).
   Flushed from the per-engine fields at the end of each [run] call,
   not per event. *)
module Totals = struct
  let processed_a = Atomic.make 0
  let cancelled_a = Atomic.make 0
  let heap_peak_a = Atomic.make 0

  let processed () = Atomic.get processed_a
  let cancelled () = Atomic.get cancelled_a
  let heap_peak () = Atomic.get heap_peak_a
  let reset_heap_peak () = Atomic.set heap_peak_a 0

  let add a n = if n > 0 then ignore (Atomic.fetch_and_add a n)

  let rec max_to a n =
    let cur = Atomic.get a in
    if n > cur && not (Atomic.compare_and_set a cur n) then max_to a n
end

let dummy_event = { time = 0L; run = (fun () -> ()); cell = None }

(* Engine instance ids. Atomic because sweeps create engines on many
   domains at once; the ids only need to be distinct, not dense. *)
let next_uid = Atomic.make 0

let create ?obs () =
  let t =
    {
      uid = Atomic.fetch_and_add next_uid 1;
      clock = 0L;
      next_seq = 0;
      processed = 0;
      horizon = 0L;
      cancelled = 0;
      heap_peak = 0;
      flushed_processed = 0;
      flushed_cancelled = 0;
      wheel = Wheel.create ~dummy:dummy_event ();
      ctr_cancelled =
        Option.map (fun r -> Obs.Registry.counter r "engine.events_cancelled") obs;
    }
  in
  Option.iter
    (fun r -> Obs.Registry.gauge r "engine.heap_peak" (fun () -> float_of_int t.heap_peak))
    obs;
  t

let now t = t.clock

(* Simulated cycles are int64 for interface stability, but the wheel
   indexes by native int: on 64-bit hosts that caps the clock at 2^62
   cycles ≈ 73 years of simulated 2 GHz time, far past any run. *)
let wheel_time time =
  if Int64.compare time (Int64.of_int max_int) > 0 then
    invalid_arg "Engine.at: time exceeds the timer-wheel range"
  else Int64.to_int time

let schedule t time run cell =
  if Int64.compare time t.clock < 0 then invalid_arg "Engine.at: time in the past";
  t.next_seq <- t.next_seq + 1;
  if Int64.compare time t.horizon > 0 then t.horizon <- time;
  let c = Wheel.add t.wheel ~time:(wheel_time time) { time; run; cell } in
  (match cell with Some h -> h.wcell <- Wcell c | None -> ());
  let len = Wheel.length t.wheel in
  if len > t.heap_peak then t.heap_peak <- len

let at t time run = schedule t time run None

let after t delay run =
  if Int64.compare delay 0L < 0 then invalid_arg "Engine.after: negative delay";
  at t (Int64.add t.clock delay) run

let at_cancellable t time run =
  let h = { owner = t.uid; wcell = Wnone } in
  schedule t time run (Some h);
  h

let after_cancellable t delay run =
  if Int64.compare delay 0L < 0 then invalid_arg "Engine.after: negative delay";
  at_cancellable t (Int64.add t.clock delay) run

let cancel t h =
  match h.wcell with
  | Wnone -> ()
  | Wcell c ->
    if h.owner <> t.uid then
      invalid_arg "Engine.cancel: handle belongs to a different engine (or a stale restore)";
    ignore (Wheel.remove t.wheel c);
    h.wcell <- Wnone;
    t.cancelled <- t.cancelled + 1;
    Option.iter Obs.Registry.incr t.ctr_cancelled

let run ?until t =
  (* [Wheel.pop ~limit] never advances its cursor past the limit, which
     keeps the cursor <= clock invariant that lets a later [schedule]
     at the current clock land in front of it. *)
  let limit =
    match until with
    | Some l when Int64.compare l (Int64.of_int max_int) < 0 -> Int64.to_int l
    | Some _ | None -> max_int
  in
  let count = ref 0 in
  let rec loop () =
    match Wheel.pop t.wheel ~limit with
    | None -> ()
    | Some c ->
      let ev = Wheel.value c in
      (match ev.cell with Some h -> h.wcell <- Wnone | None -> ());
      t.clock <- ev.time;
      t.processed <- t.processed + 1;
      incr count;
      ev.run ();
      loop ()
  in
  loop ();
  (* The clock contract (see engine.mli): a bounded run ends at
     [max clock until], a drained unbounded run at [max clock horizon]. *)
  let target = match until with Some l -> l | None -> t.horizon in
  if Int64.compare target t.clock > 0 then t.clock <- target;
  Totals.add Totals.processed_a (t.processed - t.flushed_processed);
  Totals.add Totals.cancelled_a (t.cancelled - t.flushed_cancelled);
  t.flushed_processed <- t.processed;
  t.flushed_cancelled <- t.cancelled;
  Totals.max_to Totals.heap_peak_a t.heap_peak;
  !count

let events_processed t = t.processed
let events_cancelled t = t.cancelled
let events_skipped _ = 0
let heap_peak t = t.heap_peak
let pending t = Wheel.length t.wheel

let rebind t =
  t.uid <- Atomic.fetch_and_add next_uid 1;
  (* Every queued handle is pending by definition, so walking the
     wheel re-stamps them all. Fired and cancelled handles are left
     alone: [cancel] no-ops on them before it ever looks at the owner. *)
  Wheel.iter
    (fun c -> match (Wheel.value c).cell with Some h -> h.owner <- t.uid | None -> ())
    t.wheel

type snapshot = {
  s_clock : int64;
  s_next_seq : int;
  s_processed : int;
  s_horizon : int64;
  s_cancelled : int;
  s_heap_peak : int;
  s_queued : int;
}

let snapshot t =
  {
    s_clock = t.clock;
    s_next_seq = t.next_seq;
    s_processed = t.processed;
    s_horizon = t.horizon;
    s_cancelled = t.cancelled;
    s_heap_peak = t.heap_peak;
    s_queued = Wheel.length t.wheel;
  }

let restore t s =
  if Wheel.length t.wheel <> s.s_queued then
    invalid_arg "Engine.restore: queue length does not match the snapshot";
  (* A non-empty queue carries closures the snapshot cannot describe,
     so it must be byte-for-byte the snapshot's queue already (whole-
     image checkpoint first); equal length is the cheap check and the
     sequence counter catches control planes that merely drained back
     to the same length, which eager cancellation makes possible. An
     empty queue is different: [s_queued = 0] fully describes it, so
     rewinding a quiescent engine to a quiescent snapshot is complete
     and allowed even though [next_seq] moved. *)
  if s.s_queued > 0 && t.next_seq <> s.s_next_seq then
    invalid_arg "Engine.restore: engine scheduled events since the snapshot";
  t.clock <- s.s_clock;
  t.next_seq <- s.s_next_seq;
  t.processed <- s.s_processed;
  t.horizon <- s.s_horizon;
  t.cancelled <- s.s_cancelled;
  t.heap_peak <- s.s_heap_peak;
  (* Rewinding to an earlier snapshot must also rewind the flushed
     high-water marks: the events between the snapshot and now will
     re-execute, and [Totals] should count that replayed work. Left at
     their pre-restore values the next flush delta goes negative and
     [Totals.add] silently drops everything up to the old mark. *)
  t.flushed_processed <- min t.flushed_processed s.s_processed;
  t.flushed_cancelled <- min t.flushed_cancelled s.s_cancelled
