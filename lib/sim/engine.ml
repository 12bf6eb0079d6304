module Obs = Semper_obs.Obs
module Wheel = Semper_util.Wheel

(* Every event is one wheel cell, stamped with the issuing engine's id
   so that [cancel] never unlinks a cell of a foreign wheel. Cells
   travel inside checkpoint images by marshalled sharing, so a handle
   loaded from an image still points into the loaded wheel. *)
type handle = (unit -> unit) Wheel.cell

type t = {
  mutable uid : int;
  mutable clock : int;
  (* Events ever scheduled; the wheel's insertion order is this
     sequence. *)
  mutable next_seq : int;
  mutable processed : int;
  (* Latest time ever scheduled, cancelled or not. A drained unbounded
     run advances the clock here: the pre-cancellation engine fired
     cancelled timers as no-ops, so its last-popped event was exactly
     the latest-scheduled one, and harnesses that read the clock after
     the queue drains depend on landing there. *)
  mutable horizon : int;
  mutable cancelled : int;
  (* Largest live occupancy of the wheel. *)
  mutable heap_peak : int;
  (* High-water mark already pushed into [Totals]. *)
  mutable flushed_processed : int;
  wheel : (unit -> unit) Wheel.t;
  ctr_cancelled : Obs.Registry.counter option;
}

(* Process-wide totals across every engine, for host-side benchmarking
   of the simulator itself (the per-run registries die with their
   systems, and sweeps fan systems out across domains — hence atomics).
   Flushed from the per-engine fields at the end of each [run] call,
   not per event. *)
module Totals = struct
  let processed_a = Atomic.make 0
  let heap_peak_a = Atomic.make 0

  let processed () = Atomic.get processed_a
  let heap_peak () = Atomic.get heap_peak_a
  let reset_heap_peak () = Atomic.set heap_peak_a 0

  let add a n = if n > 0 then ignore (Atomic.fetch_and_add a n)

  let rec max_to a n =
    let cur = Atomic.get a in
    if n > cur && not (Atomic.compare_and_set a cur n) then max_to a n
end

(* Engine instance ids. Atomic because sweeps create engines on many
   domains at once; the ids only need to be distinct, not dense. *)
let next_uid = Atomic.make 0

let create ?obs () =
  let t =
    {
      uid = Atomic.fetch_and_add next_uid 1;
      clock = 0;
      next_seq = 0;
      processed = 0;
      horizon = 0;
      cancelled = 0;
      heap_peak = 0;
      flushed_processed = 0;
      wheel = Wheel.create ~dummy:ignore ();
      ctr_cancelled =
        Option.map (fun r -> Obs.Registry.counter r "engine.events_cancelled") obs;
    }
  in
  Option.iter
    (fun r -> Obs.Registry.gauge r "engine.heap_peak" (fun () -> float_of_int t.heap_peak))
    obs;
  t

let clock t = t.clock
let now t = Int64.of_int t.clock

(* An int64 time or delay as a wheel tick. Negative values pass through
   for the callers' own checks. *)
let cycles fn x =
  if Int64.compare x (Int64.of_int max_int) > 0 then
    invalid_arg (fn ^ ": time exceeds the timer-wheel range")
  else Int64.to_int x

let schedule t time run =
  if time < t.clock then invalid_arg "Engine.at: time in the past";
  t.next_seq <- t.next_seq + 1;
  if time > t.horizon then t.horizon <- time;
  let c = Wheel.add t.wheel ~time ~stamp:t.uid run in
  let len = Wheel.length t.wheel in
  if len > t.heap_peak then t.heap_peak <- len;
  c

let deadline t delay =
  if delay < 0 then invalid_arg "Engine.after: negative delay";
  if delay > max_int - t.clock then invalid_arg "Engine.after: time exceeds the timer-wheel range";
  t.clock + delay

let at_int t time run = ignore (schedule t time run)
let after_int t delay run = ignore (schedule t (deadline t delay) run)
let at_cancellable t time run = schedule t (cycles "Engine.at" time) run
let after_cancellable t delay run = schedule t (deadline t (cycles "Engine.after" delay)) run
let at t time run = ignore (at_cancellable t time run)
let after t delay run = ignore (after_cancellable t delay run)

let cancel t h =
  if Wheel.linked h then begin
    if Wheel.stamp h <> t.uid then
      invalid_arg
        "Engine.cancel: handle belongs to a different engine (or a loaded image not rebound)";
    Wheel.remove t.wheel h;
    t.cancelled <- t.cancelled + 1;
    Option.iter Obs.Registry.incr t.ctr_cancelled
  end

(* Fire every event due by [limit]. [Wheel.pop ~limit] never advances
   its cursor past the limit, which keeps the cursor <= clock invariant
   that lets a later [schedule] at the current clock land in front of
   it. *)
let rec fire t ~limit count =
  let c = Wheel.pop t.wheel ~limit in
  if c == Wheel.none t.wheel then count
  else begin
    t.clock <- Wheel.time c;
    t.processed <- t.processed + 1;
    Wheel.value c ();
    fire t ~limit (count + 1)
  end

let run ?until t =
  let limit = match until with Some l -> cycles "Engine.run" l | None -> max_int in
  let count = fire t ~limit 0 in
  (* The clock contract (see engine.mli): a bounded run ends at
     [max clock until], a drained unbounded run at [max clock horizon]. *)
  let target = match until with Some _ -> limit | None -> t.horizon in
  if target > t.clock then t.clock <- target;
  Totals.add Totals.processed_a (t.processed - t.flushed_processed);
  t.flushed_processed <- t.processed;
  Totals.max_to Totals.heap_peak_a t.heap_peak;
  count

let events_processed t = t.processed
let events_cancelled t = t.cancelled
let events_skipped _ = 0
let heap_peak t = t.heap_peak
let pending t = Wheel.length t.wheel

let rebind t =
  t.uid <- Atomic.fetch_and_add next_uid 1;
  (* Every queued handle is pending by definition, so walking the
     wheel re-stamps them all. Fired and cancelled handles are left
     alone: [cancel] no-ops on them before it ever looks at the stamp. *)
  Wheel.restamp t.wheel t.uid

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
    s_clock = Int64.of_int t.clock;
    s_next_seq = t.next_seq;
    s_processed = t.processed;
    s_horizon = Int64.of_int t.horizon;
    s_cancelled = t.cancelled;
    s_heap_peak = t.heap_peak;
    s_queued = Wheel.length t.wheel;
  }
