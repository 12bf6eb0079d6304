(* Tests for the discrete-event engine and the FIFO server. *)

open Semperos

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.after e 10L (fun () -> log := "b" :: !log);
  Engine.after e 5L (fun () -> log := "a" :: !log);
  Engine.after e 20L (fun () -> log := "c" :: !log);
  ignore (Engine.run e);
  check Alcotest.(list string) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check Alcotest.int64 "clock at last event" 20L (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.after e 10L (fun () -> log := i :: !log)
  done;
  ignore (Engine.run e);
  check Alcotest.(list int) "scheduling order at equal time" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref 0L in
  Engine.after e 10L (fun () -> Engine.after e 15L (fun () -> fired := Engine.now e));
  ignore (Engine.run e);
  check Alcotest.int64 "nested absolute time" 25L !fired

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  List.iter (fun d -> Engine.after e d (fun () -> incr count)) [ 5L; 15L; 25L ];
  let n = Engine.run ~until:20L e in
  check Alcotest.int "events within bound" 2 n;
  check Alcotest.int64 "clock clamped" 20L (Engine.now e);
  check Alcotest.int "pending remains" 1 (Engine.pending e);
  ignore (Engine.run e);
  check Alcotest.int "all fired" 3 !count

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.after e 10L (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.at: time in the past") (fun () ->
          Engine.at e 5L (fun () -> ())));
  ignore (Engine.run e);
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.after: negative delay")
    (fun () -> Engine.after e (-1L) (fun () -> ()))

(* A bounded run with every event beyond the limit still advances the
   clock to the limit — and never rewinds it on a later, lower bound. *)
let test_engine_until_no_event () =
  let e = Engine.create () in
  Engine.after e 100L (fun () -> ());
  let n = Engine.run ~until:40L e in
  check Alcotest.int "nothing fired" 0 n;
  check Alcotest.int64 "clock at the limit" 40L (Engine.now e);
  (* A second bound below the current clock must not rewind time. *)
  let n = Engine.run ~until:10L e in
  check Alcotest.int "still nothing fired" 0 n;
  check Alcotest.int64 "clock never rewinds" 40L (Engine.now e);
  check Alcotest.int "event still queued" 1 (Engine.pending e);
  ignore (Engine.run e);
  check Alcotest.int64 "event fires at its time" 100L (Engine.now e)

(* The other exit path: the queue drains *before* the bound. The clock
   must still advance to the bound, so quiescent periods pass time. *)
let test_engine_until_drained () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.after e 10L (fun () -> incr fired);
  let n = Engine.run ~until:500L e in
  check Alcotest.int "event fired" 1 n;
  check Alcotest.int "callback ran" 1 !fired;
  check Alcotest.int64 "clock advanced to the bound" 500L (Engine.now e);
  (* Entirely empty queue: a bounded run is pure time passing. *)
  ignore (Engine.run ~until:900L e);
  check Alcotest.int64 "empty run still advances" 900L (Engine.now e);
  (* ... but an unbounded run of an empty queue leaves the clock put. *)
  ignore (Engine.run e);
  check Alcotest.int64 "unbounded drain keeps clock" 900L (Engine.now e);
  (* And a bound in the past never rewinds. *)
  ignore (Engine.run ~until:100L e);
  check Alcotest.int64 "no rewind" 900L (Engine.now e)

(* Repeated bounded runs make progress and eventually drain. *)
let test_engine_until_repeated () =
  let e = Engine.create () in
  let fired = ref 0 in
  List.iter (fun d -> Engine.after e d (fun () -> incr fired)) [ 10L; 30L; 50L; 70L ];
  let steps = ref 0 in
  while Engine.pending e > 0 do
    incr steps;
    if !steps > 100 then Alcotest.fail "bounded runs stopped making progress";
    ignore (Engine.run ~until:(Int64.add (Engine.now e) 25L) e)
  done;
  check Alcotest.int "all fired" 4 !fired;
  (* The final bounded run drains the queue before its bound, and the
     clock still advances to the bound (75), not the last event. *)
  check Alcotest.int64 "clock at final bound" 75L (Engine.now e)

(* Same-time events straddling the bound fire together, in seq order. *)
let test_engine_until_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 3 do
    Engine.after e 20L (fun () -> log := i :: !log)
  done;
  Engine.after e 21L (fun () -> log := 99 :: !log);
  ignore (Engine.run ~until:20L e);
  check Alcotest.(list int) "all of time 20 fired in order" [ 1; 2; 3 ] (List.rev !log);
  check Alcotest.int "time 21 still pending" 1 (Engine.pending e);
  ignore (Engine.run e);
  check Alcotest.(list int) "straggler after" [ 1; 2; 3; 99 ] (List.rev !log)

let test_engine_counts () =
  let e = Engine.create () in
  Engine.after e 1L (fun () -> ());
  Engine.after e 2L (fun () -> ());
  ignore (Engine.run e);
  check Alcotest.int "processed" 2 (Engine.events_processed e)

(* ------------------------------------------------------------------ *)
(* Cancellable timers                                                  *)

(* A cancel unlinks the event at once: [pending] drops, the callback
   never runs, and the drained clock still reaches the cancelled
   event's time (the horizon rule). *)
let test_cancel_before_fire () =
  let e = Engine.create () in
  let fired = ref false and live = ref false in
  let h = Engine.after_cancellable e 20L (fun () -> fired := true) in
  Engine.after e 10L (fun () -> live := true);
  check Alcotest.int "pending counts both" 2 (Engine.pending e);
  Engine.cancel e h;
  check Alcotest.int "pending excludes cancelled" 1 (Engine.pending e);
  check Alcotest.int "cancelled" 1 (Engine.events_cancelled e);
  ignore (Engine.run e);
  check Alcotest.bool "cancelled never fires" false !fired;
  check Alcotest.bool "live fires" true !live;
  check Alcotest.int "processed excludes cancelled" 1 (Engine.events_processed e);
  check Alcotest.int "eager unlink never skips" 0 (Engine.events_skipped e);
  check Alcotest.int64 "clock reaches the cancelled horizon" 20L (Engine.now e)

let test_cancel_after_fire_and_double () =
  let e = Engine.create () in
  let n = ref 0 in
  let h = Engine.after_cancellable e 1L (fun () -> incr n) in
  ignore (Engine.run e);
  check Alcotest.int "fired once" 1 !n;
  Engine.cancel e h;
  check Alcotest.int "cancel after fire is a no-op" 0 (Engine.events_cancelled e);
  let h2 = Engine.after_cancellable e 5L (fun () -> incr n) in
  Engine.cancel e h2;
  Engine.cancel e h2;
  check Alcotest.int "double cancel counts once" 1 (Engine.events_cancelled e);
  ignore (Engine.run e);
  check Alcotest.int "cancelled callback never ran" 1 !n

let test_cancel_interleaved_with_until () =
  let e = Engine.create () in
  let order = ref [] in
  let note x () = order := x :: !order in
  ignore (Engine.after_cancellable e 10L (note 10));
  let h20 = Engine.after_cancellable e 20L (note 20) in
  ignore (Engine.after_cancellable e 30L (note 30));
  ignore (Engine.run ~until:15L e);
  check Alcotest.(list int) "first window" [ 10 ] (List.rev !order);
  (* Cancel between bounded runs: the event is already queued below the
     next window's limit, and must never surface. *)
  Engine.cancel e h20;
  ignore (Engine.run e);
  check Alcotest.(list int) "cancelled event elided" [ 10; 30 ] (List.rev !order);
  check Alcotest.int "processed" 2 (Engine.events_processed e);
  check Alcotest.int "cancelled" 1 (Engine.events_cancelled e);
  check Alcotest.int "skipped" 0 (Engine.events_skipped e)

(* Mass cancel: every cancel unlinks its cell on the spot, so [pending]
   and the occupancy peak track live events exactly and the survivors
   still fire in order. *)
let test_cancel_mass () =
  let e = Engine.create () in
  let fired = ref [] in
  let victims =
    List.init 200 (fun i ->
        Engine.at_cancellable e (Int64.of_int (1000 + i)) (fun () -> fired := (-i) :: !fired))
  in
  for i = 1 to 10 do
    Engine.at e (Int64.of_int i) (fun () -> fired := i :: !fired)
  done;
  check Alcotest.int "pending before" 210 (Engine.pending e);
  check Alcotest.int "occupancy peak saw the full queue" 210 (Engine.heap_peak e);
  List.iter (Engine.cancel e) victims;
  check Alcotest.int "pending after mass cancel" 10 (Engine.pending e);
  check Alcotest.int "cancelled" 200 (Engine.events_cancelled e);
  ignore (Engine.run e);
  check Alcotest.(list int) "survivors fire in order" (List.init 10 (fun i -> i + 1))
    (List.rev !fired);
  check Alcotest.int "nothing skipped" 0 (Engine.events_skipped e);
  check Alcotest.int64 "clock still reaches the horizon" 1199L (Engine.now e)

let test_cancel_obs_counters () =
  let obs = Obs.Registry.create () in
  let e = Engine.create ~obs () in
  let h = Engine.after_cancellable e 5L (fun () -> ()) in
  Engine.cancel e h;
  ignore (Engine.run e);
  let s = Obs.Json.to_string (Obs.Registry.snapshot obs) in
  let has sub = Str_contains.contains s sub in
  check Alcotest.bool "events_cancelled exported" true
    (has "\"engine.events_cancelled\":{\"type\":\"counter\",\"value\":1}");
  check Alcotest.bool "heap_peak exported" true (has "\"engine.heap_peak\":{\"type\":\"gauge\"");
  check Alcotest.bool "no skipped counter" false (has "engine.events_skipped")

(* Regression: with cancellable retry timers the event queue tracks
   in-flight work, not history. The seed engine left every acked IKC
   message's retransmission tick queued for [retry_timeout] cycles, so
   a run of sequential spanning exchanges (the Table 3 microbench
   pattern) kept a backlog proportional to the ops issued; now the ack
   cancels the tick and [pending] must not grow with the op count. *)
let max_pending_over_spanning_exchanges n =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:4 ()) in
  let a = System.spawn_vpe sys ~kernel:0 in
  let b = System.spawn_vpe sys ~kernel:1 in
  let e = System.engine sys in
  let maxp = ref 0 in
  for _ = 1 to n do
    let sel =
      match System.syscall_sync sys a (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw })
      with
      | Protocol.R_sel s -> s
      | r -> Alcotest.failf "alloc failed: %a" Protocol.pp_reply r
    in
    let result = ref None in
    System.syscall sys b
      (Protocol.Sys_obtain_from { donor_vpe = a.Vpe.id; donor_sel = sel })
      (fun r -> result := Some r);
    while !result = None do
      if Engine.pending e > !maxp then maxp := Engine.pending e;
      ignore (Engine.run ~until:(Int64.add (Engine.now e) 1_000L) e)
    done
  done;
  ignore (Engine.run e);
  (!maxp, Engine.events_cancelled e)

let test_pending_bounded_by_in_flight () =
  let p10, c10 = max_pending_over_spanning_exchanges 10 in
  let p50, c50 = max_pending_over_spanning_exchanges 50 in
  check Alcotest.bool "retry timers are being cancelled" true (c10 > 0 && c50 > c10);
  check Alcotest.bool
    (Printf.sprintf "pending is O(in-flight): %d ops peak %d vs %d ops peak %d" 10 p10 50 p50)
    true
    (p50 <= p10 + 4)

(* Far-apart times exercise the wheel's upper levels: each pop crosses
   several span boundaries and cascades whole slots down, and order —
   including seq order for equal times planted before and after a
   cascade — must survive. *)
let test_wheel_cascade_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note x () = log := x :: !log in
  (* spread over ~2^30 cycles: levels 0-6 all get traffic *)
  let times = [ 3L; 40L; 1_025L; 33_000L; 1_048_577L; 1_073_741_824L ] in
  List.iteri (fun i t -> Engine.at e t (note i)) times;
  (* same-time pair straddling a cascade: scheduled late, fires in seq order *)
  Engine.at e 1_048_577L (note 100);
  ignore (Engine.run ~until:1_000L e);
  check Alcotest.(list int) "low levels drained in order" [ 0; 1 ] (List.rev !log);
  (* scheduling behind the horizon but ahead of the clock still works
     after cascades have advanced the wheel cursor *)
  Engine.at e 1_500L (note 50);
  ignore (Engine.run e);
  check
    Alcotest.(list int)
    "cascaded order, ties in seq order"
    [ 0; 1; 2; 50; 3; 4; 100; 5 ]
    (List.rev !log);
  check Alcotest.int64 "clock at last event" 1_073_741_824L (Engine.now e)

(* A cancelled timer beyond a bounded run's limit must not pull the
   clock past the limit; only a drained unbounded run catches up to
   the cancelled horizon. A wheel that judged its queue drained once
   the cancel unlinked the cell jumped to [horizon] early, sliding
   every later relative schedule; the balance bench caught this via a
   cancelled retry timer. *)
let test_cancelled_horizon_clock_parity () =
  let e = Engine.create () in
  let h = Engine.after_cancellable e 50_000L (fun () -> Alcotest.fail "cancelled event fired") in
  Engine.cancel e h;
  ignore (Engine.run ~until:1_000L e);
  check Alcotest.int64 "bounded run holds at the limit" 1_000L (Engine.now e);
  ignore (Engine.run ~until:2_000L e);
  check Alcotest.int64 "second bounded run" 2_000L (Engine.now e);
  ignore (Engine.run e);
  check Alcotest.int64 "drain catches up to the cancelled horizon" 50_000L (Engine.now e)

(* Regression: the same rule after a mass cancel. Far timers cancelled
   first, then near ones, once emptied the record of cancelled times
   that bounded runs consulted (a 50%-dead compaction threshold), so
   the run decided the queue had drained and jumped the clock to the
   horizon at 50,063: past [until], and far enough that scheduling at
   2,000 then raised "time in the past". *)
let test_mass_cancel_bounded_run () =
  let e = Engine.create () in
  let never () = Alcotest.fail "cancelled event fired" in
  let far = List.init 64 (fun i -> Engine.at_cancellable e (Int64.of_int (50_000 + i)) never) in
  let near = List.init 65 (fun _ -> Engine.at_cancellable e 500L never) in
  List.iter (Engine.cancel e) far;
  List.iter (Engine.cancel e) near;
  ignore (Engine.run ~until:1_000L e);
  check Alcotest.int64 "bounded run ends at until" 1_000L (Engine.now e);
  let fired = ref false in
  Engine.at e 2_000L (fun () -> fired := true);
  ignore (Engine.run e);
  check Alcotest.bool "later event fires" true !fired;
  check Alcotest.int64 "drain catches up to the cancelled horizon" 50_063L (Engine.now e)

(* Regression (satellite of the timer-wheel PR): a quiescent rewind
   left [flushed_*] at their pre-restore high-water marks, so the next
   [run]'s flush delta went negative and [Totals] silently dropped the
   replayed work. *)
let test_restore_rewinds_flush_marks () =
  let e = Engine.create () in
  for _ = 1 to 2 do
    Engine.after e 10L (fun () -> ())
  done;
  ignore (Engine.run e);
  let snap = Engine.snapshot e in
  (* move on: three more events, flushed into Totals *)
  for _ = 1 to 3 do
    Engine.after e 10L (fun () -> ())
  done;
  ignore (Engine.run e);
  check Alcotest.int "moved on" 5 (Engine.events_processed e);
  Engine.restore e snap;
  check Alcotest.int "rewound" 2 (Engine.events_processed e);
  (* replay the same three events: Totals must count them again *)
  let before = Engine.Totals.processed () in
  for _ = 1 to 3 do
    Engine.after e 10L (fun () -> ())
  done;
  ignore (Engine.run e);
  check Alcotest.int "replayed work reaches Totals" 3 (Engine.Totals.processed () - before)

(* ------------------------------------------------------------------ *)
(* Server                                                              *)

let test_server_fifo () =
  let e = Engine.create () in
  let s = Server.create e ~name:"srv" in
  let log = ref [] in
  Server.submit s ~cost:10L (fun () -> log := ("a", Engine.now e) :: !log);
  Server.submit s ~cost:5L (fun () -> log := ("b", Engine.now e) :: !log);
  ignore (Engine.run e);
  check
    Alcotest.(list (pair string int64))
    "serialised in order"
    [ ("a", 10L); ("b", 15L) ]
    (List.rev !log);
  check Alcotest.int64 "busy cycles" 15L (Server.busy_cycles s);
  check Alcotest.int "completed" 2 (Server.completed s)

let test_server_idle_gap () =
  let e = Engine.create () in
  let s = Server.create e ~name:"srv" in
  let done_at = ref 0L in
  Server.submit s ~cost:10L (fun () -> ());
  ignore (Engine.run e);
  (* Second job arrives after the server went idle. *)
  Engine.after e 100L (fun () -> Server.submit s ~cost:7L (fun () -> done_at := Engine.now e));
  ignore (Engine.run e);
  check Alcotest.int64 "starts immediately when idle" 117L !done_at

let test_server_dynamic_cost () =
  let e = Engine.create () in
  let s = Server.create e ~name:"srv" in
  let state = ref 0 in
  let post_ran_at = ref 0L in
  Server.submit_work s (fun () ->
      state := 42;
      (* cost computed from the state change *)
      (Int64.of_int (!state * 2), fun () -> post_ran_at := Engine.now e));
  ignore (Engine.run e);
  check Alcotest.int "state changed at start" 42 !state;
  check Alcotest.int64 "post after dynamic cost" 84L !post_ran_at

let test_server_zero_cost () =
  let e = Engine.create () in
  let s = Server.create e ~name:"srv" in
  let ran = ref false in
  Server.submit s ~cost:0L (fun () -> ran := true);
  ignore (Engine.run e);
  check Alcotest.bool "zero-cost job runs" true !ran;
  Alcotest.check_raises "negative" (Invalid_argument "Server.submit: negative cost") (fun () ->
      Server.submit s ~cost:(-1L) (fun () -> ()))

let test_server_queue_stats () =
  let e = Engine.create () in
  let s = Server.create e ~name:"srv" in
  for _ = 1 to 5 do
    Server.submit s ~cost:10L (fun () -> ())
  done;
  check Alcotest.bool "queue grew" true (Server.max_queue_length s >= 3);
  ignore (Engine.run e);
  check Alcotest.int "drained" 0 (Server.queue_length s);
  check (Alcotest.float 1e-9) "utilisation" 1.0 (Server.utilisation s ~horizon:50L)

let suite =
  [
    Alcotest.test_case "engine time order" `Quick test_engine_order;
    Alcotest.test_case "engine same-time FIFO" `Quick test_engine_same_time_fifo;
    Alcotest.test_case "engine nested scheduling" `Quick test_engine_nested_scheduling;
    Alcotest.test_case "engine bounded run" `Quick test_engine_until;
    Alcotest.test_case "engine bounded run, empty window" `Quick test_engine_until_no_event;
    Alcotest.test_case "engine bounded run, drained queue" `Quick test_engine_until_drained;
    Alcotest.test_case "engine repeated bounded runs" `Quick test_engine_until_repeated;
    Alcotest.test_case "engine bounded run, same-time events" `Quick test_engine_until_same_time;
    Alcotest.test_case "engine rejects the past" `Quick test_engine_past_rejected;
    Alcotest.test_case "engine counters" `Quick test_engine_counts;
    Alcotest.test_case "cancel before fire (wheel)" `Quick test_cancel_before_fire;
    Alcotest.test_case "cancel after fire / double cancel" `Quick test_cancel_after_fire_and_double;
    Alcotest.test_case "cancel interleaved with bounded runs" `Quick
      test_cancel_interleaved_with_until;
    Alcotest.test_case "mass cancel unlinks eagerly (wheel)" `Quick test_cancel_mass;
    Alcotest.test_case "wheel cascade preserves order" `Quick test_wheel_cascade_order;
    Alcotest.test_case "cancelled horizon holds the clock (bounded runs)" `Quick
      test_cancelled_horizon_clock_parity;
    Alcotest.test_case "mass cancel keeps run at until" `Quick test_mass_cancel_bounded_run;
    Alcotest.test_case "restore rewinds the Totals flush marks" `Quick
      test_restore_rewinds_flush_marks;
    Alcotest.test_case "cancellation counters exported to obs" `Quick test_cancel_obs_counters;
    Alcotest.test_case "pending bounded by in-flight work" `Quick
      test_pending_bounded_by_in_flight;
    Alcotest.test_case "server FIFO" `Quick test_server_fifo;
    Alcotest.test_case "server idle gap" `Quick test_server_idle_gap;
    Alcotest.test_case "server dynamic cost" `Quick test_server_dynamic_cost;
    Alcotest.test_case "server zero cost" `Quick test_server_zero_cost;
    Alcotest.test_case "server queue stats" `Quick test_server_queue_stats;
  ]
