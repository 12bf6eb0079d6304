(* Tests for the observability layer: the JSON emitter, the metrics
   registry, the trace ring buffer, and end-to-end determinism of
   snapshots and traces across identically-seeded system runs. *)

open Semperos

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* JSON emitter                                                        *)

let test_json_escaping () =
  let j =
    Obs.Json.(Obj [ ("k\"ey", Str "a\\b\"c\nd\te\r\x01f") ])
  in
  check Alcotest.string "escapes" "{\"k\\\"ey\":\"a\\\\b\\\"c\\nd\\te\\r\\u0001f\"}"
    (Obs.Json.to_string j);
  (* The validator must accept everything the emitter produces. *)
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "emitter output rejected: %s" e

let test_json_non_finite () =
  let j = Obs.Json.(Arr [ Float nan; Float infinity; Float neg_infinity; Float 1.5 ]) in
  check Alcotest.string "non-finite floats become null" "[null,null,null,1.5]"
    (Obs.Json.to_string j)

let test_json_parse_roundtrip () =
  let j =
    Obs.Json.(
      Obj
        [
          ("null", Null);
          ("bool", Bool true);
          ("int", Int (-42));
          ("float", Float 2.25);
          ("str", Str "x");
          ("arr", Arr [ Int 1; Obj [ ("nested", Bool false) ] ]);
          ("empty_obj", Obj []);
          ("empty_arr", Arr []);
        ])
  in
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok j' ->
    check Alcotest.string "round-trips byte-identically" (Obs.Json.to_string j)
      (Obs.Json.to_string j')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_parse_rejects () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
      | Error _ -> ())
    bad

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_registry_counters () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "a.hits" in
  Obs.Registry.incr c;
  Obs.Registry.add c 4;
  check Alcotest.int "counter value" 5 (Obs.Registry.value c);
  (* Get-or-create: the same name yields the same instrument. *)
  let c' = Obs.Registry.counter r "a.hits" in
  Obs.Registry.incr c';
  check Alcotest.int "aliased" 6 (Obs.Registry.value c);
  check Alcotest.(list string) "names sorted" [ "a.hits" ] (Obs.Registry.names r)

let test_registry_kind_clash () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.counter r "x");
  Alcotest.check_raises "histogram over counter"
    (Invalid_argument "Obs.Registry: x already registered as a counter, not a histogram")
    (fun () -> ignore (Obs.Registry.histogram r "x" ~buckets:[| 1.0 |]))

let test_histogram_bucket_edges () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram r "lat" ~buckets:[| 10.0; 20.0 |] in
  (* A bound is inclusive: x lands in the first bucket whose bound >= x. *)
  List.iter (Obs.Registry.observe h) [ 0.0; 10.0; 10.5; 20.0; 20.0000001; 1e9 ];
  check Alcotest.(array int) "bucket counts (<=10, <=20, overflow)" [| 2; 2; 2 |]
    (Obs.Registry.bucket_counts h);
  let acc = Obs.Registry.acc h in
  check Alcotest.int "count" 6 (Stats.Acc.count acc);
  (* [observe_int] is [observe] of the same value, moment for moment. *)
  let hf = Obs.Registry.histogram r "f" ~buckets:[| 5.0; 50.0 |] in
  let hi = Obs.Registry.histogram r "i" ~buckets:[| 5.0; 50.0 |] in
  List.iter
    (fun v ->
      Obs.Registry.observe hf (float_of_int v);
      Obs.Registry.observe_int hi v)
    [ 3; 5; 6; 49; 50; 51; 1_000_000; 0; -7 ];
  let state name = List.assoc name (Obs.Registry.dump r) in
  check Alcotest.bool "observe_int = observe" true (state "f" = state "i")

let test_empty_histogram_snapshot () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.histogram r "empty" ~buckets:[| 1.0 |]);
  let s = Obs.Json.to_string (Obs.Registry.snapshot r) in
  (* min/max/mean/sum of an empty histogram must serialize as null, not
     as the invalid JSON spellings of infinities (satellite 1). *)
  check Alcotest.bool "contains nulls" true (contains s "\"min\":null");
  match Obs.Json.parse s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "empty-histogram snapshot invalid: %s (%s)" e s

let test_gauge_replacement () =
  let r = Obs.Registry.create () in
  Obs.Registry.gauge r "g" (fun () -> 1.0);
  Obs.Registry.gauge r "g" (fun () -> 2.5);
  let s = Obs.Json.to_string (Obs.Registry.snapshot r) in
  check Alcotest.bool "latest callback wins" true (contains s "2.5")

(* ------------------------------------------------------------------ *)
(* Trace ring buffer                                                   *)

(* Random text and structured events against a list of every event
   recorded, across several wraparounds and dump/restore round-trips. *)
let check_ring_model () =
  let lines evs = List.map (fun e -> Obs.Json.to_string (Obs.Trace.event_json e)) evs in
  let layout_pes = Obs.Trace.layout "pes=%d vpes=%d caps=%d" in
  let cap = 5 in
  let t = Obs.Trace.create ~capacity:cap in
  let model = ref [] in
  let rng = Random.State.make [| 7 |] in
  let check_against_model what t =
    let all = List.rev !model in
    let len = List.length all in
    let last n = List.filteri (fun i _ -> i >= len - n) all in
    check Alcotest.int (what ^ ": recorded") len (Obs.Trace.recorded t);
    check Alcotest.int (what ^ ": dropped") (max 0 (len - cap)) (Obs.Trace.dropped t);
    check
      Alcotest.(list string)
      (what ^ ": events")
      (lines (last (min len cap)))
      (lines (Obs.Trace.events t));
    for n = -1 to cap + 2 do
      check
        Alcotest.(list string)
        (Printf.sprintf "%s: tail %d" what n)
        (lines (last (max 0 (min n (min len cap)))))
        (lines (Obs.Trace.tail t ~n))
    done
  in
  for i = 1 to 23 do
    let ts = Int64.of_int (i * 10) and op = Random.State.int rng 100 - 1 in
    let e =
      if Random.State.bool rng then begin
        let detail = if i mod 3 = 0 then "" else Printf.sprintf "d%d" i in
        Obs.Trace.emit t ~ts:(Int64.to_int ts) ~kind:"text" ~op ~src:i ~dst:(-1) detail;
        { Obs.Trace.ts; kind = "text"; op; src = i; dst = -1; detail }
      end
      else begin
        let a = Random.State.int rng 50 and b = -i and c = i * 1000 in
        Obs.Trace.emit_ints t ~ts:(Int64.to_int ts) ~kind:"ints" ~op ~src:(-1) ~dst:i layout_pes
          a b c;
        { Obs.Trace.ts; kind = "ints"; op; src = -1; dst = i;
          detail = Printf.sprintf "pes=%d vpes=%d caps=%d" a b c }
      end
    in
    model := e :: !model;
    check_against_model (Printf.sprintf "after %d" i) t;
    (* A dump restored into a fresh ring reads back the same and keeps
       recording in step with the original. *)
    if i mod 4 = 0 then begin
      let copy = Obs.Trace.create ~capacity:cap in
      Obs.Trace.restore copy (Obs.Trace.dump t);
      check_against_model (Printf.sprintf "restored after %d" i) copy;
      check Alcotest.string "restored JSONL" (Obs.Trace.to_jsonl t) (Obs.Trace.to_jsonl copy);
      Obs.Trace.emit copy ~ts:0 ~kind:"x" ~op:0 ~src:0 ~dst:0 "";
      Obs.Trace.emit t ~ts:0 ~kind:"x" ~op:0 ~src:0 ~dst:0 "";
      model := { Obs.Trace.ts = 0L; kind = "x"; op = 0; src = 0; dst = 0; detail = "" } :: !model;
      check_against_model "copy continues" copy;
      check_against_model "original continues" t
    end
  done

let test_trace_wraparound () =
  let t = Obs.Trace.create ~capacity:4 in
  for i = 1 to 10 do
    Obs.Trace.emit t ~ts:i ~kind:"e" ~op:i ~src:(-1) ~dst:(-1) ""
  done;
  check Alcotest.int "recorded counts everything" 10 (Obs.Trace.recorded t);
  check Alcotest.int "dropped = recorded - capacity" 6 (Obs.Trace.dropped t);
  check Alcotest.(list int) "retains the newest, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Obs.Trace.op) (Obs.Trace.events t));
  check Alcotest.(list int) "tail" [ 9; 10 ]
    (List.map (fun e -> e.Obs.Trace.op) (Obs.Trace.tail t ~n:2));
  (* A tail longer than the retained window is just the window. *)
  check Alcotest.int "oversized tail clamps" 4 (List.length (Obs.Trace.tail t ~n:100));
  check_ring_model ()

let test_trace_jsonl () =
  let t = Obs.Trace.create ~capacity:8 in
  Obs.Trace.emit t ~ts:5 ~kind:"syscall_enter" ~op:1 ~src:0 ~dst:2 "alloc";
  Obs.Trace.emit t ~ts:9 ~kind:"ikc_send" ~op:(-1) ~src:(-1) ~dst:(-1) "";
  let lines = String.split_on_char '\n' (String.trim (Obs.Trace.to_jsonl t)) in
  check Alcotest.int "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "invalid JSONL line %s: %s" line e)
    lines;
  (* A structured detail renders to exactly the text [Printf.sprintf]
     builds from the same template. *)
  List.iter
    (fun (template, a, b, c, printed) ->
      let t = Obs.Trace.create ~capacity:2 in
      Obs.Trace.emit_ints t ~ts:1 ~kind:"revoke_mark" ~op:2 ~src:0 ~dst:(-1)
        (Obs.Trace.layout template) a b c;
      check Alcotest.string template
        (Printf.sprintf
           {|{"ts":1,"kind":"revoke_mark","op":2,"src":0,"dst":-1,"detail":"%s"}|} printed
         ^ "\n")
        (Obs.Trace.to_jsonl t))
    [
      ("marked=%d remote_msgs=%d", 1, 1, 0, Printf.sprintf "marked=%d remote_msgs=%d" 1 1);
      ("absorbed=%d marked=%d", 0, 4096, 0, Printf.sprintf "absorbed=%d marked=%d" 0 4096);
      ("deleted=%d", 37, 0, 0, Printf.sprintf "deleted=%d" 37);
      ("vpe%d caps=%d", 12, -3, 0, Printf.sprintf "vpe%d caps=%d" 12 (-3));
      ("vpe%d", max_int, 0, 0, Printf.sprintf "vpe%d" max_int);
      ("pes=%d vpes=%d caps=%d", 2, 3, min_int, Printf.sprintf "pes=%d vpes=%d caps=%d" 2 3 min_int);
    ];
  Alcotest.check_raises "four holes"
    (Invalid_argument "Obs.Trace.layout: more than 3 holes in \"%d%d%d%d\"")
    (fun () -> ignore (Obs.Trace.layout "%d%d%d%d"))

(* ------------------------------------------------------------------ *)
(* Allocation-free recording                                           *)

(* Minor-heap words allocated by [n] calls of [f]; [Gc.minor_words] is
   read unboxed, so the measurement itself allocates nothing. *)
let minor_words_of n f =
  let before = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  Gc.minor_words () -. before

let check_no_alloc what f =
  check (Alcotest.float 0.0) (what ^ ": minor words over 10K calls") 0.0 (minor_words_of 10_000 f)

let layout_mark = Obs.Trace.layout "marked=%d remote_msgs=%d"

let test_recording_no_alloc () =
  let t = Obs.Trace.create ~capacity:64 in
  check_no_alloc "text event" (fun i ->
      Obs.Trace.emit t ~ts:i ~kind:"ikc_send" ~op:i ~src:0 ~dst:1 "obtain_req");
  check_no_alloc "structured event" (fun i ->
      Obs.Trace.emit_ints t ~ts:i ~kind:"revoke_mark" ~op:i ~src:0 ~dst:(-1) layout_mark i (i + 1) 0);
  check Alcotest.int "all recorded" 20_000 (Obs.Trace.recorded t);
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "c" in
  check_no_alloc "counter add" (fun i -> Obs.Registry.add c i);
  check_no_alloc "counter incr" (fun _ -> Obs.Registry.incr c);
  let h = Obs.Registry.histogram r "h" ~buckets:[| 10.0; 100.0 |] in
  let x = 42.5 in
  check_no_alloc "histogram observe" (fun _ -> Obs.Registry.observe h x);
  check_no_alloc "histogram observe_int" (fun i -> Obs.Registry.observe_int h i);
  check Alcotest.int "observations counted" 20_000 (Stats.Acc.count (Obs.Registry.acc h))

(* ------------------------------------------------------------------ *)
(* End-to-end determinism                                              *)

(* Two identically-configured runs must produce byte-identical metric
   snapshots and trace buffers: everything is driven by the sim clock
   and seeded RNGs, never by host time. *)
let fixed_system () =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:3 ()) in
  let a = System.spawn_vpe sys ~kernel:0 in
  let b = System.spawn_vpe sys ~kernel:1 in
  let sel =
    match System.syscall_sync sys a (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw })
    with
    | Protocol.R_sel s -> s
    | r -> Alcotest.failf "alloc failed: %a" Protocol.pp_reply r
  in
  ignore
    (System.syscall_sync sys b (Protocol.Sys_obtain_from { donor_vpe = a.Vpe.id; donor_sel = sel }));
  ignore (System.syscall_sync sys a (Protocol.Sys_revoke { sel; own = true }));
  ignore (System.run sys);
  sys

let run_fixed_workload () =
  let sys = fixed_system () in
  ( Obs.Json.to_string (Obs.Registry.snapshot (System.obs sys)),
    Obs.Trace.to_jsonl (System.trace_buffer sys) )

let test_snapshot_determinism () =
  let m1, t1 = run_fixed_workload () in
  let m2, t2 = run_fixed_workload () in
  check Alcotest.string "metric snapshots byte-identical" m1 m2;
  check Alcotest.string "traces byte-identical" t1 t2;
  match Obs.Json.parse m1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "system snapshot invalid JSON: %s" e

let test_trace_records_protocol () =
  let sys = fixed_system () in
  let jsonl = Obs.Trace.to_jsonl (System.trace_buffer sys) in
  let has kind = contains jsonl (Printf.sprintf "\"kind\":\"%s\"" kind) in
  List.iter
    (fun kind -> check Alcotest.bool kind true (has kind))
    [ "syscall_enter"; "syscall_exit"; "ikc_send"; "ikc_recv"; "revoke_mark"; "revoke_sweep" ];
  (* Committed golden values: the rendered revoke events and the
     checkpoint fingerprint must not move with how the ring stores
     them. *)
  check
    Alcotest.(list string)
    "revoke events"
    [
      {|{"ts":21744,"kind":"revoke_mark","op":2,"src":0,"dst":-1,"detail":"marked=1 remote_msgs=1"}|};
      {|{"ts":23152,"kind":"revoke_mark","op":16777218,"src":1,"dst":-1,"detail":"marked=1 remote_msgs=0"}|};
      {|{"ts":23382,"kind":"revoke_sweep","op":16777218,"src":1,"dst":-1,"detail":"deleted=1"}|};
      {|{"ts":24285,"kind":"revoke_sweep","op":2,"src":0,"dst":-1,"detail":"deleted=1"}|};
    ]
    (List.filter (fun l -> contains l "\"kind\":\"revoke_") (String.split_on_char '\n' jsonl));
  check Alcotest.string "fingerprint" "0bf5cdcecfc1aca99627363f147b98ea" (System.fingerprint sys)

(* The load balancer's occupancy inputs must be exported for every
   kernel unconditionally — `semperos_cli stats` shows them whether or
   not a balancer is attached. *)
let test_occupancy_instruments_exported () =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:3 ()) in
  let v = System.spawn_vpe sys ~kernel:0 in
  ignore (System.syscall_sync sys v (Protocol.Sys_alloc_mem { size = 64L; perms = Perms.rw }));
  let names = Obs.Registry.names (System.obs sys) in
  List.iter
    (fun k ->
      List.iter
        (fun instr ->
          let name = Printf.sprintf "kernel%d.%s" k instr in
          check Alcotest.bool (name ^ " registered") true (List.mem name names))
        [ "busy_cycles"; "queue_depth"; "occupancy" ])
    [ 0; 1 ];
  (* And they appear in the snapshot JSON with the right shape. *)
  let snap = Obs.Json.to_string (Obs.Registry.snapshot (System.obs sys)) in
  (match Obs.Json.parse snap with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "snapshot invalid JSON: %s" e);
  check Alcotest.bool "busy_cycles is a gauge" true
    (contains snap "\"kernel0.busy_cycles\":{\"type\":\"gauge\"");
  check Alcotest.bool "queue_depth is a histogram" true
    (contains snap "\"kernel0.queue_depth\":{\"type\":\"histogram\"")

let suite =
  [
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "json non-finite floats" `Quick test_json_non_finite;
    Alcotest.test_case "json parse round-trip" `Quick test_json_parse_roundtrip;
    Alcotest.test_case "json parse rejects garbage" `Quick test_json_parse_rejects;
    Alcotest.test_case "registry counters" `Quick test_registry_counters;
    Alcotest.test_case "registry kind clash" `Quick test_registry_kind_clash;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_bucket_edges;
    Alcotest.test_case "empty histogram snapshot" `Quick test_empty_histogram_snapshot;
    Alcotest.test_case "gauge replacement" `Quick test_gauge_replacement;
    Alcotest.test_case "trace ring wraparound" `Quick test_trace_wraparound;
    Alcotest.test_case "trace JSONL" `Quick test_trace_jsonl;
    Alcotest.test_case "recording allocates nothing" `Quick test_recording_no_alloc;
    Alcotest.test_case "snapshot determinism" `Quick test_snapshot_determinism;
    Alcotest.test_case "trace records protocol spans" `Quick test_trace_records_protocol;
    Alcotest.test_case "occupancy instruments exported" `Quick test_occupancy_instruments_exported;
  ]
