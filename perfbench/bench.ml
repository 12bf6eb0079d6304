(* The repository benchmark: runs one workload for a given number of
   seconds, checks its outputs, and prints every metric by name with
   its unit. See README.md for the workloads and metrics.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--size full|tiny] [--refuse N] [--out DIR]

   The workload is repeated, identically for the seed, at least twice
   and, with [--trace 1], until [S] seconds have passed; without
   tracing, the rest of the [S] seconds goes to timing set-ups alone.
   Set-up time is the median of the set-up samples, event-loop time
   the fastest repetition; simulated metrics and allocation must repeat
   exactly, and the run fails if they do not. With [--trace 1]
   untraced and traced repetitions alternate: the traced ones record
   spans and give the per-layer metrics, the untraced ones the baseline
   for [trace_overhead_ratio]. The last line of standard output is one
   JSON object. *)

open Semperos

let clock_hz = 2.0e9

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : Load.size;
  refuse : int;
  out : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload apps|sessions|revoke-trees --seed N --seconds S --trace 0|1 \
     [--size full|tiny] [--refuse N] [--out DIR]";
  exit 2

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--size" :: "full" :: rest -> go { a with size = Load.Full } rest
    | "--size" :: "tiny" :: rest -> go { a with size = Load.Tiny } rest
    | "--refuse" :: v :: rest -> go { a with refuse = int_of_string v } rest
    | "--out" :: v :: rest -> go { a with out = v } rest
    | _ -> usage ()
  in
  let a =
    try
      go
        {
          workload = "";
          seed = 1;
          seconds = 10.0;
          trace = false;
          size = Load.Full;
          refuse = 0;
          out = ".";
        }
        (List.tl (Array.to_list argv))
    with Failure _ -> usage ()
  in
  if a.seconds <= 0.0 || a.refuse < 0 then usage ();
  a

let build a =
  match a.workload with
  | "apps" -> Apps.build
  | "sessions" -> Sessions.build
  | "revoke-trees" -> Revoke_trees.build
  | _ -> usage ()

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let median xs = Stats.percentile 50.0 xs

let sp_setup = Spans.name "setup"
let sp_run = Spans.name "system.run"
let sp_audit = Spans.name "harness.audit_full"
let sp_audit_inc = Spans.name "harness.audit_incremental"
let sp_shutdown = Spans.name "kernel.shutdown"

let busy k = Int64.to_float (Server.busy_cycles (Kernel.server k))

(* Simulated-layer counters, read through public accessors. Summed
   over kernels; the measured figure is the difference across the
   event loop. *)
let counters sys =
  let ks = System.kernels sys and e = System.engine sys and f = System.fabric sys in
  let obs = System.obs sys in
  let sum g = float_of_int (List.fold_left (fun acc k -> acc + g (Kernel.stats k)) 0 ks) in
  let reg name = float_of_int (Obs.Registry.value (Obs.Registry.counter obs name)) in
  let per_kernel name =
    List.fold_left
      (fun acc k -> acc +. reg (Printf.sprintf "kernel%d.%s" (Kernel.id k) name))
      0.0 ks
  in
  [
    ("sim.events", float_of_int (Engine.events_processed e));
    ("sim.events_cancelled", float_of_int (Engine.events_cancelled e));
    ("sim.events_skipped", float_of_int (Engine.events_skipped e));
    ("kernel.syscalls", sum (fun s -> s.Kernel.syscalls));
    ("kernel.cap_ops", sum (fun s -> s.Kernel.cap_ops));
    ("kernel.ikc_sent", sum (fun s -> s.Kernel.ikc_sent));
    ("kernel.exchanges", sum (fun s -> s.Kernel.exchanges_local + s.Kernel.exchanges_spanning));
    ("kernel.revokes", sum (fun s -> s.Kernel.revokes_local + s.Kernel.revokes_spanning));
    ( "kernel.spanning",
      sum (fun s -> s.Kernel.exchanges_spanning + s.Kernel.revokes_spanning) );
    ("kernel.busy_cycles", List.fold_left (fun acc k -> acc +. busy k) 0.0 ks);
    ("kernel.credit_stalls", sum (fun s -> s.Kernel.credit_stalls));
    ("kernel.retries", sum (fun s -> s.Kernel.retries));
    ("kernel.retry_exhausted", sum (fun s -> s.Kernel.retry_exhausted));
    ("kernel.revoke_sweep_probes", per_kernel "revoke_sweep_probes");
    ("caps.created", sum (fun s -> s.Kernel.caps_created));
    ("caps.deleted", sum (fun s -> s.Kernel.caps_deleted));
    ("noc.messages", float_of_int (Fabric.messages f));
    ("noc.bytes", float_of_int (Fabric.bytes_carried f));
    ("noc.hops", float_of_int (Fabric.hops_traversed f));
    ("noc.delivered", float_of_int (Fabric.messages_delivered f));
    ("dtu.sends", reg "dtu.sends");
    ("obs.trace_events", float_of_int (Obs.Trace.recorded (System.trace_buffer sys)));
  ]

let latency_syscalls = [ "open_session"; "obtain"; "obtain_from"; "revoke" ]

(* Mean syscall latency over every kernel, for one syscall kind. *)
let latency_mean sys name =
  let n, total =
    List.fold_left
      (fun (n, total) k ->
        match Hashtbl.find_opt (Kernel.stats k).Kernel.latencies name with
        | Some acc -> (n + Stats.Acc.count acc, total +. Stats.Acc.sum acc)
        | None -> (n, total))
      (0, 0.0) (System.kernels sys)
  in
  if n = 0 then 0.0 else total /. float_of_int n

type rep = {
  setup_s : float;
  setup_words : float;  (** minor words allocated by the set-up *)
  run_s : float;
  alloc_words : float;
  top_heap_words : int;
  sim : (string * float) list;  (** simulated metrics; must repeat exactly *)
  samples : int;
  attempted : int;
  failed : int;
  layers : (string * float) list;
  self_s : (string * float) list;  (** span self times (traced repetitions) *)
  violations : string list;
  op_errors : string list;  (** the first few failed operations *)
}

let traced f = if !Spans.on then Spans.Gc_phases.around f else f ()

(* One timed set-up, from a collected heap: seconds, minor words, and
   the load it built. *)
let setup a =
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  let t0 = now_s () in
  let s = Spans.enter sp_setup in
  let l = build a ~size:a.size ~seed:a.seed ~refuse:a.refuse in
  Spans.leave s;
  let t = now_s () -. t0 in
  (t, Gc.minor_words () -. m0, l)

(* A set-up sample is the fastest of a block of set-ups timed back to
   back for about [setup_block_s], each building a system and shutting
   it down unrun. The host's speed drifts by up to a factor of two in
   spells of tens of milliseconds to tens of seconds, so one set-up
   reads whichever spell it lands in. Gives each set-up's seconds and
   minor words. *)
let setup_block_s = 1.0

let setup_block a =
  let until = now_s () +. setup_block_s in
  let rec go () =
    if now_s () >= until then []
    else
      let t, w, l = setup a in
      ignore (System.shutdown l.Load.sys);
      (t, w) :: go ()
  in
  go ()

let rep a ~trace =
  Spans.reset ();
  Spans.on := trace;
  let setup_s, setup_w, l = setup a in
  let sys = l.Load.sys in
  let inc = Audit.Incremental.create ~full_every:0 sys in
  let ks = System.kernels sys in
  let c0 = counters sys and cap0 = System.total_cap_ops sys and sim0 = System.now sys in
  let busy0 = List.map busy ks in
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t1 = now_s () in
  traced (fun () ->
      let s = Spans.enter sp_run in
      ignore (System.run sys);
      Spans.leave s);
  let run_s = now_s () -. t1 in
  let m1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let ops = l.Load.ops in
  Ops.close ops ~now:(System.now sys);
  let c1 = counters sys in
  let d name = List.assoc name c1 -. List.assoc name c0 in
  let sim_span = Int64.to_float (Int64.sub (System.now sys) sim0) in
  let makespan = Int64.to_float (Ops.makespan ops ~origin:sim0) in
  let cap_ops = float_of_int (System.total_cap_ops sys - cap0) in
  let sim =
    [
      ("sim_makespan_cycles", makespan);
      ("sim_cap_ops_per_s", if makespan > 0.0 then cap_ops /. (makespan /. clock_hz) else 0.0);
      ("op_p50_cycles", Ops.percentile ops 50.0);
      ("op_p99_cycles", Ops.percentile ops 99.0);
      ("op_p999_cycles", Ops.percentile ops 99.9);
      ("failed_ratio", float_of_int ops.Ops.failed /. float_of_int (max 1 ops.Ops.attempted));
      ("attempted", float_of_int ops.Ops.attempted);
    ]
  in
  let kmax f = List.fold_left (fun acc k -> Float.max acc (f k)) 0.0 ks in
  let ratio x y = if y > 0.0 then x /. y else 0.0 in
  let live_end = float_of_int (Load.live_caps sys) in
  let layers =
    [
      ("sim.events", d "sim.events");
      ("sim.events_cancelled", d "sim.events_cancelled");
      ("sim.events_skipped", d "sim.events_skipped");
      ("sim.pending_peak", float_of_int (Engine.heap_peak (System.engine sys)));
      ("sim.ns_per_event", ratio (run_s *. 1e9) (d "sim.events"));
      ("kernel.syscalls", d "kernel.syscalls");
      ("kernel.cap_ops", d "kernel.cap_ops");
      ("kernel.ikc_sent", d "kernel.ikc_sent");
      ("kernel.ikc_per_cap_op", ratio (d "kernel.ikc_sent") (d "kernel.cap_ops"));
      ( "kernel.spanning_share",
        ratio (d "kernel.spanning") (d "kernel.exchanges" +. d "kernel.revokes") );
      ("kernel.busy_cycles", d "kernel.busy_cycles");
      ( "kernel.occupancy_max",
        List.fold_left2 (fun acc k b0 -> Float.max acc (ratio (busy k -. b0) sim_span)) 0.0 ks busy0
      );
      ( "kernel.queue_max",
        kmax (fun k -> float_of_int (Server.max_queue_length (Kernel.server k))) );
      ("kernel.credit_stalls", d "kernel.credit_stalls");
      ("kernel.retries", d "kernel.retries");
      ("kernel.retry_exhausted", d "kernel.retry_exhausted");
      ( "kernel.threads_max_in_use",
        kmax (fun k -> float_of_int (Thread_pool.max_in_use (Kernel.threads k))) );
    ]
    @ List.map (fun n -> ("kernel.latency_mean_cycles." ^ n, latency_mean sys n)) latency_syscalls
    @ [
        ("kernel.revoke_sweep_probes", d "kernel.revoke_sweep_probes");
        ("caps.created", d "caps.created");
        ("caps.deleted", d "caps.deleted");
        ("caps.live_end", live_end);
        ("noc.messages", d "noc.messages");
        ("noc.bytes", d "noc.bytes");
        ("noc.hops_per_msg", ratio (d "noc.hops") (d "noc.messages"));
        ("noc.delivered_ratio", ratio (d "noc.delivered") (d "noc.messages"));
        ("dtu.sends", d "dtu.sends");
      ]
    @ (let own = l.Load.layers () in
       List.map
         (fun n -> (n, Option.value ~default:0.0 (List.assoc_opt n own)))
         [
           "m3fs.meta_ops";
           "m3fs.grants";
           "m3fs.revoke_calls";
           "m3fs.occupancy_max";
           "trace.io_ops";
           "trace.errors";
         ])
    @ [
        ("obs.trace_events", d "obs.trace_events");
        ("gc.minor_collections", float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
        ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
        ("gc.promoted_mwords", (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6);
      ]
  in
  (* The correctness gate. *)
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  if ops.Ops.completed + ops.Ops.failed <> ops.Ops.attempted then
    fail "%d operations attempted, but %d completed and %d failed" ops.Ops.attempted
      ops.Ops.completed ops.Ops.failed;
  if ops.Ops.attempted = 0 then fail "no operation was attempted";
  List.iter (fun m -> fail "%s" m) (l.Load.check ());
  let s = Spans.enter sp_audit in
  let full = Audit.run sys in
  Spans.leave s;
  let s = Spans.enter sp_audit_inc in
  let incr = Audit.Incremental.run inc in
  Spans.leave s;
  List.iter (fun e -> fail "audit: %s" e) full.Audit.errors;
  if incr <> full then fail "incremental audit disagrees with the full audit";
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let s = Spans.enter sp_shutdown in
  let survivors = System.shutdown sys in
  Spans.leave s;
  if survivors <> 0 then fail "shutdown left %d capabilities" survivors;
  Spans.on := false;
  {
    setup_s;
    setup_words = setup_w;
    run_s;
    alloc_words = m1 -. m0;
    top_heap_words;
    sim;
    samples = ops.Ops.completed;
    attempted = ops.Ops.attempted;
    failed = ops.Ops.failed;
    layers;
    self_s = (if trace then Spans.self_times () else []);
    violations = List.rev !violations;
    op_errors = List.rev ops.Ops.errors;
  }

let json_str s = "\"" ^ String.escaped s ^ "\""
(* Every digit as measured; integral counts without a fraction. *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_str n) (json_num v) (json_str u))
         ms)
  ^ "}"

let layer_units =
  [
    ("sim.ns_per_event", "ns");
    ("kernel.ikc_per_cap_op", "ratio");
    ("kernel.spanning_share", "ratio");
    ("kernel.busy_cycles", "cycles");
    ("kernel.occupancy_max", "ratio");
    ("noc.bytes", "bytes");
    ("noc.hops_per_msg", "hops");
    ("noc.delivered_ratio", "ratio");
    ("m3fs.occupancy_max", "ratio");
    ("gc.promoted_mwords", "Mwords");
  ]

let layer_unit n =
  match List.assoc_opt n layer_units with
  | Some u -> u
  | None ->
    if String.starts_with ~prefix:"kernel.latency_mean_cycles." n then "cycles"
    else if String.ends_with ~suffix:"_s" n then "s"
    else "count"

let span_metrics =
  [
    ("setup.system_create_s", "setup.system_create");
    ("setup.services_s", "setup.services");
    ("setup.spawn_s", "setup.spawn");
    ("setup.arm_s", "setup.arm");
    ("client.callback_s", "client.callback");
    ("service.callback_s", "service.callback");
    ("system.run_self_s", "system.run");
    ("harness.audit_full_s", "harness.audit_full");
    ("harness.audit_incremental_s", "harness.audit_incremental");
    ("kernel.shutdown_s", "kernel.shutdown");
    ("gc.minor_s", "gc.minor");
    ("gc.major_s", "gc.major_slice");
  ]

let () =
  let a = parse Sys.argv in
  let start = now_s () in
  let deadline = start +. a.seconds in
  (* Untraced repetitions always, at least two; with --trace 1, a traced
     one after each untraced one until the time is up. Without tracing,
     the simulated metrics need no more repetitions, and the rest of the
     time goes to set-up blocks, so that [setup_s] samples the host over
     the whole run. The blocks come last: the garbage they leave grows
     the heap, which changes the GC's pace in any later event loop. *)
  let plain = ref [] and traced_reps = ref [] and blocks = ref [] in
  let rec loop () =
    plain := rep a ~trace:false :: !plain;
    if a.trace then traced_reps := rep a ~trace:true :: !traced_reps;
    if List.length !plain < 2 || (a.trace && now_s () < deadline) then loop ()
  in
  loop ();
  while (not a.trace) && now_s () < deadline do
    blocks := setup_block a :: !blocks
  done;
  let plain = List.rev !plain and traced_reps = List.rev !traced_reps in
  let blocks = List.rev !blocks in
  let setups =
    if blocks = [] then List.map (fun r -> r.setup_s) plain
    else List.map (List.fold_left (fun acc (t, _) -> Float.min acc t) infinity) blocks
  in
  let all = plain @ traced_reps in
  let first = List.hd plain in
  let violations =
    List.concat_map (fun r -> r.violations) all
    @ (if List.exists (fun r -> r.sim <> first.sim) all then
         [ "simulated metrics differ between repetitions of the same seed" ]
       else [])
    @
    (if List.exists (fun r -> r.alloc_words <> first.alloc_words) plain then
       [ "allocated words differ between repetitions of the same seed" ]
     else [])
    @
    let words = List.map (fun r -> r.setup_words) plain @ List.concat_map (List.map snd) blocks in
    if List.exists (( <> ) (List.hd words)) words then
      [ "set-up allocation differs between set-ups of the same seed" ]
    else []
  in
  let violations = List.sort_uniq compare violations in
  let sim n = List.assoc n first.sim in
  (* Every repetition does the same simulated work, and interference
     from the host only ever slows one down, so the fastest repetition
     is the steadiest estimate of the event loop's cost; the median and
     quartiles are printed beside it. *)
  let fastest reps = List.fold_left (fun acc r -> Float.min acc r.run_s) infinity reps in
  let run_s = fastest plain in
  let e2e =
    [
      ("setup_s", median setups, "s");
      ("setup_alloc_mwords", first.setup_words /. 1e6, "Mwords");
      ("run_s", run_s, "s");
      ( "peak_heap_mb",
        float_of_int (first.top_heap_words * (Sys.word_size / 8)) /. 1e6,
        "MB" );
      ("alloc_mwords", first.alloc_words /. 1e6, "Mwords");
      ("sim_makespan_cycles", sim "sim_makespan_cycles", "cycles");
      ("sim_cap_ops_per_s", sim "sim_cap_ops_per_s", "ops/s");
      ("op_p50_cycles", sim "op_p50_cycles", "cycles");
      ("op_p99_cycles", sim "op_p99_cycles", "cycles");
      ("op_p999_cycles", sim "op_p999_cycles", "cycles");
      ("failed_ratio", sim "failed_ratio", "ratio");
    ]
  in
  let per_layer =
    match traced_reps with
    | [] -> []
    | reps ->
      let last = List.nth reps (List.length reps - 1) in
      let span_med key = median (List.map (fun r -> List.assoc key r.self_s) reps) in
      List.map (fun (n, v) -> (n, v, layer_unit n)) last.layers
      @ List.map (fun (n, key) -> (n, span_med key, "s")) span_metrics
      @ [
          ("gc.events_lost", float_of_int !Spans.Gc_phases.lost, "count");
          ("trace_overhead_ratio", fastest reps /. run_s, "ratio");
        ]
  in
  (* [run_s] is also a per-layer metric: the event loop's host time. *)
  let per_layer_all = if per_layer = [] then [] else ("run_s", run_s, "s") :: per_layer in
  Printf.printf "workload %s seed %d: %d untraced and %d traced repetitions in %.1f s\n" a.workload
    a.seed (List.length plain) (List.length traced_reps) (now_s () -. start);
  List.iter
    (fun (n, v, u) ->
      let note =
        match n with
        | "op_p50_cycles" | "op_p99_cycles" | "op_p999_cycles" ->
          Printf.sprintf "  (n=%d)" first.samples
        | _ -> ""
      in
      Printf.printf "  %-28s %18.6g %s%s\n" n v u note)
    (e2e @ per_layer);
  let runs = List.map (fun r -> r.run_s) plain in
  Printf.printf "  run_s median %.6g, quartiles %.6g..%.6g; by repetition: %s\n" (median runs)
    (Stats.percentile 25.0 runs) (Stats.percentile 75.0 runs)
    (String.concat " " (List.map (Printf.sprintf "%.3f") runs));
  Printf.printf "  setup_s samples (%d set-up blocks): %s\n" (List.length blocks)
    (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
  List.iter (fun e -> Printf.printf "  failed operation: %s\n" e) first.op_errors;
  List.iter (fun v -> Printf.printf "  VIOLATION: %s\n" v) violations;
  if a.trace then begin
    let base = Filename.concat a.out (Printf.sprintf "%s-%d" a.workload a.seed) in
    Spans.write (base ^ ".spans.tsv");
    let oc = open_out (base ^ ".layers.json") in
    output_string oc (json_metrics per_layer_all);
    output_char oc '\n';
    close_out oc
  end;
  Printf.printf
    "{\"correct\":%b,\"violations\":[%s],\"attempted\":%d,\"failed\":%d,\"samples\":%d,\
     \"end_to_end\":%s,\"per_layer\":%s}\n"
    (violations = [])
    (String.concat "," (List.map json_str violations))
    first.attempted first.failed first.samples (json_metrics e2e) (json_metrics per_layer_all);
  exit (if violations = [] then 0 else 1)
