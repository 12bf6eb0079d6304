module Obs = Semper_obs.Obs
module Engine = Semper_sim.Engine
module Cost = Semper_kernel.Cost
module Workloads = Semper_trace.Workloads
module T = Semper_util.Table

type sample = {
  s_name : string;
  s_wall_s : float;
  s_events : int;
  s_events_per_s : float;
  s_cancelled : int;
  s_heap_peak : int;
  s_minor_collections : int;
  s_major_collections : int;
  s_promoted_words : float;
}

type preset = Full | Smoke

(* Same spec list as the bench harness's Figure 4 sweep. *)
let fig4_specs lengths =
  List.concat_map
    (fun len ->
      [
        { Microbench.c_mode = Cost.Semperos; c_spanning = false; c_len = len; c_batching = false };
        { Microbench.c_mode = Cost.Semperos; c_spanning = true; c_len = len; c_batching = false };
        { Microbench.c_mode = Cost.M3; c_spanning = false; c_len = len; c_batching = false };
      ])
    lengths

(* Same shape as the bench harness's Figure 6 grid (singles plus an
   instances sweep), scaled down for the smoke preset. With 32 services
   on 32 kernels every group hosts a service and the paper's placement
   keeps every session group-local, so the grid alone never touches the
   inter-kernel retransmission machinery; the full preset therefore
   appends a services < kernels sweep of the same harness, which forces
   cross-group sessions and exercises the cancellable retry timers at
   application scale (see EXPERIMENTS.md). *)
let fig6_grid ~kernels ~services ~instance_counts ~workloads =
  List.concat_map
    (fun n ->
      List.map (fun spec -> Experiment.config ~kernels ~services ~instances:n spec) workloads)
    instance_counts

let fig6_configs ~kernels ~services ~instance_counts ~workloads =
  List.map (fun spec -> Experiment.config ~kernels ~services ~instances:1 spec) workloads
  @ fig6_grid ~kernels ~services ~instance_counts ~workloads

let workloads_of_preset = function
  | Full ->
    [
      ( "table3",
        fun () ->
          ignore
            (Microbench.exchange_revokes ~jobs:1
               [ (Cost.Semperos, false); (Cost.Semperos, true); (Cost.M3, false) ]) );
      ( "fig4",
        fun () ->
          ignore
            (Microbench.chain_revocations ~jobs:1
               (fig4_specs [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ])) );
      ( "fig6",
        fun () ->
          ignore
            (Experiment.run_many ~jobs:1
               (fig6_configs ~kernels:32 ~services:32
                  ~instance_counts:[ 64; 128; 192; 256; 320; 384; 448; 512 ]
                  ~workloads:Workloads.all
                @ fig6_grid ~kernels:32 ~services:16 ~instance_counts:[ 64; 512 ]
                    ~workloads:Workloads.all)) );
    ]
  | Smoke ->
    [
      ("table3", fun () -> ignore (Microbench.exchange_revokes ~jobs:1 [ (Cost.Semperos, true) ]));
      ("fig4", fun () -> ignore (Microbench.chain_revocations ~jobs:1 (fig4_specs [ 0; 5 ])));
      ( "fig6",
        fun () ->
          ignore
            (Experiment.run_many ~jobs:1
               (fig6_configs ~kernels:2 ~services:1 ~instance_counts:[ 4 ]
                  ~workloads:[ Workloads.tar ])) );
    ]

(* Workloads run serially ([jobs:1]): the point is a comparable
   events/sec trajectory for the simulator core, and domain fan-out
   would fold scheduler noise into every number. *)
let measure (name, f) =
  let p0 = Engine.Totals.processed () in
  let c0 = Engine.Totals.cancelled () in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let events = Engine.Totals.processed () - p0 in
  {
    s_name = name;
    s_wall_s = wall;
    s_events = events;
    s_events_per_s = (if wall > 0.0 then float_of_int events /. wall else 0.0);
    s_cancelled = Engine.Totals.cancelled () - c0;
    s_heap_peak = Engine.Totals.heap_peak ();
    s_minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    s_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    s_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
  }

let samples ?(preset = Full) () = List.map measure (workloads_of_preset preset)

let sample_json s =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str s.s_name);
      ("wall_s", Obs.Json.Float s.s_wall_s);
      ("events_processed", Obs.Json.Int s.s_events);
      ("events_per_s", Obs.Json.Float s.s_events_per_s);
      ("events_cancelled", Obs.Json.Int s.s_cancelled);
      ("heap_peak", Obs.Json.Int s.s_heap_peak);
      ("gc_minor_collections", Obs.Json.Int s.s_minor_collections);
      ("gc_major_collections", Obs.Json.Int s.s_major_collections);
      ("gc_promoted_words", Obs.Json.Float s.s_promoted_words);
    ]

let json samples =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "semperos-wallclock-1");
      ("jobs", Obs.Json.Int 1);
      ("workloads", Obs.Json.Arr (List.map sample_json samples));
    ]

let print samples =
  T.print ~title:"Wall-clock throughput of the simulator core (host-dependent)"
    ~header:
      [
        "workload"; "wall_s"; "events"; "events/s"; "cancelled"; "heap_peak";
        "gc_minor"; "gc_major"; "promoted_w";
      ]
    (List.map
       (fun s ->
         [
           s.s_name;
           Printf.sprintf "%.3f" s.s_wall_s;
           string_of_int s.s_events;
           Printf.sprintf "%.0f" s.s_events_per_s;
           string_of_int s.s_cancelled;
           string_of_int s.s_heap_peak;
           string_of_int s.s_minor_collections;
           string_of_int s.s_major_collections;
           Printf.sprintf "%.0f" s.s_promoted_words;
         ])
       samples)

let run ?(preset = Full) ?(path = "BENCH_wallclock.json") () =
  let ss = samples ~preset () in
  print ss;
  Bench_json.write ~path (json ss)
