(** Benchmark harness entry point.

    With no argument, regenerates every table and figure of the paper's
    evaluation plus the ablations. Individual experiments can be named
    on the command line (table3, fig4, fig5, table4, fig6, fig7, fig8,
    fig9, fig10, ablations, json, bechamel). [json] writes the headline
    numbers as BENCH_micro.json / BENCH_apps.json via the deterministic
    {!Semperos.Obs.Json} emitter. Host throughput of the simulator
    itself is perfbench's job, not this harness's.
    [bechamel] runs host-side micro-measurements — one [Test.make] per table and figure — showing
    how long this simulator takes to regenerate a scaled-down version
    of each experiment. *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let test_table3 =
    Test.make ~name:"table3" (Staged.stage (fun () ->
        ignore (Semper_harness.Microbench.exchange_revoke ~mode:Semperos.Cost.Semperos ~spanning:true)))
  in
  let test_fig4 =
    Test.make ~name:"fig4" (Staged.stage (fun () ->
        ignore (Semper_harness.Microbench.chain_revocation ~mode:Semperos.Cost.Semperos ~spanning:false ~len:20 ())))
  in
  let test_fig5 =
    Test.make ~name:"fig5" (Staged.stage (fun () ->
        ignore (Semper_harness.Microbench.tree_revocation ~extra_kernels:4 ~children:32 ())))
  in
  let small_run spec kernels services instances () =
    ignore
      (Semperos.Experiment.run
         (Semperos.Experiment.config ~kernels ~services ~instances spec))
  in
  let test_table4 =
    Test.make ~name:"table4" (Staged.stage (small_run Semperos.Workloads.postmark 1 1 1))
  in
  let test_fig6 =
    Test.make ~name:"fig6" (Staged.stage (small_run Semperos.Workloads.tar 8 8 64))
  in
  let test_fig7 =
    Test.make ~name:"fig7" (Staged.stage (small_run Semperos.Workloads.sqlite 8 4 64))
  in
  let test_fig8 =
    Test.make ~name:"fig8" (Staged.stage (small_run Semperos.Workloads.leveldb 4 8 64))
  in
  let test_fig9 =
    Test.make ~name:"fig9" (Staged.stage (small_run Semperos.Workloads.postmark 8 8 48))
  in
  let test_fig10 =
    Test.make ~name:"fig10" (Staged.stage (fun () ->
        ignore
          (Semperos.Nginx_bench.run
             (Semperos.Nginx_bench.config ~kernels:4 ~services:4 ~servers:16
                ~duration:1_000_000L ()))))
  in
  let tests =
    Test.make_grouped ~name:"semperos"
      [ test_table3; test_fig4; test_fig5; test_table4; test_fig6; test_fig7; test_fig8;
        test_fig9; test_fig10 ]
  in
  let benchmark () =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
    let raw = Benchmark.all cfg instances tests in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Analyze.merge ols instances [ results ]
  in
  let results = benchmark () in
  print_endline "\n== Bechamel: host-side cost of regenerating each experiment (ns/run) ==";
  Hashtbl.iter
    (fun _clock_name tbl ->
      let rows = ref [] in
      Hashtbl.iter
        (fun test_name ols ->
          let ns =
            match Bechamel.Analyze.OLS.estimates ols with
            | Some [ est ] -> Printf.sprintf "%.0f" est
            | Some _ | None -> "-"
          in
          rows := [ test_name; ns ] :: !rows)
        tbl;
      let rows = List.sort compare !rows in
      print_endline (Semperos.Table.render ~header:[ "experiment"; "ns/run" ] rows))
    results

let usage () =
  prerr_endline
    "usage: main.exe [--jobs N] \
     [table3|fig4|fig5|table4|fig6|fig7|fig8|fig9|fig10|ablations|json|bechamel|balance|fleet|batch|scale|all]";
  prerr_endline
    "  --jobs N, -j N   run independent experiment points on N domains (default: cores; 1 = serial)";
  exit 2

(* [--jobs N] / [-j N] may appear anywhere on the command line; the
   remaining argument, if any, names the experiment. *)
let parse_argv () =
  let rec go names = function
    | [] -> List.rev names
    | ("--jobs" | "-j") :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 ->
        Semperos.Runner.set_jobs n;
        go names rest
      | Some _ | None -> usage ())
    | ("--jobs" | "-j") :: [] -> usage ()
    | arg :: rest -> go (arg :: names) rest
  in
  go [] (List.tl (Array.to_list Sys.argv))

let () =
  let cmds =
    [
      ("table3", Experiments.table3);
      ("fig4", Experiments.fig4);
      ("fig5", fun () -> Experiments.fig5 ());
      ("table4", Experiments.table4);
      ("fig6", Experiments.fig6);
      ("fig7", Experiments.fig7);
      ("fig8", Experiments.fig8);
      ("fig9", Experiments.fig9);
      ("fig10", Experiments.fig10);
      ("ablations", Experiments.ablations);
      ("json", Experiments.json_export);
      ("bechamel", bechamel);
      (* Not part of [all] either: BENCH_balance.json is its own
         deliverable, regenerated only when the balancer changes. *)
      ("balance", fun () -> Semper_harness.Skew.bench ());
      (* Likewise its own deliverable: BENCH_fleet.json is regenerated
         only when the elastic-fleet subsystem changes. *)
      ("fleet", fun () -> Semper_harness.Fleetbench.bench ());
      (* Likewise: BENCH_batch.json is regenerated only when the
         batching fabric changes. *)
      ("batch", fun () -> Semper_harness.Batchbench.run ());
      (* Deliberately not part of [all]: its output is host-dependent,
         and [all]'s output stays byte-identical across hosts. *)
      ("scale", fun () -> Semper_harness.Scale.run ());
      ("all", fun () -> Experiments.all (); bechamel ());
    ]
  in
  match parse_argv () with
  | [] -> (List.assoc "all" cmds) ()
  | [ name ] -> (
    match List.assoc_opt name cmds with
    | Some f -> f ()
    | None -> usage ())
  | _ -> usage ()
