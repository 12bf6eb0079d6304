(* Smoke gate for the observability layer, run from the [obs-smoke]
   dune alias (hooked into [dune runtest]). Mirrors what
   [semperos_cli stats] / [trace] do — run a small multi-kernel
   workload, then:

   1. the metrics snapshot must parse as valid JSON;
   2. every trace line must parse as valid JSON;
   3. the trace must contain the span kinds the protocols are required
      to emit;
   4. a second identically-seeded run must produce byte-identical
      snapshot and trace;
   5. both must match the committed digests below, so output that
      drifts between builds fails too, not only output that differs
      between two runs of one build. A deliberate change to the
      snapshot or trace text re-records them. *)

open Semperos

let golden_stats_md5 = "03c19e14e4f50c42a9fc5fb8c9859302"
let golden_trace_md5 = "55ea37edc14fb6918409f545b02c9952"

let failed = ref false

let check name ok =
  if not ok then begin
    failed := true;
    Printf.printf "FAILED: %s\n" name
  end

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let run_workload () =
  let workload = Workloads.tar in
  let kernels = 3 and instances = 6 in
  let sys =
    System.create (System.config ~kernels ~user_pes_per_kernel:((instances / kernels) + 2) ())
  in
  let prefixed i = Trace.with_prefix (Printf.sprintf "/i%d" i) (workload.Workloads.build ()) in
  let fs =
    M3fs.create ~config:workload.Workloads.fs_config sys ~kernel:0 ~name:"m3fs"
      ~files:(List.concat (List.init instances (fun i -> (prefixed i).Trace.files)))
      ()
  in
  for i = 0 to instances - 1 do
    let vpe = System.spawn_vpe sys ~kernel:(i mod kernels) in
    Replay.run sys fs ~vpe (prefixed i) (fun _ -> ())
  done;
  ignore (System.run sys);
  ( Obs.Json.to_string (Obs.Registry.snapshot (System.obs sys)),
    Obs.Trace.to_jsonl (System.trace_buffer sys) )

let () =
  let stats, trace = run_workload () in
  (match Obs.Json.parse stats with
  | Ok _ -> ()
  | Error e ->
    check (Printf.sprintf "metrics snapshot is valid JSON (%s)" e) false);
  let lines = String.split_on_char '\n' (String.trim trace) in
  check "trace is non-empty" (lines <> [ "" ]);
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Ok _ -> ()
      | Error e -> check (Printf.sprintf "trace line %s is valid JSON (%s)" line e) false)
    lines;
  List.iter
    (fun kind ->
      check
        (Printf.sprintf "trace contains %s spans" kind)
        (contains trace (Printf.sprintf "\"kind\":\"%s\"" kind)))
    [ "syscall_enter"; "syscall_exit"; "ikc_send"; "ikc_recv" ];
  check "snapshot mentions kernel counters" (contains stats "kernel0.syscalls");
  let stats2, trace2 = run_workload () in
  check "snapshot deterministic" (String.equal stats stats2);
  check "trace deterministic" (String.equal trace trace2);
  let md5 s = Digest.to_hex (Digest.string s) in
  check "snapshot matches the recorded digest" (String.equal (md5 stats) golden_stats_md5);
  check "trace matches the recorded digest" (String.equal (md5 trace) golden_trace_md5);
  Printf.printf "obs-smoke: %d trace events, %d bytes of metrics\n" (List.length lines)
    (String.length stats);
  if !failed then exit 1;
  print_endline "obs-smoke: OK"
