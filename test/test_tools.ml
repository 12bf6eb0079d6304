(* Tests for the tooling layer: trace serialisation, the syscall-trace
   recorder, the cross-kernel audit, and the broadcast-revocation
   baseline. *)

open Semperos

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Trace_io                                                            *)

let roundtrip t =
  match Trace_io.of_string (Trace_io.to_string t) with
  | Ok t' -> t'
  | Error e -> Alcotest.fail e

let test_trace_io_roundtrip_workloads () =
  List.iter
    (fun spec ->
      let t = spec.Workloads.build () in
      let t' = roundtrip t in
      check Alcotest.string "name" t.Trace.name t'.Trace.name;
      check Alcotest.int "op count" (List.length t.Trace.ops) (List.length t'.Trace.ops);
      check Alcotest.bool "ops equal" true (t.Trace.ops = t'.Trace.ops);
      check Alcotest.bool "files equal" true (t.Trace.files = t'.Trace.files))
    Workloads.all

let test_trace_io_parse_errors () =
  let bad = [ "read 0"; "trace a\ntrace b"; "compute -5"; "open /f x"; "frobnicate 1" ] in
  List.iter
    (fun s ->
      match Trace_io.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad;
  (match Trace_io.of_string "" with
  | Error e -> check Alcotest.string "missing header" "missing 'trace <name>' header" e
  | Ok _ -> Alcotest.fail "accepted empty input")

let test_trace_io_comments_and_blanks () =
  let src = "# a comment\ntrace t\n\nfile /f 100  # trailing comment\ncompute 10\n" in
  match Trace_io.of_string src with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check Alcotest.string "name" "t" t.Trace.name;
    check Alcotest.int "one file" 1 (List.length t.Trace.files);
    check Alcotest.int "one op" 1 (List.length t.Trace.ops)

let test_trace_io_files () =
  let t = Workloads.sqlite.Workloads.build () in
  let path = Filename.temp_file "semperos" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save path t;
      match Trace_io.load path with
      | Ok t' -> check Alcotest.bool "file roundtrip" true (t.Trace.ops = t'.Trace.ops)
      | Error e -> Alcotest.fail e)

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun c -> Trace.Compute (Int64.of_int c)) (0 -- 1000000);
        map3
          (fun p w c -> Trace.Open { path = "/p" ^ string_of_int p; write = w; create = c })
          (0 -- 9) bool bool;
        map2 (fun s b -> Trace.Read { slot = s; bytes = b }) (0 -- 9) (0 -- 100000);
        map2 (fun s b -> Trace.Write { slot = s; bytes = b }) (0 -- 9) (0 -- 100000);
        map2 (fun s p -> Trace.Seek { slot = s; pos = Int64.of_int p }) (0 -- 9) (0 -- 100000);
        map (fun s -> Trace.Close { slot = s }) (0 -- 9);
        map (fun p -> Trace.Stat ("/s" ^ string_of_int p)) (0 -- 9);
        map (fun p -> Trace.Stat_absent ("/a" ^ string_of_int p)) (0 -- 9);
        map (fun p -> Trace.Mkdir ("/d" ^ string_of_int p)) (0 -- 9);
        map (fun p -> Trace.Unlink ("/u" ^ string_of_int p)) (0 -- 9);
        map (fun p -> Trace.List ("/l" ^ string_of_int p)) (0 -- 9);
      ])

let prop_trace_io_roundtrip =
  QCheck.Test.make ~name:"trace text format roundtrips" ~count:100
    (QCheck.make QCheck.Gen.(list_size (0 -- 50) op_gen))
    (fun ops ->
      let t = { Trace.name = "gen"; ops; files = [ ("/p0", 42L) ] } in
      match Trace_io.of_string (Trace_io.to_string t) with
      | Ok t' -> t.Trace.ops = t'.Trace.ops && t.Trace.files = t'.Trace.files
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)

let test_recorder_roundtrip () =
  (* Drive a little application through the recorder, then replay the
     recorded trace on a fresh system and compare behaviour. *)
  let sys = System.create (System.config ~kernels:1 ~user_pes_per_kernel:4 ()) in
  let fs = M3fs.create sys ~kernel:0 ~name:"m3fs" ~files:[ ("/data/in", 100_000L) ] () in
  let vpe = System.spawn_vpe sys ~kernel:0 in
  let recorded = ref None in
  Fs_client.connect sys fs ~vpe (fun conn ->
      let client = Result.get_ok conn in
      let rc = Recorder.create sys ~name:"little-app" client in
      Recorder.stat rc "/data/in" (fun _ ->
          Recorder.open_ rc "/data/in" ~write:false ~create:false (fun r ->
              let slot = Result.get_ok r in
              Engine.after (System.engine sys) 50_000L (fun () ->
                  Recorder.read rc ~slot ~bytes:100_000 (fun _ ->
                      Recorder.close rc ~slot (fun _ -> recorded := Some (Recorder.trace rc)))))));
  ignore (System.run sys);
  let trace = Option.get !recorded in
  (* Shape of the recording. *)
  let io = Trace.io_ops trace in
  check Alcotest.int "stat + open + read + close" 4 io;
  check Alcotest.bool "compute gap captured" true (Trace.compute_cycles trace >= 50_000L);
  check Alcotest.bool "file captured with size" true
    (List.mem ("/data/in", 100_000L) trace.Trace.files);
  (* It also survives serialisation. *)
  let trace = roundtrip trace in
  (* And replays cleanly on a fresh system. *)
  let sys2 = System.create (System.config ~kernels:1 ~user_pes_per_kernel:4 ()) in
  let fs2 = M3fs.create sys2 ~kernel:0 ~name:"m3fs" ~files:trace.Trace.files () in
  let vpe2 = System.spawn_vpe sys2 ~kernel:0 in
  let result = ref None in
  Replay.run sys2 fs2 ~vpe:vpe2 trace (fun r -> result := Some r);
  ignore (System.run sys2);
  let r = Option.get !result in
  check Alcotest.(list string) "replay clean" [] r.Replay.errors;
  check Alcotest.int "same io ops" io r.Replay.io_ops

(* ------------------------------------------------------------------ *)
(* Audit                                                               *)

let sel_of = function
  | Protocol.R_sel s -> s
  | r -> Alcotest.failf "expected selector, got %a" Protocol.pp_reply r

let test_audit_healthy_system () =
  let sys = System.create (System.config ~kernels:3 ~user_pes_per_kernel:4 ()) in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  let v3 = System.spawn_vpe sys ~kernel:2 in
  let s1 =
    sel_of (System.syscall_sync sys v1 (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))
  in
  let s2 =
    sel_of
      (System.syscall_sync sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = s1 }))
  in
  ignore
    (sel_of
       (System.syscall_sync sys v3 (Protocol.Sys_obtain_from { donor_vpe = v2.Vpe.id; donor_sel = s2 })));
  let report = Audit.run sys in
  check Alcotest.(list string) "no violations" [] report.Audit.errors;
  check Alcotest.int "three caps" 3 report.Audit.capabilities;
  check Alcotest.int "one root" 1 report.Audit.roots;
  check Alcotest.int "depth three" 3 report.Audit.max_depth;
  check Alcotest.int "two spanning links" 2 report.Audit.spanning_links;
  Audit.check sys

let test_audit_detects_corruption () =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:4 ()) in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  let s1 =
    sel_of (System.syscall_sync sys v1 (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))
  in
  ignore
    (sel_of
       (System.syscall_sync sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = s1 })));
  (* Corrupt a cross-kernel link by hand: the audit must notice. *)
  let donor_key = Option.get (Capspace.find v1.Vpe.capspace s1) in
  let db = Kernel.mapdb (System.kernel sys 0) in
  (match Mapdb.children db donor_key with
  | child :: _ -> Mapdb.remove_child db ~parent:donor_key child
  | [] -> Alcotest.fail "no child to corrupt");
  let report = Audit.run sys in
  check Alcotest.bool "violations found" true (report.Audit.errors <> []);
  match Audit.check sys with
  | () -> Alcotest.fail "Audit.check should have failed"
  | exception Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* Incremental audit                                                   *)

let reports_equal (a : Audit.report) (b : Audit.report) =
  a.Audit.capabilities = b.Audit.capabilities
  && a.Audit.roots = b.Audit.roots
  && a.Audit.max_depth = b.Audit.max_depth
  && a.Audit.spanning_links = b.Audit.spanning_links
  && a.Audit.errors = b.Audit.errors

let check_agrees name sys inc =
  let full = Audit.run sys in
  check Alcotest.(list string) (name ^ ": full is clean") [] full.Audit.errors;
  let ir = Audit.Incremental.run inc in
  if not (reports_equal full ir) then
    Alcotest.failf "%s: full %a vs incremental %a" name Audit.pp_report full Audit.pp_report ir

let test_incremental_tracks_mutations () =
  let sys = System.create (System.config ~kernels:3 ~user_pes_per_kernel:4 ()) in
  let inc = Audit.Incremental.create ~full_every:0 sys in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  let v3 = System.spawn_vpe sys ~kernel:2 in
  check_agrees "after spawn" sys inc;
  let s1 =
    sel_of (System.syscall_sync sys v1 (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))
  in
  check_agrees "after alloc" sys inc;
  let s2 =
    sel_of
      (System.syscall_sync sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = s1 }))
  in
  ignore
    (sel_of
       (System.syscall_sync sys v3 (Protocol.Sys_obtain_from { donor_vpe = v2.Vpe.id; donor_sel = s2 })));
  check_agrees "after spanning chain" sys inc;
  (match System.syscall_sync sys v1 (Protocol.Sys_revoke { sel = s1; own = false }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke children: %a" Protocol.pp_reply r);
  check_agrees "after children-only revoke" sys inc;
  ignore
    (sel_of
       (System.syscall_sync sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = s1 })));
  check_agrees "after regrant" sys inc;
  (match System.syscall_sync sys v1 (Protocol.Sys_revoke { sel = s1; own = true }) with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "revoke: %a" Protocol.pp_reply r);
  check_agrees "after full revoke" sys inc

let test_incremental_detects_corruption () =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:4 ()) in
  let inc = Audit.Incremental.create ~full_every:0 sys in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  let s1 =
    sel_of (System.syscall_sync sys v1 (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))
  in
  ignore
    (sel_of
       (System.syscall_sync sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = s1 })));
  check_agrees "healthy" sys inc;
  (* Corrupt a cross-kernel link: unlinking marks the partition dirty,
     so the next incremental pass re-checks it. *)
  let donor_key = Option.get (Capspace.find v1.Vpe.capspace s1) in
  let db = Kernel.mapdb (System.kernel sys 0) in
  (match Mapdb.children db donor_key with
  | child :: _ -> Mapdb.remove_child db ~parent:donor_key child
  | [] -> Alcotest.fail "no child to corrupt");
  let ir = Audit.Incremental.run inc in
  check Alcotest.bool "incremental catches the unlink" true (ir.Audit.errors <> [])

let test_incremental_full_fallback () =
  let sys = System.create (System.config ~kernels:1 ~user_pes_per_kernel:4 ()) in
  let inc = Audit.Incremental.create ~full_every:2 sys in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  ignore
    (sel_of (System.syscall_sync sys v1 (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw })));
  let r1 = Audit.Incremental.run inc in
  (* Second call is the full-audit fallback (full_every = 2). *)
  let r2 = Audit.Incremental.run inc in
  check Alcotest.(list string) "incremental clean" [] r1.Audit.errors;
  check Alcotest.(list string) "fallback clean" [] r2.Audit.errors;
  check Alcotest.int "same caps" r1.Audit.capabilities r2.Audit.capabilities;
  check Alcotest.int "same roots" r1.Audit.roots r2.Audit.roots

(* ------------------------------------------------------------------ *)
(* Benchmark document schemas                                          *)

(* The committed BENCH_*.json baselines are declared as test deps (see
   test/dune), so dune copies them next to the test binary's cwd's
   parent and re-runs this check whenever one changes. *)
let test_bench_documents_validate () =
  let bench_files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6 && String.sub f 0 6 = "BENCH_" && Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  (* Under [dune runtest] the baselines sit one level up from the test
     cwd (copied there by the dep glob); under [dune exec] from the
     project root they are in the cwd itself. *)
  let dir = if bench_files "." <> [] then "." else ".." in
  let files = bench_files dir in
  check
    Alcotest.(list string)
    "benchmark documents"
    [
      "BENCH_apps.json"; "BENCH_balance.json"; "BENCH_batch.json"; "BENCH_fleet.json";
      "BENCH_micro.json"; "BENCH_scale.json";
    ]
    files;
  List.iter
    (fun f ->
      match Bench_json.validate_file (Filename.concat dir f) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" f e)
    files

let test_bench_validate_rejects () =
  let reject name doc =
    match Obs.Json.parse doc with
    | Error e -> Alcotest.failf "%s: test document does not parse: %s" name e
    | Ok json -> (
      match Bench_json.validate json with
      | Ok () -> Alcotest.failf "%s: validated" name
      | Error _ -> ())
  in
  reject "unknown schema" {|{"schema":"semperos-nonesuch-1","rows":[]}|};
  reject "unknown schema (retired wallclock)" {|{"schema":"semperos-wallclock-1","jobs":1,"workloads":[]}|};
  reject "missing top-level key" {|{"schema":"semperos-batch-1","jobs":1}|};
  reject "empty row array" {|{"schema":"semperos-batch-1","jobs":1,"samples":[]}|};
  reject "row missing a key"
    {|{"schema":"semperos-batch-1","jobs":1,"samples":[{"name":"fig4","cycles_off":1}]}|};
  reject "schema-less document without a path" {|{"table3":[]}|}

(* The deterministic bench documents are pinned byte for byte: each is
   regenerated in process into a temp file and compared with the
   committed copy, so a change to the capability protocols, the m3fs
   path, the balancer, the fleet or batching that moves any of their
   numbers fails here. *)
let test_bench_documents_regenerate () =
  let dir = if Sys.file_exists "BENCH_balance.json" then "." else ".." in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  List.iter
    (fun (name, write) ->
      let tmp = Filename.temp_file "semperos_bench" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove tmp)
        (fun () ->
          write tmp;
          check Alcotest.string name (read (Filename.concat dir name)) (read tmp)))
    [
      ("BENCH_micro.json", fun path -> Bench_json.write ~path (Bench_json.micro ()));
      ("BENCH_apps.json", fun path -> Bench_json.write ~path (Bench_json.apps ()));
      ("BENCH_balance.json", fun path -> Skew.bench ~path ());
      ("BENCH_fleet.json", fun path -> Fleetbench.bench ~path ());
      ("BENCH_batch.json", fun path -> Batchbench.run ~path ());
    ]

(* ------------------------------------------------------------------ *)
(* Broadcast revocation baseline                                       *)

let test_broadcast_correctness () =
  (* Broadcast mode must revoke exactly the same capabilities. *)
  let run broadcast =
    let sys =
      System.create (System.config ~kernels:4 ~user_pes_per_kernel:8 ~broadcast ())
    in
    let root = System.spawn_vpe sys ~kernel:0 in
    let sel =
      sel_of (System.syscall_sync sys root (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))
    in
    for i = 0 to 11 do
      let v = System.spawn_vpe sys ~kernel:(i mod 4) in
      ignore
        (sel_of
           (System.syscall_sync sys v
              (Protocol.Sys_obtain_from { donor_vpe = root.Vpe.id; donor_sel = sel })))
    done;
    (match System.syscall_sync sys root (Protocol.Sys_revoke { sel; own = true }) with
    | Protocol.R_ok -> ()
    | r -> Alcotest.failf "revoke: %a" Protocol.pp_reply r);
    Audit.check sys;
    List.fold_left (fun acc k -> acc + Mapdb.count (Kernel.mapdb k)) 0 (System.kernels sys)
  in
  check Alcotest.int "targeted revokes all" 0 (run false);
  check Alcotest.int "broadcast revokes all" 0 (run true)

let test_broadcast_pays_scan () =
  let time ~broadcast ~background_caps =
    Microbench.tree_revocation ~broadcast ~background_caps ~extra_kernels:7 ~children:32 ()
  in
  let targeted = time ~broadcast:false ~background_caps:1000 in
  let broadcast = time ~broadcast:true ~background_caps:1000 in
  check Alcotest.bool "broadcast slower on populated databases" true (broadcast > targeted)

let suite =
  [
    Alcotest.test_case "trace io roundtrips every workload" `Quick test_trace_io_roundtrip_workloads;
    Alcotest.test_case "trace io parse errors" `Quick test_trace_io_parse_errors;
    Alcotest.test_case "trace io comments" `Quick test_trace_io_comments_and_blanks;
    Alcotest.test_case "trace io save/load" `Quick test_trace_io_files;
    qcheck prop_trace_io_roundtrip;
    Alcotest.test_case "recorder record-then-replay" `Quick test_recorder_roundtrip;
    Alcotest.test_case "audit healthy system" `Quick test_audit_healthy_system;
    Alcotest.test_case "audit detects corruption" `Quick test_audit_detects_corruption;
    Alcotest.test_case "incremental audit tracks mutations" `Quick test_incremental_tracks_mutations;
    Alcotest.test_case "incremental audit detects corruption" `Quick
      test_incremental_detects_corruption;
    Alcotest.test_case "incremental audit full fallback" `Quick test_incremental_full_fallback;
    Alcotest.test_case "bench documents match their schemas" `Quick test_bench_documents_validate;
    Alcotest.test_case "bench validator rejects malformed documents" `Quick
      test_bench_validate_rejects;
    Alcotest.test_case "deterministic bench documents regenerate byte-identical" `Quick
      test_bench_documents_regenerate;
    Alcotest.test_case "broadcast correctness" `Quick test_broadcast_correctness;
    Alcotest.test_case "broadcast pays the scan" `Quick test_broadcast_pays_scan;
  ]
