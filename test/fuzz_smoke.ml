(* Smoke gate for the schedule fuzzer, run from the [fuzz-smoke] dune
   alias (hooked into [dune runtest]). Four checks:

   1. 50 distinct seed pairs under the full chaos profile all pass the
      liveness / audit / teardown oracles;
   2. the fuzzer is deterministic — the same seed pair twice yields a
      byte-identical outcome line;
   3. the oracles have teeth — with retransmission disabled and drops
      enabled, at least one pair fails;
   4. fixed sweeps of 2,000 pairs each, the default workload and the
      fleet workload with two spare kernels ([fuzz --runs 2000] and
      [fuzz --spares 2 --runs 2000]), all pass. *)

open Semperos

let failed = ref false

let check name ok = if not ok then begin
    failed := true;
    Printf.printf "FAILED: %s\n" name
  end

let () =
  let runs = 50 in
  let outcomes = Fuzz.run_many ~workload_seed:1 ~fault_seed:1_001 ~runs () in
  let bad = List.filter (fun o -> o.Fuzz.failures <> []) outcomes in
  List.iter (fun o -> Format.printf "%a@." Fuzz.pp_outcome o) bad;
  let calls = List.fold_left (fun a o -> a + o.Fuzz.syscalls) 0 outcomes in
  let inj =
    List.fold_left
      (fun a o ->
        a + o.Fuzz.injected_delays + o.Fuzz.injected_dups + o.Fuzz.injected_drops
        + o.Fuzz.injected_stalls)
      0 outcomes
  in
  let retries = List.fold_left (fun a o -> a + o.Fuzz.retries) 0 outcomes in
  Printf.printf "fuzz-smoke: %d/%d seed pairs clean (%d syscalls, %d faults injected, %d retries)\n"
    (runs - List.length bad) runs calls inj retries;
  check "all chaos-profile seed pairs pass the oracles" (bad = []);
  (* The smoke run must actually have exercised the machinery. *)
  check "fault plan injected faults" (inj > 0);
  check "kernels retransmitted at least once" (retries > 0);

  let a = Fuzz.run_one ~workload_seed:7 ~fault_seed:1_007 () in
  let b = Fuzz.run_one ~workload_seed:7 ~fault_seed:1_007 () in
  check "identical seeds give byte-identical reports"
    (String.equal (Fuzz.outcome_line a) (Fuzz.outcome_line b));

  (* Teeth: drop messages but never retransmit — the liveness or
     teardown oracle must catch at least one lost message across ten
     pairs. *)
  let spec = Fuzz.spec ~delay:false ~dup:false ~stall:false ~drop:true ~retry:false () in
  let broken = Fuzz.run_many ~spec ~workload_seed:1 ~fault_seed:1_001 ~runs:10 () in
  let caught = List.exists (fun o -> o.Fuzz.failures <> []) broken in
  check "oracles catch loss when retries are disabled" caught;

  List.iter
    (fun (name, spec) ->
      let runs = 2_000 in
      let outcomes = Fuzz.run_many ~spec ~workload_seed:1 ~fault_seed:1_001 ~runs () in
      let bad = List.filter (fun o -> o.Fuzz.failures <> []) outcomes in
      List.iter (fun o -> print_endline (Fuzz.outcome_line o)) bad;
      Printf.printf "fuzz-smoke: %s sweep %d/%d seed pairs clean\n" name (runs - List.length bad)
        runs;
      check (name ^ " sweep passes the oracles") (bad = []))
    [ ("default", Fuzz.default_spec); ("spares=2", Fuzz.spec ~spares:2 ()) ];

  if !failed then exit 1;
  print_endline "fuzz-smoke: OK"
