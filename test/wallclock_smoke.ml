(* Smoke gate for the wall-clock benchmark, run from the
   [wallclock-smoke] dune alias (hooked into [dune runtest]). Runs the
   scaled-down preset and asserts only that it completes and emits
   valid, well-shaped JSON — never a timing threshold, so CI stays
   deterministic on any host. *)

open Semperos

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

let () =
  let samples = Wallclock.samples ~preset:Wallclock.Smoke () in
  check "three workloads measured" (List.length samples = 3);
  List.iter
    (fun s ->
      let open Wallclock in
      check (s.s_name ^ ": events were processed") (s.s_events > 0);
      check (s.s_name ^ ": wall time is non-negative") (s.s_wall_s >= 0.0);
      check (s.s_name ^ ": heap peak is positive") (s.s_heap_peak > 0))
    samples;
  (* The fig6 smoke point places its single service so that half the
     instances connect across groups: the cancellation machinery must
     actually have run. *)
  check "some retry timers were cancelled"
    (List.exists (fun s -> s.Wallclock.s_cancelled > 0) samples);
  let doc = Obs.Json.to_string (Wallclock.json samples) in
  (match Obs.Json.parse doc with
  | Ok _ -> ()
  | Error e -> check (Printf.sprintf "report is valid JSON (%s)" e) false);
  check "report names the schema" (contains doc "\"schema\":\"semperos-wallclock-1\"");
  List.iter
    (fun key -> check (Printf.sprintf "report has %s" key) (contains doc key))
    [
      "\"wall_s\""; "\"events_processed\""; "\"events_per_s\""; "\"events_cancelled\"";
      "\"heap_peak\"";
    ];
  if !failed then exit 1;
  print_endline "wallclock-smoke: OK"
