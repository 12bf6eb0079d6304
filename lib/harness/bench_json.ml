module Obs = Semper_obs.Obs
module Cost = Semper_kernel.Cost
module Workloads = Semper_trace.Workloads

let micro ?jobs ?(lens = [ 0; 20; 40; 60; 80; 100 ]) () =
  let open Obs.Json in
  let micro_row op scope cycles paper =
    Obj
      [
        ("op", Str op);
        ("scope", Str scope);
        ("cycles", Int (Int64.to_int cycles));
        ("paper_cycles", (match paper with Some p -> Int p | None -> Null));
      ]
  in
  let exchanges =
    Microbench.exchange_revokes ?jobs [ (Cost.Semperos, false); (Cost.Semperos, true) ]
  in
  let (sx, sr), (gx, gr) =
    match exchanges with [ s; g ] -> (s, g) | _ -> assert false
  in
  (* One local and one spanning measurement per length, interleaved so
     each length's pair stays adjacent in the task list. *)
  let chain_cycles =
    Microbench.chain_revocations ?jobs
      (List.concat_map
         (fun len ->
           [
             { Microbench.c_mode = Cost.Semperos; c_spanning = false; c_len = len; c_batching = false };
             { Microbench.c_mode = Cost.Semperos; c_spanning = true; c_len = len; c_batching = false };
           ])
         lens)
  in
  let rec chain_rows lens cycles =
    match (lens, cycles) with
    | [], [] -> []
    | len :: lens, local :: spanning :: cycles ->
      Obj
        [
          ("len", Int len);
          ("local_cycles", Int (Int64.to_int local));
          ("spanning_cycles", Int (Int64.to_int spanning));
        ]
      :: chain_rows lens cycles
    | _ -> assert false
  in
  Obj
    [
      ( "table3",
        Arr
          [
            micro_row "exchange" "local" sx (Some 3597);
            micro_row "exchange" "spanning" gx (Some 6484);
            micro_row "revoke" "local" sr (Some 1997);
            micro_row "revoke" "spanning" gr (Some 3876);
          ] );
      ("fig4_chain_revocation", Arr (chain_rows lens chain_cycles));
    ]

let apps ?jobs ?(workloads = Workloads.all) () =
  let open Obs.Json in
  let outcomes =
    Experiment.run_many ?jobs
      (List.map
         (fun spec -> Experiment.config ~kernels:1 ~services:1 ~instances:1 spec)
         workloads)
  in
  let app spec (o : Experiment.outcome) =
    Obj
      [
        ("workload", Str spec.Workloads.name);
        ("cap_ops", Int o.Experiment.cap_ops);
        ("paper_cap_ops", Int spec.Workloads.paper_cap_ops);
        ("cap_ops_per_s", Float o.Experiment.cap_ops_per_s);
        ("makespan_cycles", Int (Int64.to_int o.Experiment.max_runtime));
        ("exchanges_spanning", Int o.Experiment.exchanges_spanning);
        ("revokes_spanning", Int o.Experiment.revokes_spanning);
      ]
  in
  Obj [ ("table4_single", Arr (List.map2 app workloads outcomes)) ]

let write ~path json =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Schema validation *)

type shape = {
  sh_top : string list;  (* required top-level keys *)
  sh_rows : (string * string list) list;
      (* top-level key holding a non-empty array of objects, and the
         keys every element must carry *)
}

(* One entry per document family, keyed on the [schema] field.
   BENCH_micro.json and BENCH_apps.json predate the [schema] field and
   are keyed on their basename instead (they are also byte-protected
   baselines, so their shape cannot drift silently anyway). *)
let shapes =
  [
    ( "semperos-batch-1",
      {
        sh_top = [ "jobs"; "samples" ];
        sh_rows =
          [
            ( "samples",
              [
                "name"; "cycles_off"; "cycles_on"; "ikc_off"; "ikc_on"; "batches_sent";
                "batched_msgs"; "speedup";
              ] );
          ];
      } );
    ( "semperos-balance-1",
      { sh_top = [ "config"; "static"; "balanced"; "improvement" ]; sh_rows = [] } );
    ( "semperos-fleet-1",
      { sh_top = [ "config"; "fixed"; "elastic"; "improvement" ]; sh_rows = [] } );
    ( "semperos-scale-2",
      {
        sh_top = [ "jobs"; "rows" ];
        sh_rows =
          [
            ( "rows",
              [
                "name"; "total_pes"; "kernels"; "services"; "instances"; "sessions"; "wall_s";
                "events_processed"; "events_per_s"; "cap_ops"; "cap_ops_per_s"; "heap_peak";
                "gc_minor_collections"; "gc_major_collections"; "gc_promoted_words"; "audit_caps";
                "audit_full_s"; "audit_incremental_s";
              ] );
          ];
      } );
    ( "BENCH_micro.json",
      {
        sh_top = [ "table3"; "fig4_chain_revocation" ];
        sh_rows =
          [
            ("table3", [ "op"; "scope"; "cycles"; "paper_cycles" ]);
            ("fig4_chain_revocation", [ "len"; "local_cycles"; "spanning_cycles" ]);
          ];
      } );
    ( "BENCH_apps.json",
      {
        sh_top = [ "table4_single" ];
        sh_rows =
          [
            ( "table4_single",
              [
                "workload"; "cap_ops"; "paper_cap_ops"; "cap_ops_per_s"; "makespan_cycles";
                "exchanges_spanning"; "revokes_spanning";
              ] );
          ];
      } );
  ]

let ( let* ) = Result.bind

let validate ?path json =
  let open Obs.Json in
  let* fields =
    match json with
    | Obj fields -> Ok fields
    | _ -> Error "document is not a JSON object"
  in
  let* key =
    match List.assoc_opt "schema" fields with
    | Some (Str tag) -> Ok tag
    | Some _ -> Error "schema field is not a string"
    | None -> (
      match path with
      | Some p -> Ok (Filename.basename p)
      | None -> Error "document has no schema field and no path was given")
  in
  let* shape =
    match List.assoc_opt key shapes with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown schema %S" key)
  in
  let* () =
    List.fold_left
      (fun acc k ->
        let* () = acc in
        if List.mem_assoc k fields then Ok ()
        else Error (Printf.sprintf "%s: missing top-level key %S" key k))
      (Ok ()) shape.sh_top
  in
  List.fold_left
    (fun acc (rows_key, row_keys) ->
      let* () = acc in
      match List.assoc_opt rows_key fields with
      | Some (Arr []) -> Error (Printf.sprintf "%s: %S is empty" key rows_key)
      | Some (Arr rows) ->
        List.fold_left
          (fun acc row ->
            let* () = acc in
            match row with
            | Obj row_fields ->
              List.fold_left
                (fun acc k ->
                  let* () = acc in
                  if List.mem_assoc k row_fields then Ok ()
                  else Error (Printf.sprintf "%s: %S element missing key %S" key rows_key k))
                (Ok ()) row_keys
            | _ -> Error (Printf.sprintf "%s: %S element is not an object" key rows_key))
          (Ok ()) rows
      | Some _ -> Error (Printf.sprintf "%s: %S is not an array" key rows_key)
      | None -> Error (Printf.sprintf "%s: missing top-level key %S" key rows_key))
    (Ok ()) shape.sh_rows

let validate_file path =
  let* doc =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok s
    with Sys_error e -> Error e
  in
  let* json = Obs.Json.parse doc in
  validate ~path json
