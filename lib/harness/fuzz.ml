module System = Semper_kernel.System
module Kernel = Semper_kernel.Kernel
module Vpe = Semper_kernel.Vpe
module Cost = Semper_kernel.Cost
module P = Semper_kernel.Protocol
module Perms = Semper_caps.Perms
module Mapdb = Semper_caps.Mapdb
module Membership = Semper_ddl.Membership
module Fleet = Semper_fleet.Fleet
module Fault = Semper_fault.Fault
module Rng = Semper_util.Rng
module Engine = Semper_sim.Engine
module Checkpoint = Semper_sim.Checkpoint
module Obs = Semper_obs.Obs

type spec = {
  kernels : int;
  vpes : int;
  ops : int;
  spares : int;
  delay : bool;
  dup : bool;
  drop : bool;
  stall : bool;
  retry : bool;
}

let spec ?(kernels = 3) ?(vpes = 6) ?(ops = 40) ?(spares = 0) ?(delay = true) ?(dup = true)
    ?(drop = true) ?(stall = true) ?(retry = true) () =
  { kernels; vpes; ops; spares; delay; dup; drop; stall; retry }

let default_spec = spec ()

type outcome = {
  workload_seed : int;
  fault_seed : int;
  syscalls : int;
  replies : int;
  ok_replies : int;
  err_replies : int;
  migrations : int;
  fleet_transitions : int;
  injected_delays : int;
  injected_dups : int;
  injected_drops : int;
  injected_stalls : int;
  retries : int;
  dup_ikc : int;
  caps_leaked : int;
  failures : string list;
  metrics_json : string;
  trace_tail : string list;
}

let profile s fault_seed =
  {
    Fault.seed = Int64.of_int fault_seed;
    delay_prob = (if s.delay then 0.25 else 0.0);
    max_delay = 1_500;
    dup_prob = (if s.dup then 0.08 else 0.0);
    max_dup_delay = 900;
    drop_prob = (if s.drop then 0.04 else 0.0);
    max_drops_per_pair = 2;
    max_drops_total = 24;
    stall_prob = (if s.stall then 0.02 else 0.0);
    max_stall = 4_000;
  }

(* A fuzz case as an explicit state machine — [start] builds the system
   and issues the boot allocations, [step] executes one workload op,
   [finish] drains the engine, runs the oracles, and tears down. One
   case state is one marshalable root: the reply callbacks and engine
   events all close over this record, so a single [Checkpoint.save] of
   it captures the whole case mid-flight. *)
type state = {
  st_spec : spec;
  st_workload_seed : int;
  st_fault_seed : int;
  rng : Rng.t;
  sys : System.t;
  vpes : Vpe.t array;
  (* Pool of (vpe index, selector) pairs known to have been granted;
     entries go stale after revokes and exits — the resulting errors are
     themselves part of the workload. *)
  mutable pool : (int * int) list;
  mutable issued : int;
  mutable replied : int;
  mutable ok : int;
  mutable errs : int;
  mutable migrations : int;
  mutable fleet_transitions : int;
  mutable failures : string list;  (* reversed; [finish] restores order *)
  mutable step_no : int;
  (* An exception anywhere in the workload skips the remaining steps and
     the end-of-run oracles (teardown still runs), matching the single
     try-block of the pre-checkpoint fuzzer. *)
  mutable crashed : string option;
}

let issue st v call =
  st.issued <- st.issued + 1;
  System.syscall st.sys st.vpes.(v) call (fun r ->
      st.replied <- st.replied + 1;
      match r with
      | P.R_sel sel ->
        st.ok <- st.ok + 1;
        st.pool <- (v, sel) :: st.pool
      | P.R_ok | P.R_vpe _ | P.R_sess _ -> st.ok <- st.ok + 1
      | P.R_err _ -> st.errs <- st.errs + 1)

let alloc st v = issue st v (P.Sys_alloc_mem { size = 4096L; perms = Perms.rw })

let pool_pick st =
  match st.pool with
  | [] -> None
  | entries -> Some (List.nth entries (Rng.int st.rng (List.length entries)))

let start ?(spec = default_spec) ~workload_seed ~fault_seed () =
  let s = spec in
  let rng = Rng.create (Int64.of_int workload_seed) in
  let pes = max 2 ((s.vpes + s.kernels - 1) / s.kernels) in
  let sys =
    System.create
      (System.config ~kernels:s.kernels ~spare_kernels:s.spares ~user_pes_per_kernel:pes
         ~fault:(profile s fault_seed) ~retry:s.retry ())
  in
  let vpes = Array.init s.vpes (fun i -> System.spawn_vpe sys ~kernel:(i mod s.kernels)) in
  let st =
    {
      st_spec = s;
      st_workload_seed = workload_seed;
      st_fault_seed = fault_seed;
      rng;
      sys;
      vpes;
      pool = [];
      issued = 0;
      replied = 0;
      ok = 0;
      errs = 0;
      migrations = 0;
      fleet_transitions = 0;
      failures = [];
      step_no = 0;
      crashed = None;
    }
  in
  (try
     (* Every VPE starts with one root allocation so exchanges have
        material to work with. *)
     Array.iteri (fun i _ -> alloc st i) vpes;
     ignore (System.run sys)
   with exn -> st.crashed <- Some (Printexc.to_string exn));
  st

(* Fleet oracles, run with the engine drained (after each fleet
   transition and again at [finish]):

   - {b convergence}: every kernel's membership replica agrees with the
     system replica on both partition routing and kernel lifecycle
     states, with no mid-handoff mark left behind — a lost or
     misapplied [fleet_state]/[part_update] would leave a replica
     routing to a stale owner;
   - {b no-stranded}: a [Spare] or [Retired] kernel holds no capability
     record and no VPE (and a Retired one owns no partition) — a lost
     [part_records] wave would strand records on a kernel that no
     longer serves lookups. *)
let fleet_oracles st =
  let sys = st.sys in
  let sys_mem = System.membership sys in
  let fail fmt = Printf.ksprintf (fun s -> st.failures <- s :: st.failures) fmt in
  let all_pes =
    List.concat_map (fun k -> Membership.pes_of_kernel sys_mem k) (Membership.kernels sys_mem)
  in
  List.iter
    (fun k ->
      let mem = Kernel.membership k in
      if Membership.kernel_states mem <> Membership.kernel_states sys_mem then
        fail "fleet: kernel %d lifecycle replica diverged from the system replica" (Kernel.id k);
      List.iter
        (fun pe ->
          match Membership.kernel_of_pe mem pe with
          | owner ->
            if owner <> Membership.kernel_of_pe sys_mem pe then
              fail "fleet: kernel %d routes PE %d to kernel %d, system replica says %d"
                (Kernel.id k) pe owner
                (Membership.kernel_of_pe sys_mem pe)
          | exception Membership.Mid_handoff _ ->
            fail "fleet: kernel %d marks PE %d mid-handoff at quiescence" (Kernel.id k) pe)
        all_pes)
    (System.kernels sys);
  List.iter
    (fun k ->
      match Membership.kernel_state sys_mem (Kernel.id k) with
      | Membership.Spare | Membership.Retired ->
        let caps = Mapdb.count (Kernel.mapdb k) in
        let vpes = Kernel.vpe_count k in
        if caps > 0 then
          fail "fleet: %d capability records stranded on out-of-service kernel %d" caps
            (Kernel.id k);
        if vpes > 0 then
          fail "fleet: %d VPEs stranded on out-of-service kernel %d" vpes (Kernel.id k);
        if
          Membership.kernel_state sys_mem (Kernel.id k) = Membership.Retired
          && Membership.pes_of_kernel sys_mem (Kernel.id k) <> []
        then fail "fleet: retired kernel %d still owns partitions" (Kernel.id k)
      | _ -> ())
    (System.kernels sys)

(* One join or drain, run to completion from quiescence, oracles after.
   Reached only when the spec provisions spare kernels, so specs
   without spares draw exactly the pre-fleet RNG stream. *)
let fleet_action st =
  let sys = st.sys in
  ignore (System.run sys);
  let mem = System.membership sys in
  let ids = List.init (System.kernel_count sys) Fun.id in
  let joinable =
    List.filter
      (fun k ->
        match Membership.kernel_state mem k with
        | Membership.Spare | Membership.Retired -> true
        | _ -> false)
      ids
  in
  let drainable = List.filter (fun k -> Fleet.drainable sys ~kernel:k) ids in
  let act kind kernel f =
    let finished = ref false in
    f (fun () -> finished := true);
    ignore (System.run sys);
    if not !finished then
      st.failures <-
        Printf.sprintf "fleet: %s of kernel %d never completed" kind kernel :: st.failures
    else begin
      st.fleet_transitions <- st.fleet_transitions + 1;
      fleet_oracles st
    end
  in
  match (joinable, drainable) with
  | [], [] -> ()
  | j :: _, [] -> act "join" j (fun k -> Fleet.join sys ~kernel:j k)
  | [], d :: _ -> act "drain" d (fun k -> Fleet.drain sys ~kernel:d k)
  | j :: _, d :: _ ->
    if Rng.bool st.rng then act "join" j (fun k -> Fleet.join sys ~kernel:j k)
    else act "drain" d (fun k -> Fleet.drain sys ~kernel:d k)

let step_body st =
  let s = st.st_spec in
  let rng = st.rng in
  let sys = st.sys in
  let vpes = st.vpes in
  (match Rng.int rng 100 with
  | n when n < 10 -> alloc st (Rng.int rng s.vpes)
  | n when n < 40 -> (
    match pool_pick st with
    | None -> alloc st (Rng.int rng s.vpes)
    | Some (dv, dsel) ->
      issue st (Rng.int rng s.vpes)
        (P.Sys_obtain_from { donor_vpe = vpes.(dv).Vpe.id; donor_sel = dsel }))
  | n when n < 60 -> (
    match pool_pick st with
    | None -> alloc st (Rng.int rng s.vpes)
    | Some (hv, hsel) ->
      let recv = Rng.int rng s.vpes in
      issue st hv (P.Sys_delegate_to { recv_vpe = vpes.(recv).Vpe.id; sel = hsel }))
  | n when n < 75 -> (
    match pool_pick st with
    | None -> alloc st (Rng.int rng s.vpes)
    | Some (hv, hsel) -> issue st hv (P.Sys_revoke { sel = hsel; own = Rng.bool rng }))
  | n when n < 85 -> (
    match pool_pick st with
    | None -> alloc st (Rng.int rng s.vpes)
    | Some (hv, hsel) ->
      issue st hv (P.Sys_derive_mem { sel = hsel; offset = 0L; size = 1024L; perms = Perms.r }))
  | n when n < 93 ->
    (* Bounded partial run: lets the next syscalls overlap whatever
       is still in flight, exercising interleavings. *)
    ignore
      (System.run ~until:(Int64.add (System.now sys) (Int64.of_int (500 + Rng.int rng 4_000))) sys)
  | n when n < 98 && s.spares > 0 && Rng.int rng 3 = 0 ->
    (* Fleet transition: join a spare/retired kernel or drain an
       Active one, with faults hitting the lifecycle broadcasts and
       partition waves like any other op-tagged traffic. *)
    fleet_action st
  | n when n < 98 ->
    (* Migration needs quiescence; skip when the candidate cannot
       legally move right now. *)
    ignore (System.run sys);
    let v = vpes.(Rng.int rng s.vpes) in
    let dst = Rng.int rng s.kernels in
    if
      Vpe.is_alive v && (not v.Vpe.syscall_pending) && (not v.Vpe.frozen)
      && dst <> v.Vpe.kernel
      (* The live balancer only targets Active kernels; a drained boot
         kernel would be refused by the migrate_vpe safety gate. *)
      && Membership.kernel_state (System.membership sys) dst = Membership.Active
    then begin
      System.migrate_vpe sys v ~to_kernel:dst;
      st.migrations <- st.migrations + 1;
      (* Relocation oracle: with the engine drained, every record in
         the migrated VPE's partition must live at the destination
         and none at the source — a lost or misapplied
         part_update/part_records leaves records behind or
         routes lookups to a kernel that no longer has them. *)
      let key_pe = Semper_ddl.Key.pe in
      List.iter
        (fun k ->
          let here = ref 0 in
          Semper_caps.Mapdb.iter
            (fun cap ->
              if key_pe cap.Semper_caps.Cap.key = v.Vpe.pe then incr here)
            (Kernel.mapdb k);
          if Kernel.id k <> dst && !here > 0 then
            st.failures <-
              Printf.sprintf
                "relocation: %d records of migrated VPE %d stranded at kernel %d" !here
                v.Vpe.id (Kernel.id k)
              :: st.failures)
        (System.kernels sys);
      (* Every membership replica must agree on the new owner, with
         no handoff mark left behind. *)
      List.iter
        (fun k ->
          match Semper_ddl.Membership.kernel_of_pe (Kernel.membership k) v.Vpe.pe with
          | owner ->
            if owner <> dst then
              st.failures <-
                Printf.sprintf
                  "relocation: kernel %d routes PE %d to kernel %d, expected %d"
                  (Kernel.id k) v.Vpe.pe owner dst
                :: st.failures
          | exception Semper_ddl.Membership.Mid_handoff _ ->
            st.failures <-
              Printf.sprintf
                "relocation: kernel %d still marks PE %d mid-handoff after drain"
                (Kernel.id k) v.Vpe.pe
              :: st.failures)
        (System.kernels sys);
      if v.Vpe.frozen then
        st.failures <-
          Printf.sprintf "relocation: VPE %d still frozen after migration drained" v.Vpe.id
          :: st.failures
    end
  | _ ->
    let v = Rng.int rng s.vpes in
    if Vpe.is_alive vpes.(v) then issue st v P.Sys_exit);
  (* Small chance the next message batch starts later. *)
  if Rng.int rng 4 = 0 then
    ignore (System.run ~until:(Int64.add (System.now sys) 1_000L) sys)

let step st =
  if st.crashed = None && st.step_no < st.st_spec.ops then begin
    (try step_body st with exn -> st.crashed <- Some (Printexc.to_string exn));
    st.step_no <- st.step_no + 1
  end

let steps_done st = st.step_no
let state_system st = st.sys

let finish ?inc st =
  let sys = st.sys in
  (match st.crashed with
  | Some msg -> st.failures <- ("exception: " ^ msg) :: st.failures
  | None -> (
    try
      ignore (System.run sys);
      (* Liveness oracle: a drained engine with unanswered syscalls means
         a protocol lost a message for good. *)
      if st.replied <> st.issued then
        st.failures <-
          Printf.sprintf "liveness: %d of %d syscalls never got a reply" (st.issued - st.replied)
            st.issued
          :: st.failures;
      (* Safety oracle: the global capability forest must be consistent. *)
      let report = Audit.run sys in
      List.iter (fun e -> st.failures <- ("audit: " ^ e) :: st.failures) report.Audit.errors;
      (* Incremental-audit oracle: an auditor that mirrored the forest
         since boot and only re-verified dirty partitions must agree
         with the full pass. Gated on a clean full report — on corrupt
         state the two legitimately phrase violations differently. *)
      (match inc with
      | Some inc when report.Audit.errors = [] ->
        let ireport = Audit.Incremental.run inc in
        if
          ireport.Audit.errors <> []
          || ireport.Audit.capabilities <> report.Audit.capabilities
          || ireport.Audit.roots <> report.Audit.roots
          || ireport.Audit.max_depth <> report.Audit.max_depth
          || ireport.Audit.spanning_links <> report.Audit.spanning_links
        then
          st.failures <-
            Format.asprintf "incremental audit diverged: full %a vs incremental %a"
              Audit.pp_report report Audit.pp_report ireport
            :: st.failures
      | Some _ | None -> ());
      (* Credit oracle: at quiescence every per-peer send window must sit
         inside [0, max_inflight] — a negative window means a send slipped
         past the gate, an oversized one means a duplicated or spurious
         refund was banked instead of discarded (§5.1). *)
      List.iter
        (fun k ->
          List.iter
            (fun (peer, credits) ->
              if credits < 0 || credits > Cost.max_inflight then
                st.failures <-
                  Printf.sprintf
                    "credit: kernel %d window to peer %d is %d, outside [0, %d]"
                    (Kernel.id k) peer credits Cost.max_inflight
                  :: st.failures)
            (Kernel.credit_windows k))
        (System.kernels sys);
      (* Fleet oracles: membership replicas converged, nothing stranded
         on out-of-service kernels. *)
      fleet_oracles st
    with exn -> st.failures <- ("exception: " ^ Printexc.to_string exn) :: st.failures));
  let leaked = try System.shutdown sys with _ -> -1 in
  if leaked <> 0 then
    st.failures <-
      Printf.sprintf "teardown: %d capabilities survived shutdown" leaked :: st.failures;
  let kstat f = List.fold_left (fun acc k -> acc + f (Kernel.stats k)) 0 (System.kernels sys) in
  let inj =
    match System.fault_plan sys with
    | Some plan -> Fault.stats plan
    | None -> { Fault.delays = 0; dups = 0; drops = 0; stalls = 0 }
  in
  let failed = st.failures <> [] in
  (* Attach diagnostics only to failures: a metrics snapshot plus the
     tail of the protocol trace ring, both deterministic for the seed
     pair. *)
  let metrics_json =
    if failed then Obs.Json.to_string (Obs.Registry.snapshot (System.obs sys)) else ""
  in
  let trace_tail =
    if failed then
      List.map
        (fun e -> Obs.Json.to_string (Obs.Trace.event_json e))
        (Obs.Trace.tail (System.trace_buffer sys) ~n:40)
    else []
  in
  {
    workload_seed = st.st_workload_seed;
    fault_seed = st.st_fault_seed;
    syscalls = st.issued;
    replies = st.replied;
    ok_replies = st.ok;
    err_replies = st.errs;
    migrations = st.migrations;
    fleet_transitions = st.fleet_transitions;
    injected_delays = inj.Fault.delays;
    injected_dups = inj.Fault.dups;
    injected_drops = inj.Fault.drops;
    injected_stalls = inj.Fault.stalls;
    retries = kstat (fun s -> s.Kernel.retries);
    dup_ikc = kstat (fun s -> s.Kernel.dup_ikc);
    caps_leaked = leaked;
    failures = List.rev st.failures;
    metrics_json;
    trace_tail;
  }

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)

let case_kind = "fuzz-case"

let save_state st =
  Checkpoint.save ~kind:case_kind
    ~label:(Printf.sprintf "w=%d f=%d" st.st_workload_seed st.st_fault_seed)
    ~position:(Int64.of_int st.step_no)
    ~fingerprint:(System.fingerprint st.sys)
    st

let load_state image =
  match Checkpoint.load ~kind:case_kind image with
  | Error _ as e -> e
  | Ok ((header : Checkpoint.header), (st : state)) ->
    System.rebind st.sys;
    let fp = System.fingerprint st.sys in
    if header.Checkpoint.fingerprint <> "" && fp <> header.Checkpoint.fingerprint then
      Error "restored fuzz state does not reproduce the recorded fingerprint"
    else Ok (header, st)

(* Auto-checkpointing run: [on_checkpoint] fires with the state frozen
   just before ops 0, K, 2K, ... (skipped once the case has crashed —
   there is nothing left to resume into). With the default no-op
   callback this is exactly start; ops × step; finish. *)
let run_one ?(spec = default_spec) ?(checkpoint_every = 0) ?(on_checkpoint = fun _ _ -> ())
    ~workload_seed ~fault_seed () =
  let st = start ~spec ~workload_seed ~fault_seed () in
  (* The incremental-audit oracle lives outside [st]: checkpoint images
     must stay exactly one marshalable case root. Resumed cases run
     without it. *)
  let inc = Audit.Incremental.create ~full_every:0 (state_system st) in
  for i = 0 to spec.ops - 1 do
    if checkpoint_every > 0 && i mod checkpoint_every = 0 && st.crashed = None then
      on_checkpoint st.step_no (save_state st);
    step st
  done;
  finish ~inc st

(* ------------------------------------------------------------------ *)
(* Delta-debugging shrinker                                            *)

type shrink_result = {
  sh_spec : spec;
  sh_workload_seed : int;
  sh_fault_seed : int;
  sh_original : outcome;
  sh_min_ops : int;
  sh_minimal : outcome;
  sh_probes : int;
  sh_replayed_ops : int;
  sh_saved_ops : int;
}

(* Minimise the failing op-prefix of a case by binary search over
   prefix lengths, restarting each probe from the nearest in-memory
   checkpoint at or below the probe point instead of re-running the
   prefix from op zero. Probes run strictly sequentially in a
   deterministic order, so the minimal case is identical on every
   invocation and at any [--jobs] setting (the shrinker itself never
   fans out). *)
let shrink ?(spec = default_spec) ?checkpoint_every ~workload_seed ~fault_seed () =
  let every =
    match checkpoint_every with
    | Some k when k >= 1 -> k
    | Some _ -> invalid_arg "Fuzz.shrink: checkpoint_every must be >= 1"
    | None -> max 1 (spec.ops / 8)
  in
  (* Recording pass: images.(i) freezes the state just before op
     [i * every]. *)
  let n_images = (spec.ops / every) + 1 in
  let images = Array.make n_images Bytes.empty in
  (* A crash cuts the recording short; probes clamp to the last image
     that was actually taken. *)
  let recorded = ref (-1) in
  let original =
    run_one ~spec ~checkpoint_every:every
      ~on_checkpoint:(fun at image ->
        images.(at / every) <- image;
        recorded := max !recorded (at / every))
      ~workload_seed ~fault_seed ()
  in
  if original.failures = [] then Error "case passes all oracles; nothing to shrink"
  else if !recorded < 0 then
    Error "no checkpoints were recorded (zero ops, or the case crashed at boot)"
  else begin
    let probes = ref 0 and replayed = ref 0 and saved = ref 0 in
    let outcomes = Hashtbl.create 16 in
    let outcome_of l =
      match Hashtbl.find_opt outcomes l with
      | Some o -> o
      | None ->
        let c = min (l / every) !recorded in
        let st =
          match load_state images.(c) with
          | Ok (_, st) -> st
          | Error e -> failwith ("Fuzz.shrink: " ^ e)
        in
        incr probes;
        replayed := !replayed + (l - (c * every));
        saved := !saved + (c * every);
        for _ = (c * every) + 1 to l do
          step st
        done;
        let o = finish st in
        Hashtbl.replace outcomes l o;
        o
    in
    let fails l = (outcome_of l).failures <> [] in
    let lo = ref (-1) and hi = ref spec.ops in
    (* Invariant: [hi] fails; [lo] passes (-1 = nothing below 0). *)
    if fails 0 then hi := 0 else lo := 0;
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if fails mid then hi := mid else lo := mid
    done;
    (* The predicate need not be monotone (a longer prefix can heal a
       failure), so the binary-search boundary is only locally minimal.
       Walk down a bounded distance while the immediate predecessor
       still fails; with a monotone predicate this loop exits at once. *)
    let budget = ref every in
    while !hi > 0 && !budget > 0 && fails (!hi - 1) do
      decr budget;
      hi := !hi - 1
    done;
    let minimal = if !hi = spec.ops then original else outcome_of !hi in
    Ok
      {
        sh_spec = spec;
        sh_workload_seed = workload_seed;
        sh_fault_seed = fault_seed;
        sh_original = original;
        sh_min_ops = !hi;
        sh_minimal = minimal;
        sh_probes = !probes;
        sh_replayed_ops = !replayed;
        sh_saved_ops = !saved;
      }
  end

(* ------------------------------------------------------------------ *)
(* Self-contained counterexample cases                                 *)

module Case = struct
  type t = {
    name : string;
    spec : spec;
    workload_seed : int;
    fault_seed : int;
    expect : string list;
  }

  let failure_kind f =
    match String.index_opt f ':' with Some i -> String.sub f 0 i | None -> f

  let kinds failures = List.sort_uniq String.compare (List.map failure_kind failures)

  let of_shrink ~name (r : shrink_result) =
    {
      name;
      spec = { r.sh_spec with ops = r.sh_min_ops };
      workload_seed = r.sh_workload_seed;
      fault_seed = r.sh_fault_seed;
      expect = kinds r.sh_minimal.failures;
    }

  let format_tag = "semperos-fuzz-case 1"

  let to_string c =
    let s = c.spec in
    let b = Buffer.create 256 in
    let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
    line "%s" format_tag;
    line "name %s" c.name;
    line "workload-seed %d" c.workload_seed;
    line "fault-seed %d" c.fault_seed;
    line "kernels %d" s.kernels;
    line "vpes %d" s.vpes;
    line "ops %d" s.ops;
    if s.spares > 0 then line "spares %d" s.spares;
    line "faults %s"
      (String.concat ","
         (List.filter_map
            (fun (on, tag) -> if on then Some tag else None)
            [ (s.delay, "delay"); (s.dup, "dup"); (s.drop, "drop"); (s.stall, "stall") ]));
    line "retry %b" s.retry;
    line "expect %s" (String.concat "," c.expect);
    Buffer.contents b

  let of_string text =
    let lines =
      String.split_on_char '\n' text
      |> List.filter_map (fun l ->
             let l = String.trim l in
             if l = "" || l.[0] = '#' then None else Some l)
    in
    match lines with
    | tag :: rest when tag = format_tag -> (
      let field name =
        List.find_map
          (fun l ->
            let prefix = name ^ " " in
            if String.length l > String.length prefix
               && String.sub l 0 (String.length prefix) = prefix
            then Some (String.sub l (String.length prefix) (String.length l - String.length prefix))
            else None)
          rest
      in
      let int_field name =
        match field name with
        | Some v -> (
          match int_of_string_opt v with
          | Some n -> Ok n
          | None -> Error (Printf.sprintf "fuzz case: bad integer for %s" name))
        | None -> Error (Printf.sprintf "fuzz case: missing field %s" name)
      in
      let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
      let* workload_seed = int_field "workload-seed" in
      let* fault_seed = int_field "fault-seed" in
      let* kernels = int_field "kernels" in
      let* vpes = int_field "vpes" in
      let* ops = int_field "ops" in
      (* Cases written before the fleet existed carry no [spares] line;
         zero reproduces their RNG stream exactly. *)
      let* spares = match field "spares" with None -> Ok 0 | Some _ -> int_field "spares" in
      let faults =
        match field "faults" with
        | Some v -> String.split_on_char ',' v |> List.filter (fun t -> t <> "")
        | None -> []
      in
      let retry = field "retry" = Some "true" in
      let expect =
        match field "expect" with
        | Some v -> String.split_on_char ',' v |> List.filter (fun t -> t <> "")
        | None -> []
      in
      let has tag = List.mem tag faults in
      Ok
        {
          name = Option.value (field "name") ~default:"unnamed";
          spec =
            spec ~kernels ~vpes ~ops ~spares ~delay:(has "delay") ~dup:(has "dup")
              ~drop:(has "drop") ~stall:(has "stall") ~retry ();
          workload_seed;
          fault_seed;
          expect;
        })
    | _ -> Error "fuzz case: missing or unsupported format tag"

  let save path c =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (to_string c))

  let load path =
    match open_in path with
    | exception Sys_error e -> Error e
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> of_string (really_input_string ic (in_channel_length ic)))

  let run c = run_one ~spec:c.spec ~workload_seed:c.workload_seed ~fault_seed:c.fault_seed ()

  let check c =
    let o = run c in
    let got = kinds o.failures in
    if got = c.expect then Ok o
    else
      Error
        (Printf.sprintf "%s: expected oracle verdict [%s], got [%s]" c.name
           (String.concat "," c.expect) (String.concat "," got))
end

let outcome_line o =
  Printf.sprintf
    "w=%d f=%d calls=%d replies=%d ok=%d err=%d migr=%d fleet=%d inj[delay=%d dup=%d drop=%d \
     stall=%d] retries=%d dups_seen=%d leaked=%d %s"
    o.workload_seed o.fault_seed o.syscalls o.replies o.ok_replies o.err_replies o.migrations
    o.fleet_transitions o.injected_delays o.injected_dups o.injected_drops o.injected_stalls
    o.retries o.dup_ikc o.caps_leaked
    (match o.failures with
    | [] -> "PASS"
    | fs -> Printf.sprintf "FAIL(%d)" (List.length fs))

let pp_outcome ppf o =
  Format.fprintf ppf "%s" (outcome_line o);
  List.iter (fun f -> Format.fprintf ppf "@.  %s" f) o.failures;
  if o.trace_tail <> [] then begin
    Format.fprintf ppf "@.  trace tail (%d events):" (List.length o.trace_tail);
    List.iter (fun line -> Format.fprintf ppf "@.    %s" line) o.trace_tail
  end;
  if o.metrics_json <> "" then Format.fprintf ppf "@.  metrics: %s" o.metrics_json

(* Each seed pair builds a private system, so the sweep fans out over
   domains; outcomes come back in seed order regardless of [jobs]. *)
let run_many ?jobs ?(spec = default_spec) ~workload_seed ~fault_seed ~runs () =
  Semper_util.Domain_pool.map ?jobs
    (fun i -> run_one ~spec ~workload_seed:(workload_seed + i) ~fault_seed:(fault_seed + i) ())
    (List.init runs Fun.id)
