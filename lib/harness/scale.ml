module Obs = Semper_obs.Obs
module Engine = Semper_sim.Engine
module Server = Semper_sim.Server
module System = Semper_kernel.System
module Kernel = Semper_kernel.Kernel
module Vpe = Semper_kernel.Vpe
module P = Semper_kernel.Protocol
module Perms = Semper_caps.Perms
module Workloads = Semper_trace.Workloads
module Rng = Semper_util.Rng
module T = Semper_util.Table

type preset = Full | Smoke

type row = {
  r_name : string;
  r_total_pes : int;
  r_kernels : int;
  r_services : int;
  r_instances : int;
  (* Open-loop session opens driven by the trace generator; 0 for the
     application-mix rows, whose load is the workload replay itself. *)
  r_sessions : int;
  r_wall_s : float;
  r_events : int;
  r_events_per_s : float;
  r_cap_ops : int;
  r_cap_ops_per_s : float;
  r_heap_peak : int;
  r_minor_collections : int;
  r_major_collections : int;
  r_promoted_words : float;
  r_audit_caps : int;
  r_audit_full_s : float;
  r_audit_incremental_s : float;
}

type point = {
  p_name : string;
  p_kernels : int;
  p_services : int;
  p_instances : int;
  p_derives : int;  (* derivation-tree fan-out per VPE in the churn forest *)
  p_churn_vpes : int;  (* VPEs touched by the steady-state churn *)
}

(* kernels + services + instances = the advertised PE count; per-kernel
   user PEs stay well under [Cost.max_pes_per_kernel]. Weak scaling
   like the paper's evaluation: kernels grow with the PE count so
   every row runs 62 instances per kernel group — the 4K row formerly
   kept 32 kernels and doubled the per-kernel load instead, which
   conflated group size with system size. *)
let points_of_preset = function
  | Full ->
    [
      { p_name = "1k"; p_kernels = 16; p_services = 16; p_instances = 992; p_derives = 3; p_churn_vpes = 8 };
      { p_name = "2k"; p_kernels = 32; p_services = 32; p_instances = 1984; p_derives = 3; p_churn_vpes = 8 };
      { p_name = "4k"; p_kernels = 64; p_services = 64; p_instances = 3968; p_derives = 3; p_churn_vpes = 8 };
    ]
  | Smoke ->
    [ { p_name = "smoke"; p_kernels = 2; p_services = 2; p_instances = 8; p_derives = 2; p_churn_vpes = 2 } ]

(* The open-session rows: a trace-driven, open-loop arrival process of
   client sessions (ROADMAP item 3's ~1M-session frontier). Arrival
   times come from a fixed-seed exponential trace generated up front
   and are scheduled before the run starts, so the engine begins with
   [s_sessions] pending events — the regime where a binary heap pays
   O(log n) per hop and the wheel pays O(1). *)
type session_point = {
  s_name : string;
  s_kernels : int;
  s_clients_per_kernel : int;
  s_sessions : int;
  s_mean_gap : float;  (* mean per-client interarrival, cycles *)
}

let session_points_of_preset = function
  | Full ->
    [
      {
        s_name = "1m-sessions";
        s_kernels = 16;
        s_clients_per_kernel = 31;
        s_sessions = 1_000_000;
        s_mean_gap = 8_000.0;
      };
    ]
  | Smoke ->
    [
      {
        s_name = "smoke-sessions";
        s_kernels = 2;
        s_clients_per_kernel = 4;
        s_sessions = 2_000;
        s_mean_gap = 4_000.0;
      };
    ]

(* One memory-bound and one stat-heavy application per row: enough mix
   to exercise both data-capability hand-out and service traffic
   without turning the 4K row into minutes of wall-clock. *)
let mix pt =
  List.map
    (fun w ->
      Experiment.config ~kernels:pt.p_kernels ~services:pt.p_services ~instances:pt.p_instances w)
    [ Workloads.tar; Workloads.find ]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let sel_of who = function
  | P.R_sel s -> s
  | r -> failwith (Format.asprintf "Scale: %s: unexpected reply %a" who P.pp_reply r)

(* A capability forest spanning every user-PE partition of a
   [pt]-sized system: one VPE per user PE, each holding a memory
   capability with a small derivation tree. *)
let churn_system pt =
  let user_pes = (pt.p_instances + pt.p_services + pt.p_kernels - 1) / pt.p_kernels in
  let sys = System.create (System.config ~kernels:pt.p_kernels ~user_pes_per_kernel:user_pes ()) in
  let vpes = ref [] in
  for k = 0 to pt.p_kernels - 1 do
    for _ = 1 to user_pes do
      let vpe = System.spawn_vpe sys ~kernel:k in
      vpes := vpe :: !vpes;
      let root =
        sel_of "alloc_mem"
          (System.syscall_sync sys vpe (P.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))
      in
      for _ = 1 to pt.p_derives do
        ignore
          (sel_of "derive_mem"
             (System.syscall_sync sys vpe
                (P.Sys_derive_mem { sel = root; offset = 0L; size = 64L; perms = Perms.r })))
      done
    done
  done;
  (sys, List.rev !vpes)

(* Steady-state churn on a handful of VPEs, then one full audit and
   one incremental audit over the same dirty partitions. The full pass
   does not drain dirty sets, so both see identical churn. *)
let audit_times pt =
  let sys, vpes = churn_system pt in
  let inc = Audit.Incremental.create ~full_every:0 sys in
  List.iteri
    (fun i vpe ->
      if i < pt.p_churn_vpes then begin
        let root =
          sel_of "alloc_mem"
            (System.syscall_sync sys vpe (P.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))
        in
        ignore
          (sel_of "derive_mem"
             (System.syscall_sync sys vpe
                (P.Sys_derive_mem { sel = root; offset = 0L; size = 64L; perms = Perms.r })));
        match System.syscall_sync sys vpe (P.Sys_revoke { sel = root; own = false }) with
        | P.R_ok -> ()
        | r -> failwith (Format.asprintf "Scale: revoke: unexpected reply %a" P.pp_reply r)
      end)
    vpes;
  let full, t_full = time (fun () -> Audit.run sys) in
  let irep, t_inc = time (fun () -> Audit.Incremental.run inc) in
  if full.Audit.errors <> [] then
    failwith (Format.asprintf "Scale: churn forest audit failed: %a" Audit.pp_report full);
  if irep <> full then
    failwith
      (Format.asprintf "Scale: incremental audit diverged: full %a vs incremental %a"
         Audit.pp_report full Audit.pp_report irep);
  (full.Audit.capabilities, t_full, t_inc)

(* A minimal session service: every open is accepted after the
   standard session cost on the service's processing queue, and no
   grants are served — the row measures session-protocol throughput,
   not filesystem work. *)
let session_service sys ~kernel:kid ~name =
  let vpe = System.spawn_vpe sys ~kernel:kid in
  let server = Server.create (System.engine sys) ~name in
  let next = ref 0 in
  Kernel.register_service_handler (System.kernel sys kid) ~name (fun req k ->
      match req with
      | P.Srq_open_session _ ->
        Server.submit server ~cost:2_000L (fun () ->
            let ident = !next in
            incr next;
            k (P.Srs_session { ident }))
      | P.Srq_obtain _ | P.Srq_delegate _ -> k (P.Srs_reject P.E_invalid));
  match System.syscall_sync sys vpe (P.Sys_create_srv { name }) with
  | P.R_sel _ -> ()
  | r -> failwith (Format.asprintf "Scale: create_srv %s: unexpected reply %a" name P.pp_reply r)

type client = {
  c_vpe : Vpe.t;
  c_service : string;
  mutable c_backlog : int;  (* arrivals not yet started *)
  mutable c_busy : bool;  (* a session of ours is in flight *)
}

(* Open-loop injection: every arrival is scheduled up front from a
   fixed-seed exponential trace (one [Rng.split] stream per client, so
   the trace is independent of client count ordering), which puts the
   full [s_sessions] arrivals in the pending queue before the run
   starts. A client keeps at most one session in flight and queues the
   rest as backlog, like a blocking client library would. Each session
   is open + revoke(own), and clients on kernel [k] talk to the
   service on kernel [k+1] so every open crosses a kernel boundary. *)
let measure_sessions sp =
  let clients_total = sp.s_kernels * sp.s_clients_per_kernel in
  let user_pes = sp.s_clients_per_kernel + 1 in
  let sys = System.create (System.config ~kernels:sp.s_kernels ~user_pes_per_kernel:user_pes ()) in
  for k = 0 to sp.s_kernels - 1 do
    session_service sys ~kernel:k ~name:(Printf.sprintf "sess%d" k)
  done;
  (* Drain service creation and directory replication before arming
     the arrival trace. *)
  ignore (System.run sys);
  let clients =
    Array.init clients_total (fun i ->
        let k = i / sp.s_clients_per_kernel in
        {
          c_vpe = System.spawn_vpe sys ~kernel:k;
          c_service = Printf.sprintf "sess%d" ((k + 1) mod sp.s_kernels);
          c_backlog = 0;
          c_busy = false;
        })
  in
  let completed = ref 0 in
  let rec start c =
    c.c_busy <- true;
    c.c_backlog <- c.c_backlog - 1;
    System.syscall sys c.c_vpe (P.Sys_open_session { service = c.c_service }) (function
      | P.R_sess { sel; _ } ->
        System.syscall sys c.c_vpe (P.Sys_revoke { sel; own = true }) (function
          | P.R_ok ->
            incr completed;
            if c.c_backlog > 0 then start c else c.c_busy <- false
          | r -> failwith (Format.asprintf "Scale: close session: unexpected reply %a" P.pp_reply r))
      | r -> failwith (Format.asprintf "Scale: open session: unexpected reply %a" P.pp_reply r))
  in
  let engine = System.engine sys in
  let base = System.now sys in
  let rng = Rng.create 0x5e55_10f5L in
  let per_client = sp.s_sessions / clients_total in
  let extra = sp.s_sessions mod clients_total in
  Array.iteri
    (fun i c ->
      let crng = Rng.split rng in
      let t = ref base in
      for _ = 1 to per_client + (if i < extra then 1 else 0) do
        t :=
          Int64.add !t
            (Int64.of_int (max 1 (int_of_float (Rng.exponential crng ~mean:sp.s_mean_gap))));
        Engine.at engine !t (fun () ->
            c.c_backlog <- c.c_backlog + 1;
            if not c.c_busy then start c)
      done)
    clients;
  let inc = Audit.Incremental.create ~full_every:0 sys in
  Gc.full_major ();
  Engine.Totals.reset_heap_peak ();
  let p0 = Engine.Totals.processed () in
  let cap0 = System.total_cap_ops sys in
  let g0 = Gc.quick_stat () in
  let _, wall = time (fun () -> System.run sys) in
  let g1 = Gc.quick_stat () in
  if !completed <> sp.s_sessions then
    failwith
      (Printf.sprintf "Scale: %s: completed %d of %d sessions" sp.s_name !completed sp.s_sessions);
  let events = Engine.Totals.processed () - p0 in
  let cap_ops = System.total_cap_ops sys - cap0 in
  let full, t_full = time (fun () -> Audit.run sys) in
  let irep, t_inc = time (fun () -> Audit.Incremental.run inc) in
  if full.Audit.errors <> [] then
    failwith (Format.asprintf "Scale: session system audit failed: %a" Audit.pp_report full);
  if irep <> full then
    failwith
      (Format.asprintf "Scale: incremental audit diverged: full %a vs incremental %a"
         Audit.pp_report full Audit.pp_report irep);
  {
    r_name = sp.s_name;
    r_total_pes = sp.s_kernels + sp.s_kernels + clients_total;
    r_kernels = sp.s_kernels;
    r_services = sp.s_kernels;
    r_instances = clients_total;
    r_sessions = sp.s_sessions;
    r_wall_s = wall;
    r_events = events;
    r_events_per_s = (if wall > 0.0 then float_of_int events /. wall else 0.0);
    r_cap_ops = cap_ops;
    r_cap_ops_per_s = (if wall > 0.0 then float_of_int cap_ops /. wall else 0.0);
    r_heap_peak = Engine.Totals.heap_peak ();
    r_minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    r_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    r_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    r_audit_caps = full.Audit.capabilities;
    r_audit_full_s = t_full;
    r_audit_incremental_s = t_inc;
  }

(* Serial on purpose: the point is a comparable throughput trajectory
   versus PE count, and domain fan-out would fold scheduler noise into
   every row. Throughput is events over the
   event-loop wall alone ({!Experiment.outcome.replay_wall_s}):
   charging image building and VPE spawning — which process no
   events — to events/s would make the figure measure setup, not the
   simulator. The full major collection fences each row off from the
   previous row's garbage.

   Each row is the best (minimum event-loop wall) of [app_row_reps]
   identical repetitions. The simulated quantities — events, cap ops,
   heap peak — are bit-identical across repetitions, so the minimum is
   the repetition the host interfered with least: on a single-core
   container the run-to-run spread is ±15–20%, which would otherwise
   drown the trend the row exists to show. *)
let app_row_reps = 3

let measure_row pt =
  let measure () =
    Gc.full_major ();
    Engine.Totals.reset_heap_peak ();
    let p0 = Engine.Totals.processed () in
    let g0 = Gc.quick_stat () in
    let outcomes = Experiment.run_many ~jobs:1 (mix pt) in
    let g1 = Gc.quick_stat () in
    let events = Engine.Totals.processed () - p0 in
    let wall = List.fold_left (fun acc o -> acc +. o.Experiment.replay_wall_s) 0.0 outcomes in
    let cap_ops = List.fold_left (fun acc o -> acc + o.Experiment.cap_ops) 0 outcomes in
    (wall, events, cap_ops, Engine.Totals.heap_peak (), g0, g1)
  in
  let best = ref (measure ()) in
  for _ = 2 to app_row_reps do
    let ((w, _, _, _, _, _) as m) = measure () in
    let bw, _, _, _, _, _ = !best in
    if w < bw then best := m
  done;
  let wall, events, cap_ops, heap_peak, g0, g1 = !best in
  let audit_caps, t_full, t_inc = audit_times pt in
  {
    r_name = pt.p_name;
    r_total_pes = pt.p_instances + pt.p_services + pt.p_kernels;
    r_kernels = pt.p_kernels;
    r_services = pt.p_services;
    r_instances = pt.p_instances;
    r_sessions = 0;
    r_wall_s = wall;
    r_events = events;
    r_events_per_s = (if wall > 0.0 then float_of_int events /. wall else 0.0);
    r_cap_ops = cap_ops;
    r_cap_ops_per_s = (if wall > 0.0 then float_of_int cap_ops /. wall else 0.0);
    r_heap_peak = heap_peak;
    r_minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    r_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    r_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    r_audit_caps = audit_caps;
    r_audit_full_s = t_full;
    r_audit_incremental_s = t_inc;
  }

let rows ?(preset = Full) () =
  let pts = points_of_preset preset in
  (* One unmeasured warm-up at the largest row's scale first: it
     brings the process heap, allocator, and page tables to their
     steady state, so the first measured row is not flattered by a
     small cold heap relative to the rows measured after it. Each
     measured phase then resets the heap-peak high-water mark. *)
  (match List.rev pts with
  | largest :: _ -> ignore (Experiment.run_many ~jobs:1 (mix largest))
  | [] -> ());
  (* Application rows strictly first ([@] gives no evaluation-order
     guarantee): [Engine.Totals.processed] deltas must not interleave. *)
  let app = List.map measure_row pts in
  app @ List.map measure_sessions (session_points_of_preset preset)

let row_json r =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str r.r_name);
      ("total_pes", Obs.Json.Int r.r_total_pes);
      ("kernels", Obs.Json.Int r.r_kernels);
      ("services", Obs.Json.Int r.r_services);
      ("instances", Obs.Json.Int r.r_instances);
      ("sessions", Obs.Json.Int r.r_sessions);
      ("wall_s", Obs.Json.Float r.r_wall_s);
      ("events_processed", Obs.Json.Int r.r_events);
      ("events_per_s", Obs.Json.Float r.r_events_per_s);
      ("cap_ops", Obs.Json.Int r.r_cap_ops);
      ("cap_ops_per_s", Obs.Json.Float r.r_cap_ops_per_s);
      ("heap_peak", Obs.Json.Int r.r_heap_peak);
      ("gc_minor_collections", Obs.Json.Int r.r_minor_collections);
      ("gc_major_collections", Obs.Json.Int r.r_major_collections);
      ("gc_promoted_words", Obs.Json.Float r.r_promoted_words);
      ("audit_caps", Obs.Json.Int r.r_audit_caps);
      ("audit_full_s", Obs.Json.Float r.r_audit_full_s);
      ("audit_incremental_s", Obs.Json.Float r.r_audit_incremental_s);
    ]

let json rows =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "semperos-scale-2");
      ("jobs", Obs.Json.Int 1);
      ("rows", Obs.Json.Arr (List.map row_json rows));
    ]

let print rows =
  T.print ~title:"Scale ceiling: application mix + audit cost vs PE count (host-dependent)"
    ~header:
      [
        "row"; "pes"; "sessions"; "wall_s"; "events/s"; "cap_ops"; "cap_ops/s"; "heap_peak";
        "gc_minor"; "gc_major"; "audit_full_ms"; "audit_inc_ms";
      ]
    (List.map
       (fun r ->
         [
           r.r_name;
           string_of_int r.r_total_pes;
           string_of_int r.r_sessions;
           Printf.sprintf "%.3f" r.r_wall_s;
           Printf.sprintf "%.0f" r.r_events_per_s;
           string_of_int r.r_cap_ops;
           Printf.sprintf "%.0f" r.r_cap_ops_per_s;
           string_of_int r.r_heap_peak;
           string_of_int r.r_minor_collections;
           string_of_int r.r_major_collections;
           Printf.sprintf "%.3f" (r.r_audit_full_s *. 1000.0);
           Printf.sprintf "%.3f" (r.r_audit_incremental_s *. 1000.0);
         ])
       rows)

let run ?(preset = Full) ?(path = "BENCH_scale.json") () =
  let rs = rows ~preset () in
  print rs;
  Bench_json.write ~path (json rs)
