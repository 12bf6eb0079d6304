(* [sessions]: an open loop of cross-kernel session churn.

   Every kernel hosts one benchmark-owned session service and
   [clients_per_kernel] client VPEs. Clients on kernel k talk to the
   service on kernel k+1, so every operation spans kernels: IKC, credit
   windows, retry timers, the fabric and membership lookup carry the
   load while the capability store stays near-empty. One operation is
   [Sys_open_session] followed by [Sys_revoke] of the new session.

   Arrivals are seeded exponential gaps per client, all scheduled
   before the loop starts, so the engine holds a pending queue as deep
   as the trace. A client keeps one session in flight and queues later
   arrivals; latency runs from each arrival's due time, so backlog
   counts. The mean gap puts the offered rate just below the knee. *)

open Semperos
module P = Protocol

type shape = { kernels : int; clients_per_kernel : int; sessions : int; mean_gap : float }

let shape = function
  | Load.Full -> { kernels = 16; clients_per_kernel = 31; sessions = 40_000; mean_gap = 200_000.0 }
  | Load.Tiny -> { kernels = 2; clients_per_kernel = 4; sessions = 400; mean_gap = 200_000.0 }

type client = {
  vpe : Vpe.t;
  service : string;
  due : int64 array;  (* arrival times, ascending *)
  mutable arrived : int;
  mutable started : int;
  mutable busy : bool;
}

let service_name k = Printf.sprintf "sess%d" k

(* A session service owned by the benchmark: every open is accepted
   after a fixed processing cost on the service's own PE, every other
   request is refused. Runs the engine to finish registration. *)
let service sys ~kernel ~name =
  let vpe = System.spawn_vpe sys ~kernel in
  let server = Server.create (System.engine sys) ~name in
  let next = ref 0 in
  Kernel.register_service_handler (System.kernel sys kernel) ~name (fun req k ->
      let s = Spans.enter Load.sp_service in
      (match req with
      | P.Srq_open_session _ ->
        Server.submit server ~cost:2_000L (fun () ->
            let ident = !next in
            incr next;
            k (P.Srs_session { ident }))
      | P.Srq_obtain _ | P.Srq_delegate _ -> k (P.Srs_reject P.E_invalid));
      Spans.leave_polling s);
  ignore
    (Load.sel_exn ("create_srv " ^ name) (System.syscall_sync sys vpe (P.Sys_create_srv { name })))

let build ~size ~seed ~refuse =
  let sh = shape size in
  let sys =
    Load.phase Load.sp_system_create (fun () ->
        System.create
          (System.config ~kernels:sh.kernels
             ~user_pes_per_kernel:(sh.clients_per_kernel + 1 + Load.refused_pes refuse)
             ()))
  in
  Load.phase Load.sp_services (fun () ->
      for k = 0 to sh.kernels - 1 do
        service sys ~kernel:k ~name:(service_name k)
      done;
      ignore (System.run sys));
  let n_clients = sh.kernels * sh.clients_per_kernel in
  let rng = Rng.create (Int64.of_int seed) in
  let clients =
    Load.phase Load.sp_spawn (fun () ->
        Array.init n_clients (fun i ->
            let k = i / sh.clients_per_kernel in
            let vpe = System.spawn_vpe sys ~kernel:k in
            let n = (sh.sessions / n_clients) + if i < sh.sessions mod n_clients then 1 else 0 in
            (* Exponential gaps rescaled so the (n+1)-th arrival would
               fall at n * mean_gap: a Poisson process conditioned on
               its count, so the trace length is the same for every
               seed and only the arrival pattern varies. *)
            let crng = Rng.split rng in
            let gaps = Array.init (n + 1) (fun _ -> Rng.exponential crng ~mean:1.0) in
            let scale = float_of_int n *. sh.mean_gap /. Array.fold_left ( +. ) 0.0 gaps in
            let t = ref 0.0 and base = System.now sys in
            let due =
              Array.init n (fun j ->
                  t := !t +. (gaps.(j) *. scale);
                  Int64.add base (Int64.of_float (Float.ceil !t)))
            in
            {
              vpe;
              service = service_name ((k + 1) mod sh.kernels);
              due;
              arrived = 0;
              started = 0;
              busy = false;
            }))
  in
  let ops = Ops.create () in
  let baseline = Load.live_caps sys in
  let rec start c =
    let due = c.due.(c.started) in
    c.started <- c.started + 1;
    c.busy <- true;
    Ops.attempt ops;
    System.syscall sys c.vpe (P.Sys_open_session { service = c.service }) (fun r ->
        let s = Spans.enter Load.sp_client in
        (match r with
        | P.R_sess { sel; _ } ->
          System.syscall sys c.vpe (P.Sys_revoke { sel; own = true }) (fun r ->
              let s = Spans.enter Load.sp_client in
              let now = System.now sys in
              (match r with
              | P.R_ok -> Ops.complete ops ~start:due ~now
              | r -> Ops.fail_reply ops ~now "revoke session" r);
              next c;
              Spans.leave_polling s)
        | r ->
          Ops.fail_reply ops ~now:(System.now sys) "open session" r;
          next c);
        Spans.leave_polling s)
  and next c = if c.started < c.arrived then start c else c.busy <- false in
  let arrive c () =
    let s = Spans.enter Load.sp_client in
    c.arrived <- c.arrived + 1;
    if not c.busy then start c;
    Spans.leave_polling s
  in
  Load.phase Load.sp_arm (fun () ->
      let engine = System.engine sys in
      Array.iter (fun c -> Array.iter (fun t -> Engine.at engine t (arrive c)) c.due) clients;
      Load.arm_refused sys ops refuse);
  let check () =
    let live = Load.live_caps sys in
    if live <> baseline then
      [ Printf.sprintf "sessions: %d capabilities live after the loop, %d before" live baseline ]
    else []
  in
  { Load.sys; ops; check; layers = (fun () -> []) }
