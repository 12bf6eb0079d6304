(* [apps]: a closed loop of application instances replaying the six
   Table-4 traces against m3fs.

   Instances run [rounds] traces back to back; the mix is every trace
   equally often, in a seeded order. There are half as many m3fs
   services as kernels: instances on the first half of the kernels use
   their group-local service, the other half reach one across a kernel
   boundary. This is the only workload that loads m3fs, the trace
   replayer and image building; its kernel work is short single-level
   extent grants revoked on close, and the engine queue stays shallow.
   One operation is one trace replay, timed from its start to its
   completion. *)

open Semperos

type shape = { kernels : int; services : int; instances : int; rounds : int }

let shape = function
  | Load.Full -> { kernels = 16; services = 8; instances = 992; rounds = 2 }
  | Load.Tiny -> { kernels = 2; services = 1; instances = 12; rounds = 2 }

let build ~size ~seed ~refuse =
  let sh = shape size in
  let specs = Array.of_list Workloads.all in
  let traces = Array.map (fun s -> s.Workloads.build ()) specs in
  let rng = Rng.create (Int64.of_int seed) in
  let tasks = Array.init (sh.instances * sh.rounds) (fun i -> i mod Array.length traces) in
  Rng.shuffle rng tasks;
  let task i r = tasks.((i * sh.rounds) + r) in
  let prefix i r = Printf.sprintf "/i%d.%d" i r in
  let service_of i = i mod sh.kernels mod sh.services in
  let per_kernel = (sh.instances + sh.kernels - 1) / sh.kernels in
  let sys =
    Load.phase Load.sp_system_create (fun () ->
        System.create
          (System.config ~kernels:sh.kernels
             ~user_pes_per_kernel:(per_kernel + 1 + Load.refused_pes refuse)
             ()))
  in
  let services =
    Load.phase Load.sp_services (fun () ->
        let files = Array.make sh.services [] in
        for i = 0 to sh.instances - 1 do
          for r = 0 to sh.rounds - 1 do
            let s = service_of i in
            files.(s) <-
              List.rev_append
                (List.map (fun (p, n) -> (prefix i r ^ p, n)) traces.(task i r).Trace.files)
                files.(s)
          done
        done;
        Array.init sh.services (fun s ->
            M3fs.create sys ~kernel:s ~name:(Printf.sprintf "m3fs%d" s)
              ~files:(List.rev files.(s)) ()))
  in
  let vpes =
    Load.phase Load.sp_spawn (fun () ->
        Array.init sh.instances (fun i -> System.spawn_vpe sys ~kernel:(i mod sh.kernels)))
  in
  let ops = Ops.create () in
  let io_ops = ref 0 and io_errors = ref 0 and short = ref [] in
  let rec replay i r =
    if r < sh.rounds then begin
      let trace = traces.(task i r) in
      let start = System.now sys in
      Ops.attempt ops;
      Replay.run sys services.(service_of i) ~vpe:vpes.(i) ~prefix:(prefix i r) trace
        (fun (res : Replay.result) ->
          let s = Spans.enter Load.sp_client in
          let now = System.now sys in
          io_ops := !io_ops + res.Replay.io_ops;
          io_errors := !io_errors + List.length res.Replay.errors;
          (match res.Replay.errors with
          | [] -> Ops.complete ops ~start ~now
          | e :: _ -> Ops.fail ops ~now (Printf.sprintf "%s: %s" trace.Trace.name e));
          if res.Replay.io_ops <> Trace.io_ops trace && List.length !short < 5 then
            short :=
              Printf.sprintf "apps: %s on instance %d ran %d of %d I/O ops" trace.Trace.name i
                res.Replay.io_ops (Trace.io_ops trace)
              :: !short;
          replay i (r + 1);
          Spans.leave_polling s)
    end
  in
  Load.phase Load.sp_arm (fun () ->
      let engine = System.engine sys in
      Array.iteri
        (fun i _ ->
          Engine.after engine (Int64.of_int (Rng.int rng 1_000_000)) (fun () -> replay i 0))
        vpes;
      Load.arm_refused sys ops refuse);
  let layers () =
    let sum f = Array.fold_left (fun acc s -> acc + f (M3fs.stats s)) 0 services in
    let now = Int64.to_float (System.now sys) in
    let occupancy s = Int64.to_float (Server.busy_cycles (M3fs.server s)) /. now in
    [
      ("m3fs.meta_ops", float_of_int (sum (fun s -> s.M3fs.meta_ops)));
      ("m3fs.grants", float_of_int (sum (fun s -> s.M3fs.grants)));
      ("m3fs.revoke_calls", float_of_int (sum (fun s -> s.M3fs.revoke_calls)));
      ( "m3fs.occupancy_max",
        Array.fold_left (fun acc s -> Float.max acc (occupancy s)) 0.0 services );
      ("trace.io_ops", float_of_int !io_ops);
      ("trace.errors", float_of_int !io_errors);
    ]
  in
  { Load.sys; ops; check = (fun () -> List.rev !short); layers }
