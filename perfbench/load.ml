(* What every workload hands back to the measurement loop, and the
   pieces the workloads share. *)

open Semperos
module P = Protocol

type size = Full | Tiny

type t = {
  sys : System.t;
  ops : Ops.t;
  check : unit -> string list;
      (** workload-specific output checks, run after the event loop *)
  layers : unit -> (string * float) list;
      (** the workload's own per-layer counters ([m3fs.*], [trace.*]) *)
}

(* Span names, shared so every workload reports the same set. *)
let sp_system_create = Spans.name "setup.system_create"
let sp_services = Spans.name "setup.services"
let sp_spawn = Spans.name "setup.spawn"
let sp_arm = Spans.name "setup.arm"
let sp_client = Spans.name "client.callback"
let sp_service = Spans.name "service.callback"

let phase id f =
  let s = Spans.enter id in
  let r = f () in
  Spans.leave s;
  r

let live_caps sys =
  List.fold_left (fun acc k -> acc + Mapdb.count (Kernel.mapdb k)) 0 (System.kernels sys)

let sel_exn what = function
  | P.R_sel s -> s
  | r -> failwith (Format.asprintf "%s: unexpected reply %a" what P.pp_reply r)

(* Refused operations, for the smoke test: a VPE of its own on kernel 0
   opens a service that does not exist, [n] times in a row. Each is an
   attempted operation that must come back as an error reply. *)
let arm_refused sys ops n =
  if n > 0 then begin
    let vpe = System.spawn_vpe sys ~kernel:0 in
    let rec go i =
      if i < n then begin
        let start = System.now sys in
        Ops.attempt ops;
        System.syscall sys vpe (P.Sys_open_session { service = "no-such-service" }) (fun r ->
            let now = System.now sys in
            (match r with
            | P.R_err _ -> Ops.fail_reply ops ~now "open no-such-service" r
            | _ -> Ops.complete ops ~start ~now);
            go (i + 1))
      end
    in
    go 0
  end

(* The user PE reserved for [arm_refused]. *)
let refused_pes n = if n > 0 then 1 else 0
