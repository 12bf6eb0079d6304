(* [revoke-trees]: a closed loop of large remote revocations over a big
   capability store.

   Each client owns [helpers] helper VPEs on the following kernels. Per
   round it allocates a root memory capability, grows a seeded
   fan-out/depth tree of [Sys_obtain_from] copies on its helpers (every
   parent/child edge crosses a kernel), and revokes the root. The
   operation is the revoke: the paper's two-phase mark-and-sweep
   (Algorithm 1) over remote subtrees. Before the loop, every kernel
   also gets a standing resident forest of derived memory capabilities
   that stays live throughout, so the mapping database works over a
   large live set while the engine queue stays shallow. *)

open Semperos
module P = Protocol

type shape = {
  kernels : int;
  clients_per_kernel : int;
  helpers : int;
  rounds : int;
  resident_roots : int;
  resident_children : int;
}

let shape = function
  | Load.Full ->
    {
      kernels = 16;
      clients_per_kernel = 4;
      helpers = 4;
      rounds = 24;
      resident_roots = 32;
      resident_children = 63;
    }
  | Load.Tiny ->
    {
      kernels = 2;
      clients_per_kernel = 2;
      helpers = 4;
      rounds = 3;
      resident_roots = 2;
      resident_children = 7;
    }

type client = {
  vpe : Vpe.t;
  helper_vpes : Vpe.t array;
  shapes : (int * int) array;  (* (fan-out, depth) of each round's tree *)
  mutable round : int;
}

(* Tree node [i]: its parent node and the helper that holds it (node 0
   is the root, held by the client). *)
type tree = { parent : int array; holder : int array; sels : int array }

(* Breadth-first tree of the given fan-out and depth. A child sits on
   the helper after its parent's, so every edge crosses a kernel. *)
let tree ~helpers ~fanout ~depth =
  let nodes = ref [ (-1, -1) ] and level = ref [ (0, -1) ] and next = ref 1 in
  for _ = 1 to depth do
    let fresh = ref [] in
    List.iter
      (fun (p, h) ->
        for j = 0 to fanout - 1 do
          let holder = (h + 1 + j) mod helpers in
          nodes := (p, holder) :: !nodes;
          fresh := (!next, holder) :: !fresh;
          incr next
        done)
      !level;
    level := List.rev !fresh
  done;
  let nodes = Array.of_list (List.rev !nodes) in
  {
    parent = Array.map fst nodes;
    holder = Array.map snd nodes;
    sels = Array.make (Array.length nodes) 0;
  }

(* A client's tree shapes: every (fan-out, depth) pair equally often,
   in a seeded order, so every client does the same work and tail
   latencies compare across seeds. *)
let shapes = [| (2, 2); (2, 3); (2, 4); (3, 2); (3, 3); (3, 4) |]

let plan rng rounds =
  let p = Array.init rounds (fun i -> shapes.(i mod Array.length shapes)) in
  Rng.shuffle rng p;
  p

let mem = P.Sys_alloc_mem { size = 4096L; perms = Perms.rw }

(* The resident forest: on each kernel, one VPE holding [resident_roots]
   memory capabilities with [resident_children] derived children each.
   Kernels build theirs concurrently. *)
let resident sys sh =
  for k = 0 to sh.kernels - 1 do
    let vpe = System.spawn_vpe sys ~kernel:k in
    let rec root r =
      if r < sh.resident_roots then
        System.syscall sys vpe mem (fun reply ->
            let sel = Load.sel_exn "resident alloc_mem" reply in
            child sel r 0)
    and child sel r c =
      if c = sh.resident_children then root (r + 1)
      else
        System.syscall sys vpe
          (P.Sys_derive_mem { sel; offset = Int64.of_int (c * 64); size = 64L; perms = Perms.r })
          (fun reply ->
            ignore (Load.sel_exn "resident derive_mem" reply);
            child sel r (c + 1))
    in
    root 0
  done;
  ignore (System.run sys)

let build ~size ~seed ~refuse =
  let sh = shape size in
  let n_clients = sh.kernels * sh.clients_per_kernel in
  let sys =
    Load.phase Load.sp_system_create (fun () ->
        System.create
          (System.config ~kernels:sh.kernels
             ~user_pes_per_kernel:
               ((sh.clients_per_kernel * (1 + sh.helpers)) + 1 + Load.refused_pes refuse)
             ()))
  in
  Load.phase Load.sp_services (fun () -> resident sys sh);
  let rng = Rng.create (Int64.of_int seed) in
  let clients =
    Load.phase Load.sp_spawn (fun () ->
        Array.init n_clients (fun i ->
            let k = i / sh.clients_per_kernel in
            {
              vpe = System.spawn_vpe sys ~kernel:k;
              helper_vpes =
                Array.init sh.helpers (fun h ->
                    System.spawn_vpe sys ~kernel:((k + 1 + h) mod sh.kernels));
              shapes = plan (Rng.split rng) sh.rounds;
              round = 0;
            }))
  in
  let ops = Ops.create () in
  let baseline = Load.live_caps sys in
  let holder c t i = if t.holder.(i) < 0 then c.vpe else c.helper_vpes.(t.holder.(i)) in
  let rec round c =
    if c.round < sh.rounds then begin
      c.round <- c.round + 1;
      let fanout, depth = c.shapes.(c.round - 1) in
      let t = tree ~helpers:sh.helpers ~fanout ~depth in
      System.syscall sys c.vpe mem (fun r ->
          let s = Spans.enter Load.sp_client in
          (match r with
          | P.R_sel root ->
            t.sels.(0) <- root;
            grow c t 1
          | r ->
            let now = System.now sys in
            Ops.attempt ops;
            Ops.fail_reply ops ~now "alloc root" r;
            round c);
          Spans.leave_polling s)
    end
  and grow c t i =
    if i = Array.length t.sels then revoke c t ~failed:None
    else
      let p = t.parent.(i) in
      System.syscall sys (holder c t i)
        (P.Sys_obtain_from { donor_vpe = (holder c t p).Vpe.id; donor_sel = t.sels.(p) })
        (fun r ->
          let s = Spans.enter Load.sp_client in
          (match r with
          | P.R_sel sel ->
            t.sels.(i) <- sel;
            grow c t (i + 1)
          | r -> revoke c t ~failed:(Some (Format.asprintf "obtain_from: %a" P.pp_reply r)));
          Spans.leave_polling s)
  and revoke c t ~failed =
    let start = System.now sys in
    Ops.attempt ops;
    System.syscall sys c.vpe (P.Sys_revoke { sel = t.sels.(0); own = true }) (fun r ->
        let s = Spans.enter Load.sp_client in
        let now = System.now sys in
        (match (failed, r) with
        | None, P.R_ok -> Ops.complete ops ~start ~now
        | Some what, _ -> Ops.fail ops ~now what
        | None, r -> Ops.fail_reply ops ~now "revoke root" r);
        round c;
        Spans.leave_polling s)
  in
  Load.phase Load.sp_arm (fun () ->
      let engine = System.engine sys in
      Array.iter
        (fun c -> Engine.after engine (Int64.of_int (Rng.int rng 100_000)) (fun () -> round c))
        clients;
      Load.arm_refused sys ops refuse);
  let check () =
    let live = Load.live_caps sys in
    if live <> baseline then
      [
        Printf.sprintf "revoke-trees: %d capabilities live after the loop, %d before" live baseline;
      ]
    else []
  in
  { Load.sys; ops; check; layers = (fun () -> []) }
