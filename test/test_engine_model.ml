(* Model-based test of the engine against a reference model of its
   contract.

   The model is a sorted list of pending (time, tag) entries plus the
   two clock rules of engine.mli: a bounded run ends at
   [max clock until], and an unbounded run drains and ends at
   [max clock horizon], where [horizon] is the latest time ever
   scheduled, cancelled or not. A fixed-seed driver runs thousands of
   random operations — schedule (plain and cancellable, with heavy
   same-time collision and occasional far-future times that force
   wheel cascades), cancel (pending, fired, double), bounded and
   unbounded runs — against the engine and the model in lockstep,
   asserting after every step that fire order, fire times, clocks, and
   the pending/processed/cancelled counters agree. Mirrors the
   test_mapdb_model.ml pattern. *)

open Semperos

(* The reference model. Tags are assigned in scheduling order, so
   ordering entries by (time, tag) is the engine's (time, seq) order. *)
module Model = struct
  type t = {
    mutable clock : int64;
    mutable horizon : int64;
    mutable queue : (int64 * int) list;  (* sorted by (time, tag) *)
    mutable processed : int;
    mutable cancelled : int;
    mutable log : (int * int64) list;  (* fired (tag, time), newest first *)
  }

  let create () =
    { clock = 0L; horizon = 0L; queue = []; processed = 0; cancelled = 0; log = [] }

  let schedule m ~delay ~tag =
    let time = Int64.add m.clock delay in
    if Int64.compare time m.horizon > 0 then m.horizon <- time;
    m.queue <- List.merge compare m.queue [ (time, tag) ]

  let cancel m tag =
    if List.exists (fun (_, t) -> t = tag) m.queue then begin
      m.queue <- List.filter (fun (_, t) -> t <> tag) m.queue;
      m.cancelled <- m.cancelled + 1
    end

  let run ?until m =
    let due time = match until with Some l -> Int64.compare time l <= 0 | None -> true in
    let rec go n =
      match m.queue with
      | (time, tag) :: rest when due time ->
        m.queue <- rest;
        m.clock <- time;
        m.processed <- m.processed + 1;
        m.log <- (tag, time) :: m.log;
        go (n + 1)
      | _ -> n
    in
    let n = go 0 in
    let target = match until with Some l -> l | None -> m.horizon in
    if Int64.compare target m.clock > 0 then m.clock <- target;
    n
end

let agree step what fmt a b =
  if a <> b then
    Alcotest.failf "step %d: %s diverges: model %s, engine %s" step what (fmt a) (fmt b)

let observe step (m : Model.t) e log =
  agree step "fire log"
    (fun l ->
      String.concat ";" (List.map (fun (i, t) -> Printf.sprintf "%d@%Ld" i t) (List.rev l)))
    m.log log;
  agree step "clock" Int64.to_string m.clock (Engine.now e);
  agree step "pending" string_of_int (List.length m.queue) (Engine.pending e);
  agree step "processed" string_of_int m.processed (Engine.events_processed e);
  agree step "cancelled" string_of_int m.cancelled (Engine.events_cancelled e)

let drive ~seed ~steps =
  let rng = Random.State.make [| seed |] in
  let m = Model.create () in
  let e = Engine.create () in
  let log = ref [] in
  let handles = ref [] in
  let tag = ref 0 in
  let schedule ~cancellable delay =
    let i = !tag in
    incr tag;
    Model.schedule m ~delay ~tag:i;
    let fire () = log := (i, Engine.now e) :: !log in
    if cancellable then handles := (i, Engine.after_cancellable e delay fire) :: !handles
    else Engine.after e delay fire
  in
  for step = 1 to steps do
    (match Random.State.int rng 100 with
    | n when n < 40 ->
      (* plain schedule; clustered delays force same-time collisions,
         occasional huge delays force wheel cascades across levels *)
      schedule ~cancellable:false
        (match Random.State.int rng 10 with
        | 0 -> 0L
        | 9 -> Int64.of_int (1 + Random.State.int rng 3_000_000)
        | _ -> Int64.of_int (Random.State.int rng 40))
    | n when n < 65 ->
      (* cancellable schedule; the occasional far-future timer, once
         cancelled, extends [horizon] past later bounded runs, which
         must still stop at their limit *)
      schedule ~cancellable:true
        (match Random.State.int rng 8 with
        | 0 -> Int64.of_int (1 + Random.State.int rng 3_000_000)
        | _ -> Int64.of_int (Random.State.int rng 200))
    | n when n < 85 -> (
      (* cancel a random retained handle — possibly already fired, and
         sometimes twice, exercising the idempotent paths *)
      match !handles with
      | [] -> ()
      | l ->
        let i, h = List.nth l (Random.State.int rng (List.length l)) in
        let twice = Random.State.int rng 4 = 0 in
        Model.cancel m i;
        Engine.cancel e h;
        if twice then begin
          Model.cancel m i;
          Engine.cancel e h
        end)
    | n when n < 95 ->
      (* bounded run: limits behind the clock, at it, and past it *)
      let limit = Int64.add m.clock (Int64.of_int (Random.State.int rng 300 - 20)) in
      let a = Model.run ~until:limit m in
      agree step "bounded run count" string_of_int a (Engine.run ~until:limit e)
    | _ -> agree step "drain count" string_of_int (Model.run m) (Engine.run e));
    observe step m e !log
  done;
  (* final drain: both empty and land on the horizon *)
  ignore (Model.run m);
  ignore (Engine.run e);
  observe (steps + 1) m e !log;
  Alcotest.check Alcotest.int "drained" 0 (Engine.pending e)

let test_seed seed () = drive ~seed ~steps:800

let suite =
  [
    Alcotest.test_case "matches list model (seed 0xfeed)" `Quick (test_seed 0xfeed);
    Alcotest.test_case "matches list model (seed 0xbeef)" `Quick (test_seed 0xbeef);
    Alcotest.test_case "matches list model (seed 0xcafe)" `Quick (test_seed 0xcafe);
  ]
