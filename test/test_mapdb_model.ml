(* Model-based test for the arena-backed mapping database.

   A reference implementation keeps the same observable state in plain
   association lists (insertion order) and an explicit dirty set. A
   fixed-seed driver runs thousands of random operations — insert,
   remove, link, unlink, set_children, snapshot, drain_dirty — against
   both and asserts observational equality after every step:
   membership, record identity, child lists (order included), ownership
   chains (order included), counts, raised exceptions, and dirty
   partitions. Slot and cell recycling inside the arena must never
   show through this interface, nor through the snapshot that feeds
   the system fingerprint. *)

open Semperos

let check = Alcotest.check

(* Small key universe so collisions (duplicate inserts, dangling links,
   re-insertion after removal) happen constantly. *)
let pes = 4
let vpes = 3
let objs = 8

let key ~pe ~vpe ~obj = Key.make ~pe ~vpe ~kind:Key.Mem_obj ~obj

let universe =
  List.concat_map
    (fun pe ->
      List.concat_map
        (fun vpe -> List.init objs (fun obj -> key ~pe ~vpe ~obj))
        (List.init vpes Fun.id))
    (List.init pes Fun.id)

let mem_kind = Cap.Mem_cap { host_pe = 0; addr = 0L; size = 4096L; perms = Perms.rw }

(* ------------------------------------------------------------------ *)
(* Reference implementation                                            *)

module Model = struct
  type entry = { owner : int; mutable kids : Key.t list }

  type t = {
    (* Insertion order, like the arena's intrusive chains. *)
    mutable recs : (Key.t * entry) list;
    dirty : (int, unit) Hashtbl.t;
  }

  type snapshot = (Key.t * int * Key.t list) list

  let create () = { recs = []; dirty = Hashtbl.create 8 }
  let find t k = List.assoc_opt k t.recs
  let mem t k = find t k <> None
  let touch t k = Hashtbl.replace t.dirty (Key.pe k) ()

  let insert t k ~owner =
    if mem t k then invalid_arg "model: duplicate"
    else begin
      t.recs <- t.recs @ [ (k, { owner; kids = [] }) ];
      touch t k
    end

  let remove t k =
    if mem t k then begin
      t.recs <- List.filter (fun (k', _) -> not (Key.equal k k')) t.recs;
      touch t k
    end

  let add_child t ~parent k =
    match find t parent with
    | None -> invalid_arg "model: parent missing"
    | Some e ->
      if List.exists (Key.equal k) e.kids then invalid_arg "model: duplicate child"
      else begin
        e.kids <- e.kids @ [ k ];
        touch t parent;
        touch t k
      end

  let remove_child t ~parent k =
    (match find t parent with
    | None -> ()
    | Some e -> e.kids <- List.filter (fun k' -> not (Key.equal k k')) e.kids);
    (* Mapdb touches both partitions even when the unlink was a no-op. *)
    touch t parent;
    touch t k

  let set_children t parent kids =
    match find t parent with
    | None -> invalid_arg "model: parent missing"
    | Some e ->
      e.kids <- kids;
      touch t parent;
      List.iter (fun k -> touch t k) kids

  let children t k = match find t k with None -> [] | Some e -> e.kids
  let caps_of_vpe t ~vpe = List.filter_map (fun (k, e) -> if e.owner = vpe then Some k else None) t.recs
  let caps_of_pe t ~pe = List.filter_map (fun (k, _) -> if Key.pe k = pe then Some k else None) t.recs

  let drain_dirty t =
    let out = Hashtbl.fold (fun pe () acc -> pe :: acc) t.dirty [] in
    Hashtbl.reset t.dirty;
    List.sort compare out

  (* Mapdb snapshots are key-sorted (fingerprint-stable), whatever the
     insertion order; child lists keep their link order. *)
  let snapshot t : snapshot =
    List.map (fun (k, e) -> (k, e.owner, e.kids)) t.recs
    |> List.sort (fun (a, _, _) (b, _, _) -> Key.compare a b)
end

(* ------------------------------------------------------------------ *)
(* Equivalence check                                                   *)

let pp_key k = Key.to_string k

let keys_equal name expected got =
  check Alcotest.(list string) name (List.map pp_key expected) (List.map pp_key got)

let same_observables step (db : Mapdb.t) (m : Model.t) =
  let ctx fmt = Printf.sprintf ("step %d: " ^^ fmt) step in
  check Alcotest.int (ctx "count") (List.length m.Model.recs) (Mapdb.count db);
  List.iter
    (fun k ->
      let model_entry = Model.find m k in
      (match (model_entry, Mapdb.find db k) with
      | None, None -> ()
      | Some e, Some cap ->
        check Alcotest.int (ctx "owner of %s" (pp_key k)) e.Model.owner cap.Cap.owner_vpe
      | Some _, None -> Alcotest.failf "step %d: %s missing from mapdb" step (pp_key k)
      | None, Some _ -> Alcotest.failf "step %d: %s should not be in mapdb" step (pp_key k));
      keys_equal (ctx "children of %s" (pp_key k)) (Model.children m k) (Mapdb.children db k);
      check Alcotest.int
        (ctx "child_count of %s" (pp_key k))
        (List.length (Model.children m k))
        (Mapdb.child_count db k))
    universe;
  for vpe = 0 to vpes - 1 do
    keys_equal (ctx "caps_of_vpe %d" vpe)
      (Model.caps_of_vpe m ~vpe)
      (List.map (fun c -> c.Cap.key) (Mapdb.caps_of_vpe db ~vpe))
  done;
  for pe = 0 to pes - 1 do
    keys_equal (ctx "caps_of_pe %d" pe)
      (Model.caps_of_pe m ~pe)
      (List.map (fun c -> c.Cap.key) (Mapdb.caps_of_pe db ~pe))
  done;
  (* Slot-order iteration must visit each record exactly once. *)
  let seen = ref [] in
  Mapdb.iter (fun c -> seen := c.Cap.key :: !seen) db;
  keys_equal (ctx "iter key set")
    (List.sort Key.compare (List.map fst m.Model.recs))
    (List.sort Key.compare !seen)

(* The live snapshot against the model's, record by record. The test
   never mints object ids, so the cursor stays at zero. *)
let same_snapshot step (db : Mapdb.t) (m : Model.t) =
  let render (k, owner, kids) =
    Printf.sprintf "%s owner=%d kids=[%s]" (pp_key k) owner
      (String.concat " " (List.map pp_key kids))
  in
  let s = Mapdb.snapshot db in
  check
    Alcotest.(list string)
    (Printf.sprintf "step %d: snapshot" step)
    (List.map render (Model.snapshot m))
    (List.map (fun (c, kids) -> render (c.Cap.key, c.Cap.owner_vpe, kids)) s.Mapdb.s_caps);
  check Alcotest.int (Printf.sprintf "step %d: snapshot object cursor" step) 0 s.Mapdb.s_next_obj

(* Both must raise, or neither. *)
let agree_on_exn step name f g =
  let outcome h = match h () with () -> None | exception Invalid_argument _ -> Some () in
  let a = outcome f and b = outcome g in
  if (a = None) <> (b = None) then
    Alcotest.failf "step %d: %s: model %s but mapdb %s" step name
      (if a = None then "succeeded" else "raised")
      (if b = None then "succeeded" else "raised")

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let run_case ~seed ~steps =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let db = Mapdb.create () in
  let m = Model.create () in
  for step = 1 to steps do
    (match Random.State.int rng 100 with
    | n when n < 30 ->
      (* insert (often a duplicate) *)
      let k = pick universe in
      let owner = Key.vpe k in
      agree_on_exn step "insert"
        (fun () -> Model.insert m k ~owner)
        (fun () -> Mapdb.insert db (Cap.make ~key:k ~kind:mem_kind ~owner_vpe:owner ()))
    | n when n < 45 ->
      let k = pick universe in
      Model.remove m k;
      Mapdb.remove db k
    | n when n < 70 ->
      (* link (duplicate children and missing parents included) *)
      let parent = pick universe and k = pick universe in
      agree_on_exn step "add_child"
        (fun () -> Model.add_child m ~parent k)
        (fun () -> Mapdb.add_child db ~parent k)
    | n when n < 85 ->
      let parent = pick universe and k = pick universe in
      Model.remove_child m ~parent k;
      Mapdb.remove_child db ~parent k
    | n when n < 92 ->
      let parent = pick universe in
      let kids =
        List.filter (fun _ -> Random.State.int rng 8 = 0) universe
      in
      agree_on_exn step "set_children"
        (fun () -> Model.set_children m parent kids)
        (fun () -> Mapdb.set_children db parent kids)
    | _ -> same_snapshot step db m);
    (* Dirty sets must agree at every step (drain clears both). *)
    check
      Alcotest.(list int)
      (Printf.sprintf "step %d: dirty partitions" step)
      (Model.drain_dirty m) (Mapdb.drain_dirty db);
    same_observables step db m
  done

let test_model_seed_1 () = run_case ~seed:0xfeed ~steps:800
let test_model_seed_2 () = run_case ~seed:0xbeef ~steps:800
let test_model_seed_3 () = run_case ~seed:0xcafe ~steps:800

let suite =
  [
    Alcotest.test_case "mapdb matches reference model (seed 1)" `Quick test_model_seed_1;
    Alcotest.test_case "mapdb matches reference model (seed 2)" `Quick test_model_seed_2;
    Alcotest.test_case "mapdb matches reference model (seed 3)" `Quick test_model_seed_3;
  ]
