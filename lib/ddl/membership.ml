type kernel_id = int

exception Mid_handoff of int

type kernel_state = Spare | Joining | Active | Draining | Retired

type t = {
  table : (int, kernel_id) Hashtbl.t;
  (* PEs whose records are in flight between two kernels. While a PE is
     marked here, this replica refuses to route to it: the old owner may
     already have shed the records and the new owner may not have
     installed them yet, so any answer would be a silent misroute. *)
  handoff : (int, unit) Hashtbl.t;
  (* Kernel lifecycle, replicated alongside the partition table. A
     kernel absent from this table is Active: boot-time fleets never
     touch it, so their replicas stay byte-identical to pre-fleet
     snapshots. *)
  states : (kernel_id, kernel_state) Hashtbl.t;
  mutable sealed : bool;
}

let create () =
  {
    table = Hashtbl.create 64;
    handoff = Hashtbl.create 4;
    states = Hashtbl.create 4;
    sealed = false;
  }

let assign t ~pe ~kernel =
  if t.sealed then invalid_arg "Membership.assign: table is sealed";
  if Hashtbl.mem t.table pe then invalid_arg "Membership.assign: PE already assigned";
  if pe < 0 || kernel < 0 then invalid_arg "Membership.assign: negative id";
  Hashtbl.add t.table pe kernel

let seal t = t.sealed <- true

let reassign t ~pe ~kernel =
  if not (Hashtbl.mem t.table pe) then raise Not_found;
  if Hashtbl.mem t.handoff pe then
    invalid_arg "Membership.reassign: PE is mid-handoff (use complete_handoff)";
  if kernel < 0 then invalid_arg "Membership.reassign: negative kernel";
  Hashtbl.replace t.table pe kernel

let begin_handoff t ~pe =
  if not (Hashtbl.mem t.table pe) then raise Not_found;
  if Hashtbl.mem t.handoff pe then invalid_arg "Membership.begin_handoff: PE already mid-handoff";
  Hashtbl.replace t.handoff pe ()

let complete_handoff t ~pe ~kernel =
  if not (Hashtbl.mem t.handoff pe) then
    invalid_arg "Membership.complete_handoff: PE is not mid-handoff";
  if kernel < 0 then invalid_arg "Membership.complete_handoff: negative kernel";
  Hashtbl.remove t.handoff pe;
  Hashtbl.replace t.table pe kernel

let in_handoff t pe = Hashtbl.mem t.handoff pe
let is_sealed t = t.sealed

let reassign_partition t ~pes ~kernel =
  if kernel < 0 then invalid_arg "Membership.reassign_partition: negative kernel";
  (* Validate-then-flip: either the whole key range moves or none of it
     does, so a racing resolve can never observe a half-moved
     partition — it sees the old owner, Mid_handoff, or the new owner. *)
  List.iter
    (fun pe ->
      if not (Hashtbl.mem t.table pe) then raise Not_found;
      if Hashtbl.mem t.handoff pe then
        invalid_arg "Membership.reassign_partition: PE is mid-handoff (use complete_handoff)")
    pes;
  List.iter (fun pe -> Hashtbl.replace t.table pe kernel) pes

let kernel_state t kernel =
  match Hashtbl.find_opt t.states kernel with Some s -> s | None -> Active

let set_kernel_state t ~kernel state =
  if kernel < 0 then invalid_arg "Membership.set_kernel_state: negative kernel";
  Hashtbl.replace t.states kernel state

let kernel_states t =
  Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.states []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let kernel_of_pe t pe =
  if Hashtbl.mem t.handoff pe then raise (Mid_handoff pe);
  match Hashtbl.find_opt t.table pe with
  | Some k -> k
  | None -> raise Not_found

let kernel_of_key t key = kernel_of_pe t (Key.pe key)

let pes_of_kernel t kernel =
  Hashtbl.fold (fun pe k acc -> if k = kernel then pe :: acc else acc) t.table []
  |> List.sort Int.compare

let size t = Hashtbl.length t.table

let kernels t =
  Hashtbl.fold (fun _ k acc -> if List.mem k acc then acc else k :: acc) t.table []
  |> List.sort Int.compare

let copy t =
  {
    table = Hashtbl.copy t.table;
    handoff = Hashtbl.copy t.handoff;
    states = Hashtbl.copy t.states;
    sealed = t.sealed;
  }

type snapshot = {
  s_table : (int * kernel_id) list;  (* sorted by PE *)
  s_handoff : int list;  (* sorted *)
  s_states : (kernel_id * kernel_state) list;  (* sorted by kernel *)
  s_sealed : bool;
}

let snapshot t =
  {
    s_table =
      Hashtbl.fold (fun pe k acc -> (pe, k) :: acc) t.table []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    s_handoff = Hashtbl.fold (fun pe () acc -> pe :: acc) t.handoff [] |> List.sort Int.compare;
    s_states = kernel_states t;
    s_sealed = t.sealed;
  }
