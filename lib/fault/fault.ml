module Rng = Semper_util.Rng

type profile = {
  seed : int64;
  delay_prob : float;
  max_delay : int;
  dup_prob : float;
  max_dup_delay : int;
  drop_prob : float;
  max_drops_per_pair : int;
  max_drops_total : int;
  stall_prob : float;
  max_stall : int;
}

let quiet =
  {
    seed = 0L;
    delay_prob = 0.0;
    max_delay = 0;
    dup_prob = 0.0;
    max_dup_delay = 0;
    drop_prob = 0.0;
    max_drops_per_pair = 0;
    max_drops_total = 0;
    stall_prob = 0.0;
    max_stall = 0;
  }

let delay_only ~seed = { quiet with seed; delay_prob = 0.3; max_delay = 1_500 }
let duplicate_only ~seed = { quiet with seed; dup_prob = 0.12; max_dup_delay = 900 }

let drop_only ~seed =
  { quiet with seed; drop_prob = 0.05; max_drops_per_pair = 2; max_drops_total = 24 }

let stall_only ~seed = { quiet with seed; stall_prob = 0.03; max_stall = 4_000 }

let chaos ~seed =
  {
    seed;
    delay_prob = 0.25;
    max_delay = 1_500;
    dup_prob = 0.08;
    max_dup_delay = 900;
    drop_prob = 0.03;
    max_drops_per_pair = 2;
    max_drops_total = 24;
    stall_prob = 0.02;
    max_stall = 4_000;
  }

type stats = {
  mutable delays : int;
  mutable dups : int;
  mutable drops : int;
  mutable stalls : int;
}

type t = {
  profile : profile;
  rng : Rng.t;
  kernel_pes : (int, unit) Hashtbl.t;
  drops_by_pair : (int * int, int ref) Hashtbl.t;
  stalled_until : (int, int64) Hashtbl.t;
  mutable total_drops : int;
  stats : stats;
}

let create ?(kernel_pes = []) profile =
  if
    profile.delay_prob < 0.0 || profile.delay_prob > 1.0 || profile.dup_prob < 0.0
    || profile.dup_prob > 1.0 || profile.drop_prob < 0.0 || profile.drop_prob > 1.0
    || profile.stall_prob < 0.0 || profile.stall_prob > 1.0
  then invalid_arg "Fault.create: probabilities must lie in [0, 1]";
  let kpes = Hashtbl.create 16 in
  List.iter (fun pe -> Hashtbl.replace kpes pe ()) kernel_pes;
  {
    profile;
    rng = Rng.create profile.seed;
    kernel_pes = kpes;
    drops_by_pair = Hashtbl.create 64;
    stalled_until = Hashtbl.create 16;
    total_drops = 0;
    stats = { delays = 0; dups = 0; drops = 0; stalls = 0 };
  }

let stats t = t.stats
let profile t = t.profile

let stats_line t =
  Printf.sprintf "delays=%d dups=%d drops=%d stalls=%d" t.stats.delays t.stats.dups t.stats.drops
    t.stats.stalls

type snapshot = {
  s_rng : Rng.snapshot;
  s_drops_by_pair : ((int * int) * int) list;  (* sorted by pair *)
  s_stalled_until : (int * int64) list;  (* sorted by PE *)
  s_total_drops : int;
  s_delays : int;
  s_dups : int;
  s_drops : int;
  s_stalls : int;
}

let snapshot t =
  {
    s_rng = Rng.snapshot t.rng;
    s_drops_by_pair =
      Hashtbl.fold (fun pair c acc -> (pair, !c) :: acc) t.drops_by_pair []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    s_stalled_until =
      Hashtbl.fold (fun pe u acc -> (pe, u) :: acc) t.stalled_until []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    s_total_drops = t.total_drops;
    s_delays = t.stats.delays;
    s_dups = t.stats.dups;
    s_drops = t.stats.drops;
    s_stalls = t.stats.stalls;
  }

(* Only retransmitted traffic may be dropped or duplicated: op-tagged
   requests and their replies, the op-tagged notifications (acked on
   the credit return and retried until then), and batch frames (whose
   op-tagged inner messages are retried individually). Receivers
   tolerate a redelivery of everything op-tagged. Credit returns have
   no retry path, so dropping them would wedge the protocols by
   design. *)
let droppable = function
  | "obtain_req" | "obtain_reply" | "delegate_req" | "delegate_reply" | "delegate_ack"
  | "revoke_req" | "revoke_reply" | "remove_child" | "srv_announce" | "batch"
  | "fleet_state" | "part_update" | "part_records" ->
    true
  | _ -> false

let injector t ~src ~dst ~tag ~now:_ ~arrival =
  let p = t.profile in
  (* A message into a kernel PE may open (or extend) a stall window
     there; anything arriving inside the window — tagged or not — is
     held until the kernel "wakes up". *)
  let stall_adjust a =
    if p.stall_prob > 0.0 && Hashtbl.mem t.kernel_pes dst && Rng.float t.rng < p.stall_prob then begin
      let len = Int64.of_int (1 + Rng.int t.rng (max 1 p.max_stall)) in
      let until = Int64.add a len in
      (match Hashtbl.find_opt t.stalled_until dst with
      | Some u when Int64.compare u until >= 0 -> ()
      | Some _ | None -> Hashtbl.replace t.stalled_until dst until);
      t.stats.stalls <- t.stats.stalls + 1
    end;
    match Hashtbl.find_opt t.stalled_until dst with
    | Some u when Int64.compare a u < 0 -> u
    | Some _ | None -> a
  in
  if tag = "" then [ Some (stall_adjust arrival) ]
  else begin
    let drop_count =
      match Hashtbl.find_opt t.drops_by_pair (src, dst) with
      | Some c -> c
      | None ->
        let c = ref 0 in
        Hashtbl.add t.drops_by_pair (src, dst) c;
        c
    in
    let dropped =
      p.drop_prob > 0.0 && droppable tag
      && t.total_drops < p.max_drops_total
      && !drop_count < p.max_drops_per_pair
      && Rng.float t.rng < p.drop_prob
    in
    if dropped then begin
      incr drop_count;
      t.total_drops <- t.total_drops + 1;
      t.stats.drops <- t.stats.drops + 1;
      []
    end
    else begin
      let base =
        if p.delay_prob > 0.0 && Rng.float t.rng < p.delay_prob then begin
          t.stats.delays <- t.stats.delays + 1;
          Int64.add arrival (Int64.of_int (1 + Rng.int t.rng (max 1 p.max_delay)))
        end
        else arrival
      in
      let copies =
        if p.dup_prob > 0.0 && droppable tag && Rng.float t.rng < p.dup_prob then begin
          t.stats.dups <- t.stats.dups + 1;
          [ base; Int64.add base (Int64.of_int (1 + Rng.int t.rng (max 1 p.max_dup_delay))) ]
        end
        else [ base ]
      in
      List.map (fun a -> Some (stall_adjust a)) copies
    end
  end
