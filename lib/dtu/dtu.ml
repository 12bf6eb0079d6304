type error =
  | No_credits
  | Invalid_endpoint
  | Wrong_kind
  | Not_privileged
  | Out_of_bounds
  | No_permission

let error_to_string = function
  | No_credits -> "no credits"
  | Invalid_endpoint -> "invalid endpoint"
  | Wrong_kind -> "wrong endpoint kind"
  | Not_privileged -> "not privileged"
  | Out_of_bounds -> "out of bounds"
  | No_permission -> "no permission"

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let default_endpoints = 16
let default_slots = 32

type endpoint =
  | Free
  | Send of { dst_pe : int; dst_ep : int; mutable credits : int; max_credits : int }
  | Receive of { slots : int; mutable occupied : int; handler : Message.t -> unit }
  | Memory of { host_pe : int; base : int64; size : int64; writable : bool }

type t = {
  grid : grid;
  pe : int;
  endpoints : endpoint array;
  mutable privileged : bool;
  mutable drops : int;
}

and grid = {
  fabric : Semper_noc.Fabric.t;
  dtus : (int, t) Hashtbl.t;
  (* Grid-wide aggregates; each DTU also keeps its own [drops]. *)
  g_sends : Semper_obs.Obs.Registry.counter;
  g_drops : Semper_obs.Obs.Registry.counter;
}

let create_grid ?obs fabric =
  let obs = match obs with Some r -> r | None -> Semper_obs.Obs.Registry.create () in
  {
    fabric;
    dtus = Hashtbl.create 64;
    g_sends = Semper_obs.Obs.Registry.counter obs "dtu.sends";
    g_drops = Semper_obs.Obs.Registry.counter obs "dtu.drops";
  }
let fabric g = g.fabric
let engine g = Semper_noc.Fabric.engine g.fabric

let create ?(endpoints = default_endpoints) grid ~pe =
  if Hashtbl.mem grid.dtus pe then invalid_arg "Dtu.create: PE already has a DTU";
  if pe < 0 || pe >= Semper_noc.Topology.pe_count (Semper_noc.Fabric.topology grid.fabric) then
    invalid_arg "Dtu.create: PE outside topology";
  if endpoints <= 0 then invalid_arg "Dtu.create: no endpoints";
  let t = { grid; pe; endpoints = Array.make endpoints Free; privileged = true; drops = 0 } in
  Hashtbl.add grid.dtus pe t;
  t

let find grid ~pe =
  match Hashtbl.find_opt grid.dtus pe with
  | Some t -> t
  | None -> raise Not_found

let pe t = t.pe
let endpoint_count t = Array.length t.endpoints
let is_privileged t = t.privileged
let drops t = t.drops
let deprivilege t = t.privileged <- false

let check_ep t ep = ep >= 0 && ep < Array.length t.endpoints

let set_endpoint t ~ep config =
  if not (check_ep t ep) then Error Invalid_endpoint
  else begin
    t.endpoints.(ep) <- config;
    Ok ()
  end

let configure_send t ~ep ~dst_pe ~dst_ep ~credits =
  if not t.privileged then Error Not_privileged
  else if credits <= 0 then invalid_arg "Dtu.configure_send: non-positive credits"
  else set_endpoint t ~ep (Send { dst_pe; dst_ep; credits; max_credits = credits })

let configure_receive t ~ep ~slots ~handler =
  if not t.privileged then Error Not_privileged
  else if slots <= 0 then invalid_arg "Dtu.configure_receive: non-positive slots"
  else set_endpoint t ~ep (Receive { slots; occupied = 0; handler })

let configure_memory t ~ep ~host_pe ~base ~size ~writable =
  if not t.privileged then Error Not_privileged
  else if Int64.compare size 0L < 0 then invalid_arg "Dtu.configure_memory: negative size"
  else set_endpoint t ~ep (Memory { host_pe; base; size; writable })

let invalidate t ~ep =
  if not t.privileged then Error Not_privileged else set_endpoint t ~ep Free

let configure_remote ~by t ~ep config =
  if not by.privileged then Error Not_privileged
  else
    (* Privileged remote configuration bypasses the target's privilege
       bit: this is exactly the kernel-only path the hardware offers. *)
    match config with
    | `Send (dst_pe, dst_ep, credits) ->
      if credits <= 0 then invalid_arg "Dtu.configure_remote: non-positive credits"
      else set_endpoint t ~ep (Send { dst_pe; dst_ep; credits; max_credits = credits })
    | `Receive (slots, handler) ->
      if slots <= 0 then invalid_arg "Dtu.configure_remote: non-positive slots"
      else set_endpoint t ~ep (Receive { slots; occupied = 0; handler })
    | `Memory (host_pe, base, size, writable) ->
      if Int64.compare size 0L < 0 then invalid_arg "Dtu.configure_remote: negative size"
      else set_endpoint t ~ep (Memory { host_pe; base; size; writable })
    | `Invalidate -> set_endpoint t ~ep Free

let return_credit grid ~pe ~ep =
  match Hashtbl.find_opt grid.dtus pe with
  | None -> ()
  | Some sender -> (
    if check_ep sender ep then
      match sender.endpoints.(ep) with
      | Send s -> if s.credits < s.max_credits then s.credits <- s.credits + 1
      | Free | Receive _ | Memory _ -> ())

let send t ~ep ~bytes ~payload =
  if not (check_ep t ep) then Error Invalid_endpoint
  else
    match t.endpoints.(ep) with
    | Free | Receive _ | Memory _ -> Error Wrong_kind
    | Send s ->
      if s.credits <= 0 then Error No_credits
      else begin
        s.credits <- s.credits - 1;
        Semper_obs.Obs.Registry.incr t.grid.g_sends;
        let msg =
          { Message.src_pe = t.pe; src_ep = ep; dst_pe = s.dst_pe; dst_ep = s.dst_ep; bytes; payload }
        in
        Semper_noc.Fabric.send t.grid.fabric ~src:t.pe ~dst:s.dst_pe ~bytes (fun () ->
            match Hashtbl.find_opt t.grid.dtus s.dst_pe with
            | None ->
              (* Destination vanished: drop, return credit. *)
              return_credit t.grid ~pe:msg.Message.src_pe ~ep:msg.Message.src_ep
            | Some dst -> (
              if not (check_ep dst msg.Message.dst_ep) then begin
                dst.drops <- dst.drops + 1;
                Semper_obs.Obs.Registry.incr t.grid.g_drops;
                return_credit t.grid ~pe:msg.Message.src_pe ~ep:msg.Message.src_ep
              end
              else
                match dst.endpoints.(msg.Message.dst_ep) with
                | Receive r when r.occupied < r.slots ->
                  r.occupied <- r.occupied + 1;
                  r.handler msg
                | Receive _ | Free | Send _ | Memory _ ->
                  (* Full or misconfigured endpoint: the hardware loses
                     the message (paper §4.1). *)
                  dst.drops <- dst.drops + 1;
                  Semper_obs.Obs.Registry.incr t.grid.g_drops;
                  return_credit t.grid ~pe:msg.Message.src_pe ~ep:msg.Message.src_ep));
        Ok ()
      end

(* The grid's mutable surface, endpoint by endpoint, as a fingerprint
   input. Receive handlers are closures and travel only inside
   whole-image checkpoints, so the snapshot records each endpoint's
   configuration kind plus its volatile part — credit windows, slot
   occupancy, the privilege bit, drop counts. *)
type ep_state = E_free | E_send of int  (* credits *) | E_receive of int  (* occupied *) | E_memory

type dtu_state = {
  d_pe : int;
  d_eps : ep_state array;
  d_privileged : bool;
  d_drops : int;
}

type snapshot = dtu_state list  (* sorted by PE *)

let snapshot_grid grid =
  Hashtbl.fold
    (fun pe t acc ->
      {
        d_pe = pe;
        d_eps =
          Array.map
            (function
              | Free -> E_free
              | Send s -> E_send s.credits
              | Receive r -> E_receive r.occupied
              | Memory _ -> E_memory)
            t.endpoints;
        d_privileged = t.privileged;
        d_drops = t.drops;
      }
      :: acc)
    grid.dtus []
  |> List.sort (fun a b -> Int.compare a.d_pe b.d_pe)

let ack grid (msg : Message.t) =
  (match Hashtbl.find_opt grid.dtus msg.dst_pe with
  | None -> ()
  | Some dst -> (
    if check_ep dst msg.dst_ep then
      match dst.endpoints.(msg.dst_ep) with
      | Receive r -> if r.occupied > 0 then r.occupied <- r.occupied - 1
      | Free | Send _ | Memory _ -> ()));
  return_credit grid ~pe:msg.src_pe ~ep:msg.src_ep

let credits t ~ep =
  if not (check_ep t ep) then Error Invalid_endpoint
  else
    match t.endpoints.(ep) with
    | Send s -> Ok s.credits
    | Free | Receive _ | Memory _ -> Error Wrong_kind

let free_slots t ~ep =
  if not (check_ep t ep) then Error Invalid_endpoint
  else
    match t.endpoints.(ep) with
    | Receive r -> Ok (r.slots - r.occupied)
    | Free | Send _ | Memory _ -> Error Wrong_kind

let memory_access t ~ep ~offset ~bytes ~need_write k =
  if not (check_ep t ep) then Error Invalid_endpoint
  else
    match t.endpoints.(ep) with
    | Free | Send _ | Receive _ -> Error Wrong_kind
    | Memory m ->
      if Int64.compare offset 0L < 0 || bytes < 0
         || Int64.compare (Int64.add offset (Int64.of_int bytes)) m.size > 0
      then Error Out_of_bounds
      else if need_write && not m.writable then Error No_permission
      else begin
        (* Request to the memory host plus the data moving back (read)
           or there (write): one round trip carrying the payload once. *)
        let fabric = t.grid.fabric in
        let req = Semper_noc.Fabric.latency fabric ~src:t.pe ~dst:m.host_pe ~bytes:16 in
        let dat = Semper_noc.Fabric.latency fabric ~src:m.host_pe ~dst:t.pe ~bytes in
        Semper_sim.Engine.after (engine t.grid) (Int64.add req dat) k;
        Ok ()
      end

let read t ~ep ~offset ~bytes k = memory_access t ~ep ~offset ~bytes ~need_write:false k
let write t ~ep ~offset ~bytes k = memory_access t ~ep ~offset ~bytes ~need_write:true k
