module Obs = Semper_obs.Obs

type config = { base_cycles : int; hop_cycles : int; bytes_per_cycle : int }

let default_config = { base_cycles = 330; hop_cycles = 4; bytes_per_cycle = 16 }

type injector = src:int -> dst:int -> tag:string -> now:int64 -> arrival:int64 -> int64 option list

type t = {
  engine : Semper_sim.Engine.t;
  topology : Topology.t;
  config : config;
  (* Last scheduled delivery time per (src, dst), to enforce pairwise
     FIFO, keyed by [src * pe_count + dst]. The key is a single
     immediate int, so lookups neither allocate nor hash a tuple; the
     table holds only pairs that have actually communicated — O(PEs)
     in practice, since a PE talks to its kernel and its services. The
     flat [pe_count^2] array this replaces was 138 MB at 4K PEs:
     creation alone cost a quarter second of memset, every message's
     clamp was a guaranteed cache miss, and the major GC dragged the
     whole array through every cycle — the largest single source of
     the events/s droop from 1K to 4K PEs. Plain [int] cycles (cycle
     counts fit 63 bits by far; an [int64] value would box). *)
  last_delivery : (int, int) Hashtbl.t;
  mutable injector : injector option;
  messages : Obs.Registry.counter;
  bytes : Obs.Registry.counter;
  hops : Obs.Registry.counter;
  messages_delivered : Obs.Registry.counter;
  bytes_delivered : Obs.Registry.counter;
  dropped : Obs.Registry.counter;
}

let create ?obs engine topology config =
  if config.base_cycles < 0 || config.hop_cycles < 0 || config.bytes_per_cycle <= 0 then
    invalid_arg "Fabric.create: invalid config";
  (* Without a shared registry the fabric keeps a private one, so the
     counter accessors below work in isolation (unit tests, ad-hoc use). *)
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  let c name = Obs.Registry.counter obs ("fabric." ^ name) in
  {
    engine;
    topology;
    config;
    last_delivery = Hashtbl.create 1024;
    injector = None;
    messages = c "messages_offered";
    bytes = c "bytes_offered";
    hops = c "hops_offered";
    messages_delivered = c "messages_delivered";
    bytes_delivered = c "bytes_delivered";
    dropped = c "dropped";
  }

let topology t = t.topology
let engine t = t.engine
let set_injector t inj = t.injector <- inj
let has_injector t = t.injector <> None

(* The latency formula lives here and nowhere else: [latency] is the
   public quote and [send] charges exactly the same amount, so the two
   can never drift. [hops] is passed in because [send] also needs it
   for the traffic counters. *)
let latency_of_hops t ~hops ~bytes =
  let c = t.config in
  Int64.of_int (c.base_cycles + (c.hop_cycles * hops) + (bytes / c.bytes_per_cycle))

let latency t ~src ~dst ~bytes =
  if bytes < 0 then invalid_arg "Fabric.latency: negative size";
  latency_of_hops t ~hops:(Topology.hops t.topology src dst) ~bytes

(* Schedule one copy. FIFO per channel: never deliver before a
   previously sent message (each duplicate copy joins the ordered
   stream too). *)
let deliver t ~src ~dst ~bytes a k =
  let slot = (src * Topology.pe_count t.topology) + dst in
  let a =
    match Hashtbl.find_opt t.last_delivery slot with
    | Some prev when prev > Int64.to_int a -> Int64.of_int prev
    | Some _ | None -> a
  in
  Hashtbl.replace t.last_delivery slot (Int64.to_int a);
  Semper_sim.Engine.at t.engine a (fun () ->
      Obs.Registry.incr t.messages_delivered;
      Obs.Registry.add t.bytes_delivered bytes;
      k ())

let send_tagged t ~tag ~src ~dst ~bytes k =
  if bytes < 0 then invalid_arg "Fabric.send: negative size";
  let hops = Topology.hops t.topology src dst in
  let lat = latency_of_hops t ~hops ~bytes in
  let now = Semper_sim.Engine.now t.engine in
  let arrival = Int64.add now lat in
  (* Offered-load stats count at send time; delivery stats only once a
     copy actually arrives (an injector may drop or duplicate it). *)
  Obs.Registry.incr t.messages;
  Obs.Registry.add t.bytes bytes;
  Obs.Registry.add t.hops hops;
  match t.injector with
  | None ->
    (* Fast path: without an injector exactly one copy arrives at the
       unfaulted time — schedule it directly instead of building,
       filtering, and sorting per-message plan lists. This path carries
       every message of a fault-free run. *)
    deliver t ~src ~dst ~bytes arrival k
  | Some inject ->
    let plan = inject ~src ~dst ~tag ~now ~arrival in
    (* Each [None] in the plan is one dropped copy; an empty plan is the
       whole message dropped (one drop, since exactly one was offered). *)
    let drops = if plan = [] then 1 else List.length (List.filter Option.is_none plan) in
    if drops > 0 then Obs.Registry.add t.dropped drops;
    let arrivals =
      (* Clamp each surviving copy so it is never earlier than the
         unfaulted arrival: faults add latency, they cannot create a
         faster-than-the-NoC path. *)
      List.filter_map Fun.id plan
      |> List.map (fun a -> if Int64.compare a arrival < 0 then arrival else a)
      |> List.sort Int64.compare
    in
    List.iter (fun a -> deliver t ~src ~dst ~bytes a k) arrivals

let send t ~src ~dst ~bytes k = send_tagged t ~tag:"" ~src ~dst ~bytes k

(* The traffic counters live in the metrics registry and are restored
   with it (Obs.Registry.restore); in-flight deliveries are engine
   events and travel inside whole-image checkpoints. What remains here
   is the pairwise FIFO clamp. *)
(* Canonical form — sorted (slot, cycle) pairs — so equal clamp states
   marshal to equal bytes no matter what internal layout the live
   table's insertion history produced ([System.fingerprint] hashes the
   marshalled snapshot). *)
type snapshot = { s_last_delivery : (int * int) array }

let snapshot t =
  let a = Array.make (Hashtbl.length t.last_delivery) (0, 0) in
  let i = ref 0 in
  Hashtbl.iter
    (fun k v ->
      a.(!i) <- (k, v);
      incr i)
    t.last_delivery;
  Array.sort compare a;
  { s_last_delivery = a }

let restore t s =
  Hashtbl.reset t.last_delivery;
  Array.iter (fun (k, v) -> Hashtbl.replace t.last_delivery k v) s.s_last_delivery

let messages t = Obs.Registry.value t.messages
let bytes_carried t = Obs.Registry.value t.bytes
let hops_traversed t = Obs.Registry.value t.hops
let messages_delivered t = Obs.Registry.value t.messages_delivered
let bytes_delivered t = Obs.Registry.value t.bytes_delivered
let dropped t = Obs.Registry.value t.dropped
