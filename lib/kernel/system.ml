module Engine = Semper_sim.Engine
module Topology = Semper_noc.Topology
module Fabric = Semper_noc.Fabric
module Dtu = Semper_dtu.Dtu
module Membership = Semper_ddl.Membership

module Fault = Semper_fault.Fault
module Obs = Semper_obs.Obs

type config = {
  kernels : int;
  (* Kernels booted but held out of service ([Spare] lifecycle state):
     they own their home partitions yet serve no work until a
     [Fleet.join] activates them. 0 (the default) reproduces the fixed
     boot-time fleet byte-for-byte. *)
  spare_kernels : int;
  user_pes_per_kernel : int;
  mode : Cost.mode;
  noc : Fabric.config;
  batching : bool;
  broadcast : bool;
  fault : Fault.profile option;
  retry : bool;
  trace_capacity : int;
}

let default_config =
  {
    kernels = 2;
    spare_kernels = 0;
    user_pes_per_kernel = 8;
    mode = Cost.Semperos;
    noc = Fabric.default_config;
    batching = false;
    broadcast = false;
    fault = None;
    retry = true;
    trace_capacity = 8192;
  }

let config ?(kernels = 2) ?(spare_kernels = 0) ?(user_pes_per_kernel = 8)
    ?(mode = Cost.Semperos) ?(noc = Fabric.default_config) ?(batching = false)
    ?(broadcast = false) ?fault ?(retry = true) ?(trace_capacity = 8192) () =
  {
    kernels;
    spare_kernels;
    user_pes_per_kernel;
    mode;
    noc;
    batching;
    broadcast;
    fault;
    retry;
    trace_capacity;
  }

type group = { kernel_pe : int; free : int Queue.t }

(* Kernels booted in total, spares included. *)
let total_kernels cfg = cfg.kernels + cfg.spare_kernels

type t = {
  cfg : config;
  engine : Engine.t;
  fabric : Fabric.t;
  grid : Dtu.grid;
  membership : Membership.t;
  registry : (int, Kernel.t) Hashtbl.t;
  groups : group array;
  vpes : (int, Vpe.t) Hashtbl.t;
  fault : Fault.t option;
  obs : Obs.Registry.t;
  trace : Obs.Trace.t;
  mutable next_vpe : int;
}

let engine t = t.engine
let fabric t = t.fabric
let fault_plan t = t.fault
let grid t = t.grid
let membership t = t.membership
let obs t = t.obs
let trace_buffer t = t.trace

let kernel t i =
  match Hashtbl.find_opt t.registry i with
  | Some k -> k
  | None -> invalid_arg "System.kernel: no such kernel"

let kernels t =
  List.init (total_kernels t.cfg) (fun i -> kernel t i)

let kernel_count t = total_kernels t.cfg
let boot_kernels t = t.cfg.kernels
let pe_count t = total_kernels t.cfg * (1 + t.cfg.user_pes_per_kernel)
let find_vpe t vid = Hashtbl.find_opt t.vpes vid
let now t = Engine.now t.engine

let free_pes t ~kernel =
  if kernel < 0 || kernel >= total_kernels t.cfg then
    invalid_arg "System.free_pes: no such kernel";
  Queue.length t.groups.(kernel).free

(* The PE range a kernel's group was built with at boot: its kernel PE
   plus its user PEs. Partition ownership may drift away through fleet
   handoffs; [Fleet.join] reclaims this range so group-local PE
   allocation and the membership replicas agree again. *)
let home_pes t ~kernel =
  if kernel < 0 || kernel >= total_kernels t.cfg then
    invalid_arg "System.home_pes: no such kernel";
  let group_size = 1 + t.cfg.user_pes_per_kernel in
  List.init group_size (fun u -> (kernel * group_size) + u)

let register_vpe t ~pe ~kernel:kid =
  let id = t.next_vpe in
  t.next_vpe <- id + 1;
  let vpe = Vpe.make ~id ~pe ~kernel:kid in
  Hashtbl.add t.vpes id vpe;
  Kernel.add_vpe (kernel t kid) vpe;
  vpe

let create cfg =
  if cfg.kernels <= 0 then invalid_arg "System.create: need at least one kernel";
  if cfg.spare_kernels < 0 then invalid_arg "System.create: negative spare kernels";
  if total_kernels cfg > Cost.max_kernels then
    invalid_arg "System.create: more kernels than the DTU endpoints support (64)";
  if cfg.user_pes_per_kernel > Cost.max_pes_per_kernel then
    invalid_arg "System.create: more PEs per kernel than syscall slots support (192)";
  let total = total_kernels cfg * (1 + cfg.user_pes_per_kernel) in
  let topology = Topology.square total in
  let obs = Obs.Registry.create () in
  let engine = Engine.create ~obs () in
  let trace = Obs.Trace.create ~capacity:cfg.trace_capacity in
  let fabric = Fabric.create ~obs engine topology cfg.noc in
  let grid = Dtu.create_grid ~obs fabric in
  let membership = Membership.create () in
  let group_size = 1 + cfg.user_pes_per_kernel in
  let groups =
    Array.init (total_kernels cfg) (fun g ->
        let base = g * group_size in
        let free = Queue.create () in
        for u = 1 to cfg.user_pes_per_kernel do
          Queue.push (base + u) free
        done;
        { kernel_pe = base; free })
  in
  for g = 0 to total_kernels cfg - 1 do
    for p = g * group_size to (g * group_size) + group_size - 1 do
      Membership.assign membership ~pe:p ~kernel:g
    done
  done;
  Membership.seal membership;
  (* Spares boot with their lifecycle state recorded before the
     per-kernel replicas are copied, so every replica agrees from
     cycle 0. *)
  for g = cfg.kernels to total_kernels cfg - 1 do
    Membership.set_kernel_state membership ~kernel:g Membership.Spare
  done;
  (* Every PE gets a DTU; only kernel DTUs stay privileged (§2.2). *)
  for p = 0 to total - 1 do
    let dtu = Dtu.create grid ~pe:p in
    if p mod group_size <> 0 then Dtu.deprivilege dtu
  done;
  let fault =
    Option.map
      (fun profile ->
        let kernel_pes = Array.to_list (Array.map (fun g -> g.kernel_pe) groups) in
        let plan = Fault.create ~kernel_pes profile in
        Fabric.set_injector fabric (Some (Fault.injector plan));
        plan)
      cfg.fault
  in
  let registry = Hashtbl.create (total_kernels cfg) in
  let t =
    {
      cfg;
      engine;
      fabric;
      grid;
      membership;
      registry;
      groups;
      vpes = Hashtbl.create 256;
      fault;
      obs;
      trace;
      next_vpe = 0;
    }
  in
  let env =
    {
      Kernel.locate_vpe = (fun vid -> Hashtbl.find_opt t.vpes vid);
      alloc_pe =
        (fun ~kernel ->
          (* A kernel that is not serving (spare, joining, draining,
             retired) refuses to place new VPEs: the caller sees
             E_no_pe, the fleet's "refuses new work" contract. *)
          if
            kernel < 0
            || kernel >= total_kernels cfg
            || Membership.kernel_state t.membership kernel <> Membership.Active
          then None
          else
            let g = groups.(kernel) in
            if Queue.is_empty g.free then None else Some (Queue.pop g.free));
      make_vpe = (fun ~pe ~kernel -> register_vpe t ~pe ~kernel);
      on_vpe_exit =
        (fun vpe ->
          let g = groups.(vpe.Vpe.kernel) in
          Queue.push vpe.Vpe.pe g.free);
    }
  in
  let cost =
    let base = Cost.default cfg.mode in
    let base = if cfg.batching then Cost.with_batching base else base in
    let base = if cfg.broadcast then Cost.with_broadcast base else base in
    if cfg.retry then base else Cost.without_retries base
  in
  for g = 0 to total_kernels cfg - 1 do
    (* Each kernel holds its own replica of the membership table, as in
       the paper (Figure 2) — PE migration must update all of them. *)
    ignore
      (Kernel.create ~obs ~trace ~engine ~fabric ~grid ~id:g ~pe:groups.(g).kernel_pe
         ~membership:(Membership.copy membership) ~cost ~env ~registry
         ~kernel_count:(total_kernels cfg) ())
  done;
  t

let spawn_vpe ?pe t ~kernel:kid =
  if kid < 0 || kid >= total_kernels t.cfg then invalid_arg "System.spawn_vpe: no such kernel";
  if Membership.kernel_state t.membership kid <> Membership.Active then
    invalid_arg "System.spawn_vpe: kernel is not active";
  let g = t.groups.(kid) in
  let pe =
    match pe with
    | Some p -> p
    | None ->
      if Queue.is_empty g.free then invalid_arg "System.spawn_vpe: group is full"
      else Queue.pop g.free
  in
  register_vpe t ~pe ~kernel:kid

(* A frozen VPE has its capability records in flight between kernels:
   hold the syscall and re-dispatch once the destination has installed
   them. Re-reads [vpe.kernel] on every attempt so the retry lands at
   the new owner. *)
let rec syscall t vpe call k =
  if vpe.Vpe.frozen && Vpe.is_alive vpe then
    Engine.after t.engine 200L (fun () -> syscall t vpe call k)
  else Kernel.syscall (kernel t vpe.Vpe.kernel) ~vpe call k

let run ?until t = Engine.run ?until t.engine

let syscall_sync t vpe call =
  let result = ref None in
  syscall t vpe call (fun r -> result := Some r);
  let rec drive () =
    match !result with
    | Some r -> r
    | None ->
      if Engine.pending t.engine = 0 then
        failwith "System.syscall_sync: engine idle before reply arrived"
      else begin
        ignore (Engine.run ~until:(Int64.add (Engine.now t.engine) 10_000L) t.engine);
        drive ()
      end
  in
  drive ()

let total_cap_ops t =
  List.fold_left (fun acc k -> acc + (Kernel.stats k).Kernel.cap_ops) 0 (kernels t)

let check_invariants t = List.concat_map Kernel.check_invariants (kernels t)

let migrate_vpe t (vpe : Vpe.t) ~to_kernel =
  if to_kernel < 0 || to_kernel >= total_kernels t.cfg then
    invalid_arg "System.migrate_vpe: no such kernel";
  (* Quiesce the system first: migration is only defined with no
     in-flight operations touching the VPE. *)
  ignore (Engine.run t.engine);
  (* Keep the system-level replica in step for spawn-time routing. *)
  Membership.reassign t.membership ~pe:vpe.Vpe.pe ~kernel:to_kernel;
  let finished = ref false in
  Kernel.migrate_vpe (kernel t vpe.Vpe.kernel) ~vpe ~dst:to_kernel (fun () -> finished := true);
  ignore (Engine.run t.engine);
  if not !finished then failwith "System.migrate_vpe: migration did not complete"

type snapshot = {
  s_engine : Engine.snapshot;
  s_fabric : Fabric.snapshot;
  s_dtus : Dtu.snapshot;
  s_membership : Membership.snapshot;
  s_fault : Fault.snapshot option;
  s_obs : Obs.Registry.state;
  s_trace : Obs.Trace.state;
  s_kernels : (int * Kernel.snapshot) list;
  s_vpes : (int * Vpe.snapshot) list;
  s_groups : int list array;  (* free-PE queues, front first *)
  s_next_vpe : int;
}

let snapshot t =
  {
    s_engine = Engine.snapshot t.engine;
    s_fabric = Fabric.snapshot t.fabric;
    s_dtus = Dtu.snapshot_grid t.grid;
    s_membership = Membership.snapshot t.membership;
    s_fault = Option.map Fault.snapshot t.fault;
    s_obs = Obs.Registry.dump t.obs;
    s_trace = Obs.Trace.dump t.trace;
    s_kernels =
      List.init (total_kernels t.cfg) (fun i -> (i, Kernel.snapshot (kernel t i)));
    s_vpes =
      Hashtbl.fold (fun id v acc -> (id, Vpe.snapshot v) :: acc) t.vpes []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    s_groups =
      Array.map (fun g -> List.rev (Queue.fold (fun acc pe -> pe :: acc) [] g.free)) t.groups;
    s_next_vpe = t.next_vpe;
  }

(* The snapshot is closure-free by construction (gauges are sampled,
   continuations summarised), so Marshal is deterministic for equal
   states and the digest is a usable integrity fingerprint.
   [No_sharing] keeps the digest a function of structural content
   alone: a restored system rebuilds the same values with a different
   physical sharing graph (e.g. trace-ring events no longer share
   their kind strings with events recorded after resume), and
   sharing-aware marshalling would tell those states apart. *)
let fingerprint t =
  Digest.to_hex (Digest.bytes (Marshal.to_bytes (snapshot t) [ Marshal.No_sharing ]))

let restore t s =
  (* Kernels first: their restore validates that the live control
     plane (pending ops, idempotency caches) still matches the
     snapshot and refuses otherwise, so a divergent system is rejected
     before any other module has been mutated. *)
  List.iter (fun (i, ks) -> Kernel.restore (kernel t i) ks) s.s_kernels;
  Engine.restore t.engine s.s_engine;
  Fabric.restore t.fabric s.s_fabric;
  Dtu.restore_grid t.grid s.s_dtus;
  Membership.restore t.membership s.s_membership;
  (match (t.fault, s.s_fault) with
  | Some plan, Some fs -> Fault.restore plan fs
  | None, None -> ()
  | _ -> invalid_arg "System.restore: fault plan presence does not match the snapshot");
  Obs.Registry.restore t.obs s.s_obs;
  Obs.Trace.restore t.trace s.s_trace;
  List.iter
    (fun (id, vs) ->
      match Hashtbl.find_opt t.vpes id with
      | Some v -> Vpe.restore v vs
      | None -> invalid_arg "System.restore: snapshot mentions a VPE this system never spawned")
    s.s_vpes;
  Array.iteri
    (fun i pes ->
      let g = t.groups.(i) in
      Queue.clear g.free;
      List.iter (fun pe -> Queue.push pe g.free) pes)
    s.s_groups;
  t.next_vpe <- s.s_next_vpe

let rebind t = Engine.rebind t.engine

let shutdown t =
  (* Exit every live VPE. Each exit revokes the VPE's entire capability
     space; concurrent exits exercise the overlapping-revoke machinery
     (session capabilities are children of service capabilities owned by
     other exiting VPEs). *)
  Hashtbl.iter
    (fun _ (vpe : Vpe.t) ->
      if Vpe.is_alive vpe then Kernel.syscall (kernel t vpe.Vpe.kernel) ~vpe Protocol.Sys_exit (fun _ -> ()))
    t.vpes;
  ignore (Engine.run t.engine);
  (* Kernels exchange shutdown notices (group 1 inter-kernel calls). *)
  List.iter
    (fun k ->
      List.iter
        (fun peer ->
          if Kernel.id peer <> Kernel.id k then
            Kernel.deliver_ikc peer ~src_kernel:(Kernel.id k)
              (Protocol.Ik_shutdown { src_kernel = Kernel.id k }))
        (kernels t))
    (kernels t);
  ignore (Engine.run t.engine);
  List.fold_left (fun acc k -> acc + Semper_caps.Mapdb.count (Kernel.mapdb k)) 0 (kernels t)
