(* PE migration tests (the paper's named future work, §3.2): after a
   migration every kernel's membership replica must route the PE's keys
   to the new kernel, the capability records must have moved, and every
   protocol must keep working across the new topology. *)

open Semperos

let check = Alcotest.check

let reply_t = Alcotest.testable Protocol.pp_reply ( = )

let sel_of = function
  | Protocol.R_sel s -> s
  | r -> Alcotest.failf "expected selector, got %a" Protocol.pp_reply r

let alloc sys vpe =
  sel_of (System.syscall_sync sys vpe (Protocol.Sys_alloc_mem { size = 4096L; perms = Perms.rw }))

let test_migrate_moves_records () =
  let sys = System.create (System.config ~kernels:3 ~user_pes_per_kernel:4 ()) in
  let v = System.spawn_vpe sys ~kernel:0 in
  let _a = alloc sys v in
  let _b = alloc sys v in
  check Alcotest.int "records at kernel 0" 2 (Mapdb.count (Kernel.mapdb (System.kernel sys 0)));
  let events_from = Int64.to_int (System.now sys) in
  System.migrate_vpe sys v ~to_kernel:2;
  (* The migration runs as a one-PE handoff wave: the source announces
     it, broadcasts one partition update per peer, then ships one
     framed record wave to the destination — no migrate_* message. *)
  let events =
    List.filter
      (fun (e : Obs.Trace.event) -> Int64.to_int e.Obs.Trace.ts >= events_from)
      (Obs.Trace.events (System.trace_buffer sys))
  in
  let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let from_source kind =
    List.filter (fun (e : Obs.Trace.event) -> e.Obs.Trace.kind = kind && e.Obs.Trace.src = 0) events
  in
  let sends detail =
    List.filter_map
      (fun (e : Obs.Trace.event) -> if e.Obs.Trace.detail = detail then Some e.Obs.Trace.dst else None)
      (from_source "ikc_send")
    |> List.sort Int.compare
  in
  check
    Alcotest.(list string)
    "handoff_start" [ "pes=1 vpes=1" ]
    (List.map (fun (e : Obs.Trace.event) -> e.Obs.Trace.detail) (from_source "handoff_start"));
  check Alcotest.(list int) "one part_update per peer" [ 1; 2 ] (sends "part_update");
  check Alcotest.(list int) "one part_records to the destination" [ 2 ] (sends "part_records");
  check Alcotest.bool "no migrate_* kind or send from the source" false
    (List.exists
       (fun (e : Obs.Trace.event) ->
         starts_with "migrate_" e.Obs.Trace.kind
         || (e.Obs.Trace.kind = "ikc_send" && e.Obs.Trace.src = 0
            && starts_with "migrate_" e.Obs.Trace.detail))
       events);
  check Alcotest.int "now managed by kernel 2" 2 v.Vpe.kernel;
  check Alcotest.int "records left kernel 0" 0 (Mapdb.count (Kernel.mapdb (System.kernel sys 0)));
  check Alcotest.int "records arrived at kernel 2" 2
    (Mapdb.count (Kernel.mapdb (System.kernel sys 2)));
  (* The system's membership replica routes the PE to kernel 2 (each
     kernel's own replica was updated by the broadcast — the audit's
     DDL-routability check below verifies the records are reachable). *)
  check Alcotest.int "membership updated" 2
    (Membership.kernel_of_pe (System.membership sys) v.Vpe.pe);
  Audit.check sys

let test_migrated_vpe_keeps_working () =
  let sys = System.create (System.config ~kernels:3 ~user_pes_per_kernel:4 ()) in
  let v = System.spawn_vpe sys ~kernel:0 in
  let other = System.spawn_vpe sys ~kernel:1 in
  let sel = alloc sys v in
  (* A cross-kernel child exists before the migration. *)
  let other_sel =
    sel_of
      (System.syscall_sync sys other (Protocol.Sys_obtain_from { donor_vpe = v.Vpe.id; donor_sel = sel }))
  in
  ignore other_sel;
  System.migrate_vpe sys v ~to_kernel:2;
  (* New syscalls are handled by the new kernel. *)
  let sel2 = alloc sys v in
  let key2 = Option.get (Capspace.find v.Vpe.capspace sel2) in
  check Alcotest.bool "new cap hosted at kernel 2" true
    (Mapdb.mem (Kernel.mapdb (System.kernel sys 2)) key2);
  (* Exchanges with the migrated VPE route correctly. *)
  let third = System.spawn_vpe sys ~kernel:1 in
  (match
     System.syscall_sync sys third (Protocol.Sys_obtain_from { donor_vpe = v.Vpe.id; donor_sel = sel2 })
   with
  | Protocol.R_sel _ -> ()
  | r -> Alcotest.failf "obtain from migrated VPE: %a" Protocol.pp_reply r);
  (* The pre-migration cross-kernel tree still revokes cleanly: the
     revoke request for [other]'s child must reach kernel 1 while the
     root now lives at kernel 2. *)
  check reply_t "revoke pre-migration tree" Protocol.R_ok
    (System.syscall_sync sys v (Protocol.Sys_revoke { sel; own = true }));
  check Alcotest.int "other's copy gone" 0 (Capspace.count other.Vpe.capspace);
  Audit.check sys

let test_migrate_rejects_bad_args () =
  let sys = System.create (System.config ~kernels:2 ~user_pes_per_kernel:4 ()) in
  let v = System.spawn_vpe sys ~kernel:0 in
  Alcotest.check_raises "no such kernel" (Invalid_argument "System.migrate_vpe: no such kernel")
    (fun () -> System.migrate_vpe sys v ~to_kernel:7);
  Alcotest.check_raises "same kernel" (Invalid_argument "Kernel.migrate_vpe: already managed here")
    (fun () -> System.migrate_vpe sys v ~to_kernel:0);
  (match System.syscall_sync sys v Protocol.Sys_exit with
  | Protocol.R_ok -> ()
  | r -> Alcotest.failf "exit: %a" Protocol.pp_reply r);
  Alcotest.check_raises "dead VPE" (Invalid_argument "Kernel.migrate_vpe: VPE is dead") (fun () ->
      System.migrate_vpe sys v ~to_kernel:1)

let test_migrate_then_shutdown () =
  let sys = System.create (System.config ~kernels:3 ~user_pes_per_kernel:4 ()) in
  let v1 = System.spawn_vpe sys ~kernel:0 in
  let v2 = System.spawn_vpe sys ~kernel:1 in
  let a = alloc sys v1 in
  ignore
    (sel_of
       (System.syscall_sync sys v2 (Protocol.Sys_obtain_from { donor_vpe = v1.Vpe.id; donor_sel = a })));
  System.migrate_vpe sys v1 ~to_kernel:2;
  System.migrate_vpe sys v2 ~to_kernel:0;
  check Alcotest.int "clean shutdown after migrations" 0 (System.shutdown sys)

let suite =
  [
    Alcotest.test_case "migration moves records" `Quick test_migrate_moves_records;
    Alcotest.test_case "migrated VPE keeps working" `Quick test_migrated_vpe_keeps_working;
    Alcotest.test_case "migration argument checks" `Quick test_migrate_rejects_bad_args;
    Alcotest.test_case "migrate then shutdown" `Quick test_migrate_then_shutdown;
  ]
