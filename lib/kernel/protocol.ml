module Key = Semper_ddl.Key

type error =
  | E_no_such_service
  | E_no_such_cap
  | E_no_such_vpe
  | E_no_such_session
  | E_denied
  | E_in_revocation
  | E_vpe_dead
  | E_busy
  | E_invalid
  | E_no_pe
  | E_timeout

let error_to_string = function
  | E_no_such_service -> "no such service"
  | E_no_such_cap -> "no such capability"
  | E_no_such_vpe -> "no such VPE"
  | E_no_such_session -> "no such session"
  | E_denied -> "denied"
  | E_in_revocation -> "capability in revocation"
  | E_vpe_dead -> "VPE dead"
  | E_busy -> "VPE busy"
  | E_invalid -> "invalid arguments"
  | E_no_pe -> "no free PE"
  | E_timeout -> "remote kernel unreachable (retries exhausted)"

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

type selector = Semper_caps.Capspace.selector

type syscall =
  | Sys_create_vpe of { on_pe : int option }
  | Sys_create_srv of { name : string }
  | Sys_create_rgate of { ep : int; slots : int }
  | Sys_create_sgate of { rgate : selector; label : int }
  | Sys_alloc_mem of { size : int64; perms : Semper_caps.Perms.t }
  | Sys_derive_mem of { sel : selector; offset : int64; size : int64; perms : Semper_caps.Perms.t }
  | Sys_open_session of { service : string }
  | Sys_obtain of { sess : selector; args : int list }
  | Sys_delegate of { sess : selector; sel : selector; args : int list }
  | Sys_obtain_from of { donor_vpe : int; donor_sel : selector }
  | Sys_delegate_to of { recv_vpe : int; sel : selector }
  | Sys_revoke of { sel : selector; own : bool }
  | Sys_activate of { sel : selector; ep : int }
  | Sys_exit

let syscall_name = function
  | Sys_create_vpe _ -> "create_vpe"
  | Sys_create_srv _ -> "create_srv"
  | Sys_create_rgate _ -> "create_rgate"
  | Sys_create_sgate _ -> "create_sgate"
  | Sys_alloc_mem _ -> "alloc_mem"
  | Sys_derive_mem _ -> "derive_mem"
  | Sys_open_session _ -> "open_session"
  | Sys_obtain _ -> "obtain"
  | Sys_delegate _ -> "delegate"
  | Sys_obtain_from _ -> "obtain_from"
  | Sys_delegate_to _ -> "delegate_to"
  | Sys_revoke _ -> "revoke"
  | Sys_activate _ -> "activate"
  | Sys_exit -> "exit"

type reply =
  | R_ok
  | R_sel of selector
  | R_vpe of { vpe : int; sel : selector }
  | R_sess of { sel : selector; ident : int }
  | R_err of error

let pp_reply ppf = function
  | R_ok -> Format.pp_print_string ppf "ok"
  | R_sel s -> Format.fprintf ppf "sel(%d)" s
  | R_vpe { vpe; sel } -> Format.fprintf ppf "vpe(%d, sel=%d)" vpe sel
  | R_sess { sel; ident } -> Format.fprintf ppf "sess(sel=%d, ident=%d)" sel ident
  | R_err e -> Format.fprintf ppf "error(%s)" (error_to_string e)

type donor =
  | Via_session of { srv_key : Key.t; ident : int; args : int list }
  | Direct of { donor_vpe : int; donor_sel : selector }

type recv_ref =
  | Recv_vpe of int
  | Recv_service of { srv_key : Key.t; ident : int; args : int list }

type migrated_cap = {
  m_key : Key.t;
  m_kind : Semper_caps.Cap.kind;
  m_owner : int;
  m_parent : Key.t option;
  m_children : Key.t list;
}

type ikc =
  | Ik_obtain_req of {
      op : int;
      src_kernel : int;
      obj_reserved : int;
      client_pe : int;
      client_vpe : int;
      donor : donor;
    }
  | Ik_obtain_reply of { op : int; result : (Key.t * Semper_caps.Cap.kind * Key.t, error) result }
  | Ik_delegate_req of {
      op : int;
      src_kernel : int;
      parent_key : Key.t;
      kind : Semper_caps.Cap.kind;
      recv : recv_ref;
    }
  | Ik_delegate_reply of { op : int; result : (Key.t, error) result }
  | Ik_delegate_ack of { op : int; child_key : Key.t; commit : bool }
  | Ik_open_sess_req of {
      op : int;
      src_kernel : int;
      srv_key : Key.t;
      sess_key : Key.t;
      client_vpe : int;
    }
  | Ik_open_sess_reply of { op : int; result : (int, error) result }
  | Ik_revoke_req of { op : int; src_kernel : int; keys : Key.t list }
  | Ik_revoke_reply of { op : int; keys : Key.t list; cont : Key.t list }
      (* [cont]: marked-subtree roots the responder discovered on the
         requester's side; the requester folds them into its own revoke
         wave instead of receiving a separate Ik_revoke_req per child
         (batching mode; empty otherwise). *)
  | Ik_remove_child of { op : int; parent_key : Key.t; child_key : Key.t }
  | Ik_migrate_ack of { op : int }
  | Ik_srv_announce of { op : int; name : string; srv_key : Key.t; kernel : int }
  | Ik_fleet_state of {
      op : int;
      src_kernel : int;
      kernel : int;
      state : Semper_ddl.Membership.kernel_state;
    }
      (* Kernel lifecycle transition (join/drain/retire), broadcast to
         every peer and acked with Ik_migrate_ack. *)
  | Ik_part_update of { op : int; src_kernel : int; pes : int list; new_kernel : int }
      (* Bulk membership flip for a whole partition set: the new owner
         marks every PE mid-handoff, other replicas reassign the set
         atomically. *)
  | Ik_part_records of {
      op : int;
      src_kernel : int;
      pes : int list;
      vpes : int list;
      records : migrated_cap list;
    }
      (* Framed record wave carrying every capability record of the
         partitions in [pes] plus the VPEs living there; sized like an
         [Ik_batch] frame (header + one slot per record). *)
  | Ik_batch of { src_kernel : int; msgs : ikc list }
      (* Framed multi-message: every [Ik_*] queued for the same peer
         within one DTU slot window travels as one fabric transfer
         consuming one credit (batching mode only). *)

let ikc_name = function
  | Ik_obtain_req _ -> "obtain_req"
  | Ik_obtain_reply _ -> "obtain_reply"
  | Ik_delegate_req _ -> "delegate_req"
  | Ik_delegate_reply _ -> "delegate_reply"
  | Ik_delegate_ack _ -> "delegate_ack"
  | Ik_open_sess_req _ -> "open_sess_req"
  | Ik_open_sess_reply _ -> "open_sess_reply"
  | Ik_revoke_req _ -> "revoke_req"
  | Ik_revoke_reply _ -> "revoke_reply"
  | Ik_remove_child _ -> "remove_child"
  | Ik_migrate_ack _ -> "migrate_ack"
  | Ik_srv_announce _ -> "srv_announce"
  | Ik_fleet_state _ -> "fleet_state"
  | Ik_part_update _ -> "part_update"
  | Ik_part_records _ -> "part_records"
  | Ik_batch _ -> "batch"

type service_request =
  | Srq_open_session of { client_vpe : int }
  | Srq_obtain of { ident : int; args : int list }
  | Srq_delegate of { ident : int; args : int list; kind : Semper_caps.Cap.kind }

type service_response =
  | Srs_session of { ident : int }
  | Srs_grant of { parent : Key.t; kind : Semper_caps.Cap.kind }
  | Srs_accept
  | Srs_reject of error
