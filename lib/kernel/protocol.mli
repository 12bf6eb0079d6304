(** Wire-level protocol types: system calls, replies, and inter-kernel
    calls (IKCs).

    IKCs fall into the paper's three functional groups (§4.1):
    startup/shutdown, cross-group service connections, and cross-group
    capability exchange/revocation. *)

module Key = Semper_ddl.Key

type error =
  | E_no_such_service
  | E_no_such_cap
  | E_no_such_vpe
  | E_no_such_session
  | E_denied            (** the other party rejected the exchange *)
  | E_in_revocation     (** capability is marked; exchange would be pointless *)
  | E_vpe_dead
  | E_busy              (** VPE already has a syscall in flight *)
  | E_invalid           (** malformed arguments *)
  | E_no_pe             (** no free PE for a new VPE *)
  | E_timeout           (** inter-kernel retries exhausted; remote presumed unreachable *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

(** Selector in the calling VPE's capability space. *)
type selector = Semper_caps.Capspace.selector

(** System calls (sent as messages to the group's kernel PE). *)
type syscall =
  | Sys_create_vpe of { on_pe : int option }
      (** spawn a VPE; its control capability is delegated to the caller *)
  | Sys_create_srv of { name : string }
      (** register the calling VPE as a service *)
  | Sys_create_rgate of { ep : int; slots : int }
      (** create a receive-gate capability for an owned endpoint *)
  | Sys_create_sgate of { rgate : selector; label : int }
      (** derive a send-gate capability from an owned receive gate *)
  | Sys_alloc_mem of { size : int64; perms : Semper_caps.Perms.t }
      (** allocate a memory capability (backing store on the group's
          memory tile) *)
  | Sys_derive_mem of { sel : selector; offset : int64; size : int64; perms : Semper_caps.Perms.t }
      (** create a narrowed child of an owned memory capability *)
  | Sys_open_session of { service : string }
      (** connect to a named service, possibly in another group *)
  | Sys_obtain of { sess : selector; args : int list }
      (** obtain a capability from the service behind [sess] *)
  | Sys_delegate of { sess : selector; sel : selector; args : int list }
      (** delegate [sel] to the service behind [sess] *)
  | Sys_obtain_from of { donor_vpe : int; donor_sel : selector }
      (** direct VPE-to-VPE obtain (microbenchmark path) *)
  | Sys_delegate_to of { recv_vpe : int; sel : selector }
      (** direct VPE-to-VPE delegate (microbenchmark path) *)
  | Sys_revoke of { sel : selector; own : bool }
      (** recursively revoke; [own = false] revokes only the children *)
  | Sys_activate of { sel : selector; ep : int }
      (** configure a DTU endpoint for a gate or memory capability *)
  | Sys_exit
      (** terminate the calling VPE; all its capabilities are revoked *)

val syscall_name : syscall -> string

type reply =
  | R_ok
  | R_sel of selector           (** a new capability selector *)
  | R_vpe of { vpe : int; sel : selector }  (** new VPE id + control cap *)
  | R_sess of { sel : selector; ident : int }  (** new session cap + ident *)
  | R_err of error

val pp_reply : Format.formatter -> reply -> unit

(** How an obtain names its donor on the destination kernel. The
    donor's kernel asks the donor and, once it agrees, links the child
    under the parent the donor hands over. *)
type donor =
  | Via_session of { srv_key : Key.t; ident : int; args : int list }
      (** the service behind a session grants a child of a capability it
          owns ({!Srq_obtain}) *)
  | Direct of { donor_vpe : int; donor_sel : selector }
      (** a VPE accepts handing over the capability at [donor_sel] *)
  | Open_session of { srv_key : Key.t }
      (** a session open: the service accepts the client
          ({!Srq_open_session}), and the child is a session capability
          under the service capability [srv_key] *)

(** The donor kernel's answer to an obtain. The child's key is the one
    the client's kernel reserved ([obj_reserved]), so it is not sent
    back. *)
type obtained =
  | Linked of { kind : Semper_caps.Cap.kind; parent : Key.t }
      (** the child, of [kind], is linked under [parent] *)
  | Session of { ident : int }
      (** an {!Open_session} donor accepted: the capability of session
          [ident] is linked under the service capability *)
  | Refused of { error : error; sess_open : bool }
      (** [sess_open]: the refused obtain was a session open, which
          the client's kernel charges like an accepted one *)

(** How a delegate names its receiver on the destination kernel. *)
type recv_ref =
  | Recv_vpe of int
  | Recv_service of { srv_key : Key.t; ident : int; args : int list }

(** A capability record in flight during PE migration. *)
type migrated_cap = {
  m_key : Key.t;
  m_kind : Semper_caps.Cap.kind;
  m_owner : int;
  m_parent : Key.t option;
  m_children : Key.t list;
}

(** Inter-kernel calls. [op] identifies the originating operation at the
    source kernel; replies echo it.

    Every reliable message is sent with the kernel's one retried send
    and has exactly one kind of acknowledgement:
    - a {e request} ([Ik_obtain_req], [Ik_delegate_req],
      [Ik_revoke_req]) is acked by its reply, which the responder
      resends from its reply cache when the request is redelivered;
    - a {e notification} ([Ik_delegate_ack], [Ik_remove_child],
      [Ik_srv_announce], [Ik_fleet_state], [Ik_part_update],
      [Ik_part_records]) is acked on the credit return of its
      delivery, and a redelivered copy is acked again. *)
type ikc =
  | Ik_obtain_req of {
      op : int;
      src_kernel : int;
      obj_reserved : int;  (** object id reserved at the source for the child key *)
      client_pe : int;
      client_vpe : int;
      donor : donor;
    }
  | Ik_obtain_reply of { op : int; result : obtained }
  | Ik_delegate_req of {
      op : int;
      src_kernel : int;
      parent_key : Key.t;
      kind : Semper_caps.Cap.kind;
      recv : recv_ref;
    }
  | Ik_delegate_reply of { op : int; result : (Key.t, error) result }  (** child key *)
  | Ik_delegate_ack of { op : int; child_key : Key.t; commit : bool }
      (** notification closing the delegate handshake under the
          request's [op]: the receiver's kernel inserts ([commit]) or
          drops the child and releases the thread it held since the
          request *)
  | Ik_revoke_req of { op : int; src_kernel : int; keys : Key.t list }
  | Ik_revoke_reply of { op : int; keys : Key.t list; cont : Key.t list }
      (** [cont]: marked-subtree roots the responder discovered on the
          requester's side; the requester folds them into its own
          revoke wave instead of receiving a separate {!Ik_revoke_req}
          per child (batching mode; empty otherwise) *)
  | Ik_remove_child of { op : int; parent_key : Key.t; child_key : Key.t }
      (** unlink notification: orphan cleanup or root-revoke unlink; a
          redelivery re-runs the unlink, which is idempotent *)
  | Ik_srv_announce of { op : int; name : string; srv_key : Key.t; kernel : int }
      (** directory replication, one op per peer; a redelivery re-runs
          the directory write, which is idempotent *)
  | Ik_fleet_state of {
      op : int;
      src_kernel : int;
      kernel : int;
      state : Semper_ddl.Membership.kernel_state;
    }
      (** kernel lifecycle transition (join/drain/retire) broadcast to
          every peer, one op per peer; deduplicated by op *)
  | Ik_part_update of { op : int; src_kernel : int; pes : int list; new_kernel : int }
      (** bulk membership flip for a whole partition set, one op per
          peer: the new owner marks every PE mid-handoff, other replicas
          [reassign_partition] the set atomically; deduplicated by op *)
  | Ik_part_records of {
      op : int;
      src_kernel : int;
      pes : int list;
      vpes : int list;
      records : migrated_cap list;
    }
      (** framed record wave carrying every capability record of the
          partitions in [pes] plus the VPEs living there; sized like an
          {!Ik_batch} frame, acked once installed, deduplicated by op *)
  | Ik_batch of { src_kernel : int; msgs : ikc list }
      (** framed multi-message: every [Ik_*] queued for the same peer
          within one DTU slot window travels as one fabric transfer
          consuming one credit (batching mode only) *)

val ikc_name : ikc -> string

(** Requests a kernel makes to a service VPE (delivered through the
    service's own processing queue, so service contention is felt). *)
type service_request =
  | Srq_open_session of { client_vpe : int }
  | Srq_obtain of { ident : int; args : int list }
  | Srq_delegate of { ident : int; args : int list; kind : Semper_caps.Cap.kind }

type service_response =
  | Srs_session of { ident : int }
  | Srs_grant of { parent : Key.t; kind : Semper_caps.Cap.kind }
      (** grant a child of [parent] (a capability owned by the service) *)
  | Srs_accept
  | Srs_reject of error
