type state = Running | Exited

type t = {
  id : int;
  pe : int;
  mutable kernel : int;
  capspace : Semper_caps.Capspace.t;
  mutable state : state;
  mutable syscall_pending : bool;
  (* Set while a PE migration has this VPE's capability records in
     flight between kernels; syscalls must be held until it clears. *)
  mutable frozen : bool;
  mutable reply_k : (Protocol.reply -> unit) option;
  mutable syscall_name : string;
  mutable syscall_start : int64;
  mutable span : int;
  mutable accept_exchange : bool;
  inbox : Semper_dtu.Message.t Queue.t;
}

let make ~id ~pe ~kernel =
  {
    id;
    pe;
    kernel;
    capspace = Semper_caps.Capspace.create ();
    state = Running;
    syscall_pending = false;
    frozen = false;
    reply_k = None;
    syscall_name = "";
    syscall_start = 0L;
    span = -1;
    accept_exchange = true;
    inbox = Queue.create ();
  }

let is_alive t = t.state = Running

(* [reply_k] (a continuation) and the inbox messages travel only inside
   whole-image checkpoints; the snapshot records their presence so a
   fingerprint distinguishes states. *)
type snapshot = {
  s_id : int;
  s_pe : int;
  s_kernel : int;
  s_capspace : Semper_caps.Capspace.snapshot;
  s_state : state;
  s_syscall_pending : bool;
  s_frozen : bool;
  s_reply_pending : bool;
  s_syscall_name : string;
  s_syscall_start : int64;
  s_span : int;
  s_accept_exchange : bool;
  s_inbox : int;
}

let snapshot t =
  {
    s_id = t.id;
    s_pe = t.pe;
    s_kernel = t.kernel;
    s_capspace = Semper_caps.Capspace.snapshot t.capspace;
    s_state = t.state;
    s_syscall_pending = t.syscall_pending;
    s_frozen = t.frozen;
    s_reply_pending = t.reply_k <> None;
    s_syscall_name = t.syscall_name;
    s_syscall_start = t.syscall_start;
    s_span = t.span;
    s_accept_exchange = t.accept_exchange;
    s_inbox = Queue.length t.inbox;
  }

let pp ppf t =
  Format.fprintf ppf "vpe%d@pe%d(k%d,%s)" t.id t.pe t.kernel
    (match t.state with Running -> "running" | Exited -> "exited")
