(** Virtual PE: the unit of execution (comparable to a single-threaded
    process, paper §2.2). Each VPE has its own capability space and may
    have at most one system call in flight. *)

type state = Running | Exited

type t = {
  id : int;
  pe : int;
  mutable kernel : int;  (** the kernel managing this VPE's group *)
  capspace : Semper_caps.Capspace.t;
  mutable state : state;
  mutable syscall_pending : bool;
  mutable frozen : bool;
      (** a PE migration has this VPE's capability records in flight
          between kernels; cleared when the destination installs them.
          {!System.syscall} holds (and later re-dispatches) syscalls
          issued while frozen *)
  mutable reply_k : (Protocol.reply -> unit) option;
      (** continuation of the in-flight syscall, run on reply delivery *)
  mutable syscall_name : string;   (** name of the in-flight syscall *)
  mutable syscall_start : int64;   (** issue time of the in-flight syscall *)
  mutable span : int;              (** trace span id of the in-flight syscall; -1 if none yet *)
  mutable accept_exchange : bool;
      (** whether this VPE agrees to direct exchanges (tests use [false]
          to exercise the denial path) *)
  inbox : Semper_dtu.Message.t Queue.t;
      (** messages delivered to this VPE's activated receive gates —
          the app-visible end of a DTU channel *)
}

val make : id:int -> pe:int -> kernel:int -> t
val is_alive : t -> bool
val pp : Format.formatter -> t -> unit

(** Closure-free image of the VPE, an input of the system fingerprint:
    identity, owning kernel, capability space, run state, and the
    in-flight-syscall bookkeeping. The reply continuation and inbox
    messages travel only inside whole-image checkpoints; the snapshot
    records their presence so fingerprints distinguish states. *)
type snapshot

val snapshot : t -> snapshot
