(** Data Transfer Unit model (M3 / SemperOS hardware substrate).

    Every PE owns a DTU with a fixed number of endpoints; an endpoint is
    configured as a send, receive, or memory endpoint. The DTU is the
    PE's only gateway to the NoC, which is what makes NoC-level
    isolation work: controlling endpoint configuration controls every
    access the PE can make (paper §2.2).

    Faithful aspects of the model:
    - bounded receive slots — a message arriving at a full receive
      endpoint is dropped (the paper's protocols avoid this with
      credit/in-flight accounting, §4.1);
    - send credits — one credit is consumed per in-flight message and
      returned when the receiver frees the slot;
    - privileged configuration — after boot only kernel DTUs stay
      privileged; endpoints of deprivileged DTUs can only be configured
      through [configure_remote], the kernel-side path. *)

type grid
(** Registry of all DTUs in the system, bound to one NoC fabric. *)

type t

type error =
  | No_credits         (** send endpoint out of credits *)
  | Invalid_endpoint   (** endpoint index out of range *)
  | Wrong_kind         (** endpoint not configured for this operation *)
  | Not_privileged     (** local configuration on a deprivileged DTU *)
  | Out_of_bounds      (** memory access outside the endpoint window *)
  | No_permission      (** write through a read-only memory endpoint *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

(** Paper §5.1: each DTU provides 16 endpoints with 32 slots each. *)
val default_endpoints : int

val default_slots : int

(** {1 Grid} *)

(** [create_grid ?obs fabric] builds the DTU registry. When [obs] is
    given, grid-wide send/drop totals are registered there under the
    [dtu.*] namespace. *)
val create_grid : ?obs:Semper_obs.Obs.Registry.t -> Semper_noc.Fabric.t -> grid
val fabric : grid -> Semper_noc.Fabric.t
val engine : grid -> Semper_sim.Engine.t

(** [create grid ~pe] registers a fresh, privileged DTU for PE [pe].
    Raises [Invalid_argument] if [pe] already has a DTU or is outside
    the fabric's topology. *)
val create : ?endpoints:int -> grid -> pe:int -> t

(** [find grid ~pe] raises [Not_found] if the PE has no DTU. *)
val find : grid -> pe:int -> t

(** {1 Inspection} *)

val pe : t -> int
val endpoint_count : t -> int
val is_privileged : t -> bool

(** Messages dropped at this DTU because a receive endpoint was full. *)
val drops : t -> int

(** {1 Configuration} *)

(** Boot-time downgrade (paper §2.2: all DTUs start privileged and are
    downgraded by the kernel, except kernel PEs). *)
val deprivilege : t -> unit

(** Local configuration; requires the DTU to be privileged. *)

val configure_send :
  t -> ep:int -> dst_pe:int -> dst_ep:int -> credits:int -> (unit, error) result

val configure_receive :
  t -> ep:int -> slots:int -> handler:(Message.t -> unit) -> (unit, error) result

(** [host_pe] is the PE (or memory-controller tile) holding the target
    memory; reads and writes are charged a NoC round trip to it. *)
val configure_memory :
  t -> ep:int -> host_pe:int -> base:int64 -> size:int64 -> writable:bool -> (unit, error) result

val invalidate : t -> ep:int -> (unit, error) result

(** Kernel-side remote configuration: [by] must be a privileged DTU.
    The real hardware does this via privileged NoC packets; the latency
    is charged by the caller (kernel) as part of syscall cost. *)
val configure_remote :
  by:t ->
  t ->
  ep:int ->
  [ `Send of int * int * int  (** dst_pe, dst_ep, credits *)
  | `Receive of int * (Message.t -> unit)  (** slots, handler *)
  | `Memory of int * int64 * int64 * bool  (** host_pe, base, size, writable *)
  | `Invalidate ] ->
  (unit, error) result

(** {1 Data transfer} *)

(** [send t ~ep ~bytes ~payload] consumes a credit and delivers to the
    configured destination after the NoC latency. If the destination
    receive endpoint is full on arrival the message is dropped (counted
    at the receiving DTU) and the credit is still returned. *)
val send : t -> ep:int -> bytes:int -> payload:Message.payload -> (unit, error) result

(** Free the receive slot occupied by [msg] and return the sender's
    credit. Must be called exactly once per delivered message. *)
val ack : grid -> Message.t -> unit

(** Credits currently available on a send endpoint. *)
val credits : t -> ep:int -> (int, error) result

(** Receive slots currently free. *)
val free_slots : t -> ep:int -> (int, error) result

(** [read t ~ep ~offset ~bytes k] models a remote-memory read through a
    memory endpoint: validates the window, charges a NoC round trip,
    then runs [k]. [write] is analogous and additionally requires the
    endpoint to be writable. *)
val read : t -> ep:int -> offset:int64 -> bytes:int -> (unit -> unit) -> (unit, error) result

val write : t -> ep:int -> offset:int64 -> bytes:int -> (unit -> unit) -> (unit, error) result

(** Grid-wide image of every DTU's volatile state, an input of the
    system fingerprint: per-endpoint configuration kind, credit windows
    and slot occupancy, the privilege bit, and drop counts. Receive
    handlers are closures and travel only inside whole-image
    checkpoints. *)
type snapshot

val snapshot_grid : grid -> snapshot
