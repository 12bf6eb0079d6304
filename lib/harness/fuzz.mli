(** Deterministic schedule fuzzer for the distributed capability
    protocols.

    One fuzz case is a pair of seeds: [workload_seed] drives a random
    multi-kernel workload (alloc, obtain, delegate, revoke, derive,
    migrate, exit, partial engine runs) and [fault_seed] drives a
    {!Semper_fault.Fault} plan injected into the fabric. Everything is
    seeded, so a failing pair replays bit-identically:

    {v semperos_cli fuzz --workload-seed N --fault-seed M v}

    After the workload, the engine is drained and three oracles run:

    - {b liveness}: every syscall issued received a reply (no protocol
      lost a message for good);
    - {b safety}: {!Audit.run} reports a consistent global capability
      forest (parent/child symmetry, DDL routing, no orphans);
    - {b teardown}: {!System.shutdown} revokes everything — zero
      capabilities survive.

    A fourth, {b relocation}, runs after each migration step (the
    engine is drained around migrations): every capability record in
    the migrated VPE's key partition must live at the destination
    kernel and nowhere else, every kernel's membership replica must
    route the PE to the destination with no mid-handoff mark left, and
    the VPE must be unfrozen. A migration is a one-PE handoff wave, and
    the fault plan may drop or duplicate its [part_update],
    [part_records] and [migrate_ack] messages, so this oracle is what
    proves the wave's retransmission and deduplication paths converge:
    a lost record wave would strand records at the source, a misapplied
    update would misroute lookups. *)

type spec = {
  kernels : int;
  vpes : int;
  ops : int;  (** number of random workload steps *)
  spares : int;
      (** kernels provisioned [Spare]. When positive, the workload
          vocabulary gains fleet transitions ({!Semper_fleet.Fleet.join}
          and [drain], run from quiescence with faults hitting their
          broadcasts and partition waves) plus two oracles after each
          transition and at quiescence: membership replicas converge
          (routing, lifecycle states, no mid-handoff residue) and no
          capability record or VPE is stranded on an out-of-service
          kernel. Zero (the default) draws exactly the pre-fleet RNG
          stream, so existing seeds and corpus cases replay
          bit-identically. *)
  delay : bool;
  dup : bool;
  drop : bool;
  stall : bool;
  retry : bool;  (** disable to demonstrate the oracles catching real loss *)
}

val spec :
  ?kernels:int ->
  ?vpes:int ->
  ?ops:int ->
  ?spares:int ->
  ?delay:bool ->
  ?dup:bool ->
  ?drop:bool ->
  ?stall:bool ->
  ?retry:bool ->
  unit ->
  spec

(** 3 kernels, 6 VPEs, 40 ops, all fault classes, retries on. *)
val default_spec : spec

type outcome = {
  workload_seed : int;
  fault_seed : int;
  syscalls : int;
  replies : int;
  ok_replies : int;
  err_replies : int;
  migrations : int;
  fleet_transitions : int;  (** completed fleet join/drain transitions *)
  injected_delays : int;
  injected_dups : int;
  injected_drops : int;
  injected_stalls : int;
  retries : int;  (** kernel retransmissions triggered by timeouts *)
  dup_ikc : int;  (** duplicate inter-kernel messages detected and absorbed *)
  caps_leaked : int;
  failures : string list;  (** empty = the case passed all oracles *)
  metrics_json : string;
      (** metrics snapshot (JSON object), attached only when the case
          failed; [""] otherwise *)
  trace_tail : string list;
      (** last protocol trace events (JSONL), attached only when the
          case failed *)
}

(** The fault profile a spec induces for a given fault seed. *)
val profile : spec -> int -> Semper_fault.Fault.profile

(** Run one case to completion. With [checkpoint_every] = K > 0,
    [on_checkpoint at image] fires with the case frozen just before ops
    0, K, 2K, ... ([at] = ops executed, [image] a {!save_state} image);
    checkpoints stop once a case crashes. The callback defaults to a
    no-op, and outcomes are identical with checkpointing on or off. *)
val run_one :
  ?spec:spec ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(int -> bytes -> unit) ->
  workload_seed:int ->
  fault_seed:int ->
  unit ->
  outcome

(** {1 Stepwise execution}

    A fuzz case as an explicit state machine: {!start} builds the
    system and issues the boot allocations, {!step} executes one
    workload op (no-op once all ops ran or the case crashed), {!finish}
    drains the engine, runs the oracles, tears the system down, and
    produces the outcome. [run_one] is exactly
    [start; ops × step; finish] — byte-identical outcomes. *)

type state

val start : ?spec:spec -> workload_seed:int -> fault_seed:int -> unit -> state
val step : state -> unit

(** Workload ops executed so far. *)
val steps_done : state -> int

(** The case's system — exposed for checkpoint tests (fingerprints,
    rebind). *)
val state_system : state -> Semper_kernel.System.t

(** [finish ?inc st] drains, runs the oracles, and tears down. When
    [inc] is an incremental auditor created against this case's system
    at boot, its report is checked against the full audit (only when
    the full report is clean — the two phrase corruption differently). *)
val finish : ?inc:Audit.Incremental.t -> state -> outcome

(** {1 Checkpointing}

    A case state is one marshalable root: the reply continuations and
    engine events all close over it, so one {!Semper_sim.Checkpoint}
    image captures the whole case mid-flight. Images embed the
    {!Semper_kernel.System.fingerprint} at save time; {!load_state}
    re-verifies it after restore and re-stamps the engine
    ({!Semper_kernel.System.rebind}), so the returned state is ready to
    {!step}. Like all whole-image checkpoints, fuzz images only load in
    the build that wrote them. *)

(** The [kind] tag stored in fuzz-case images ("fuzz-case"). *)
val case_kind : string

(** Serialize a live case (position = ops executed, fingerprint
    embedded). The state remains usable afterwards. *)
val save_state : state -> bytes

(** Deserialize, rebind, and fingerprint-check a case image. *)
val load_state : bytes -> (Semper_sim.Checkpoint.header * state, string) result

(** {1 Counterexample shrinking} *)

type shrink_result = {
  sh_spec : spec;
  sh_workload_seed : int;
  sh_fault_seed : int;
  sh_original : outcome;  (** the full-length failing run *)
  sh_min_ops : int;  (** smallest failing op-prefix length *)
  sh_minimal : outcome;  (** outcome of the minimal prefix *)
  sh_probes : int;  (** prefix trials executed *)
  sh_replayed_ops : int;  (** ops re-executed across all probes *)
  sh_saved_ops : int;  (** ops skipped by resuming from checkpoints *)
}

(** Delta-debug a failing case down to its smallest failing op-prefix.

    A recording pass checkpoints the case every [checkpoint_every] ops
    (default [ops/8], in memory); each probe of a candidate prefix
    length then resumes from the nearest checkpoint at or below it
    instead of re-running from op zero, and applies the full oracle
    suite ({!finish}) to the truncated case. Prefix lengths are
    binary-searched, then refined downwards a bounded distance in case
    the failure is non-monotone in the prefix length. Probes run
    strictly sequentially in a deterministic order, so the same seeds
    always yield the same minimal case, regardless of the runner's
    [--jobs] setting. Returns [Error _] when the full case passes all
    oracles. *)
val shrink :
  ?spec:spec ->
  ?checkpoint_every:int ->
  workload_seed:int ->
  fault_seed:int ->
  unit ->
  (shrink_result, string) result

(** {1 Self-contained counterexample cases}

    A shrunk counterexample, serialized as a small plain-text file
    (format-tagged, build-independent — unlike checkpoint images) that
    records the spec, the seed pair, and the expected oracle verdict.
    The regression corpus under [test/corpus/] holds these. *)

module Case : sig
  type t = {
    name : string;
    spec : spec;
    workload_seed : int;
    fault_seed : int;
    expect : string list;
        (** sorted oracle kinds expected to fire, e.g. ["audit"; "liveness"] *)
  }

  (** The oracle kind of a failure line (its prefix before [':']). *)
  val failure_kind : string -> string

  (** Sorted, deduplicated oracle kinds of an outcome's failures. *)
  val kinds : string list -> string list

  val of_shrink : name:string -> shrink_result -> t
  val to_string : t -> string
  val of_string : string -> (t, string) result
  val save : string -> t -> unit
  val load : string -> (t, string) result

  (** Re-run the case from its seeds. *)
  val run : t -> outcome

  (** Re-run and compare the oracle verdict against [expect]:
      [Ok outcome] when the same oracle kinds fire, [Error _] when the
      verdict drifted. *)
  val check : t -> (outcome, string) result
end

(** Run seed pairs [(workload_seed + i, fault_seed + i)] for [i] in
    [0, runs). Independent runs fan out across OCaml domains ([jobs]
    defaults to the available cores; [jobs:1] = serial); outcomes are
    returned in seed order regardless of the job count. *)
val run_many :
  ?jobs:int -> ?spec:spec -> workload_seed:int -> fault_seed:int -> runs:int -> unit -> outcome list

(** One-line, byte-stable summary (identical seeds always produce the
    identical line). *)
val outcome_line : outcome -> string

(** {!outcome_line} plus one indented line per failure, followed by the
    trace tail and metrics snapshot when the case failed. *)
val pp_outcome : Format.formatter -> outcome -> unit
