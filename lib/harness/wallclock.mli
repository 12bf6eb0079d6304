(** Wall-clock throughput benchmark for the simulator core.

    Unlike every other bench mode, this measures the {e host}: real
    seconds and events/sec for representative figure workloads (Table 3,
    Figure 4, Figure 6), plus the engine-wide cancellation counters and
    heap high-water mark from {!Semper_sim.Engine.Totals}. The numbers
    are host-dependent by construction, so [BENCH_wallclock.json] is
    excluded from the byte-identity contract that covers the other
    outputs; the simulated-cycle results of the workloads it runs are
    unchanged and still covered. Workloads run serially so the timings
    are not folded together with domain-scheduler noise. *)

type sample = {
  s_name : string;
  s_wall_s : float;
  s_events : int;  (** events executed by the engines of this workload *)
  s_events_per_s : float;
  s_cancelled : int;
  s_heap_peak : int;
      (** process-wide monotone high-water mark as of the end of this
          workload, not a per-workload delta *)
  s_minor_collections : int;  (** minor GCs during this workload *)
  s_major_collections : int;  (** major GC cycles during this workload *)
  s_promoted_words : float;  (** words promoted minor -> major *)
}

type preset =
  | Full  (** the figure workloads at paper scale *)
  | Smoke  (** scaled down to seconds, for the [@wallclock-smoke] test *)

(** Run the preset's workloads and measure each. *)
val samples : ?preset:preset -> unit -> sample list

(** Deterministically ordered JSON document for a measured run. *)
val json : sample list -> Semper_obs.Obs.Json.t

(** Render the samples as a table on stdout. *)
val print : sample list -> unit

(** [samples] + [print] + write JSON to [path]
    (default ["BENCH_wallclock.json"]). *)
val run : ?preset:preset -> ?path:string -> unit -> unit
