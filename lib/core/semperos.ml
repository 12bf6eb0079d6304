(** SemperOS: a distributed capability system — public API.

    This facade re-exports every layer of the reproduction in one place;
    examples and downstream users need only depend on the [semperos]
    library.

    Layers (bottom up):
    - {!Engine}, {!Server}: discrete-event simulation substrate.
    - {!Checkpoint}: whole-image checkpoints — the one way to resume a
      run (fuzz, shrink, record/replay); re-stamp a loaded system with
      {!System.rebind}. Per-layer snapshots only feed
      {!System.fingerprint}.
    - {!Topology}, {!Fabric}: network-on-chip model.
    - {!Dtu}, {!Message}: data transfer units (endpoints, credits,
      message slots) — the M3 hardware substrate.
    - {!Key}, {!Membership}: distributed data lookup (DDL).
    - {!Perms}, {!Cap}, {!Capspace}, {!Mapdb}: capability records,
      per-VPE capability spaces, the per-kernel mapping database.
    - {!Cost}, {!Protocol}, {!Vpe}, {!Thread_pool}, {!Kernel},
      {!System}: the SemperOS multikernel and its distributed
      capability protocols.
    - {!Obs}: deterministic observability — metrics registry, protocol
      span tracing, JSON export.
    - {!Fault}, {!Fuzz}: seeded fault injection for the fabric and the
      deterministic schedule fuzzer built on it.
    - {!Fs_image}, {!M3fs}, {!Fs_client}: the m3fs in-memory filesystem
      service and its client library.
    - {!Trace}, {!Replay}, {!Workloads}: application traces.
    - {!Experiment}, {!Nginx_bench}, {!Microbench}, {!Figures}: the
      paper's evaluation harness; {!Record} checkpoints figure runs.
    - {!Balance}, {!Skew}: the autonomic load balancer
      (occupancy-driven VPE migration) and its skewed-workload
      benchmark.
    - {!Fleet}, {!Fleetbench}: the elastic kernel fleet (runtime
      join/drain/leave with live partition rebalancing, plus the
      occupancy-driven autoscaler) and its autoscaling benchmark.
    - {!Domain_pool}, {!Runner}, {!Bench_json}: the parallel experiment
      runner — independent runs fan out over OCaml domains with
      deterministic, submission-order result collection. *)

module Engine = Semper_sim.Engine
module Server = Semper_sim.Server
module Checkpoint = Semper_sim.Checkpoint
module Domain_pool = Semper_util.Domain_pool
module Rng = Semper_util.Rng
module Stats = Semper_util.Stats
module Table = Semper_util.Table
module Topology = Semper_noc.Topology
module Fabric = Semper_noc.Fabric
module Dtu = Semper_dtu.Dtu
module Message = Semper_dtu.Message
module Key = Semper_ddl.Key
module Membership = Semper_ddl.Membership
module Perms = Semper_caps.Perms
module Cap = Semper_caps.Cap
module Capspace = Semper_caps.Capspace
module Mapdb = Semper_caps.Mapdb
module Cost = Semper_kernel.Cost
module Protocol = Semper_kernel.Protocol
module Vpe = Semper_kernel.Vpe
module Thread_pool = Semper_kernel.Thread_pool
module Kernel = Semper_kernel.Kernel
module System = Semper_kernel.System
module Obs = Semper_obs.Obs
module Fault = Semper_fault.Fault
module Fs_image = Semper_m3fs.Fs_image
module M3fs = Semper_m3fs.M3fs
module Fs_client = Semper_m3fs.Client
module Trace = Semper_trace.Trace
module Trace_io = Semper_trace.Trace_io
module Recorder = Semper_trace.Recorder
module Replay = Semper_trace.Replay
module Workloads = Semper_trace.Workloads
module Experiment = Semper_harness.Experiment
module Audit = Semper_harness.Audit
module Fuzz = Semper_harness.Fuzz
module Microbench = Semper_harness.Microbench
module Nginx_bench = Semper_harness.Nginx
module Runner = Semper_harness.Runner
module Figures = Semper_harness.Figures
module Record = Semper_harness.Record
module Bench_json = Semper_harness.Bench_json
module Batchbench = Semper_harness.Batchbench
module Scale = Semper_harness.Scale
module Balance = Semper_balance.Balance
module Fleet = Semper_fleet.Fleet
module Skew = Semper_harness.Skew
module Fleetbench = Semper_harness.Fleetbench

(** Version of this reproduction. *)
let version = "1.0.0"
