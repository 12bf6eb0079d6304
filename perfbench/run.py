#!/usr/bin/env python3
"""The repository benchmark, as one command.

    python3 perfbench/run.py --workload apps|sessions|revoke-trees \
        --seed N --seconds S --trace 0|1 [--size full|tiny] [--refuse N]

Run from the root of the repository. It builds perfbench/bench.exe with
dune into .bench_build/, runs the workload for S seconds, checks the
outputs, and prints every metric by name with its unit. The last line of
standard output is one JSON object with the keys "correct", "attempted",
"failed" and "metrics": with --trace 0 the metrics are the "end_to_end"
metrics of BENCHMARK.json, with --trace 1 its "per_layer" metrics. The
traced run also writes its spans and per-layer counters under
.bench_build/perfbench-trace/.

The exit code is 0 only when every correctness check passed; a failed
check is named on standard output. --size tiny and --refuse exist for
perfbench/smoke.py.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
TRACE_DIR = os.path.join(BUILD_DIR, "perfbench-trace")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_definition():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "--display=quiet", "-j", "2", "./perfbench/bench.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        die("build failed (dune exit %d)" % p.returncode)


def main():
    spec = load_definition()
    ap = argparse.ArgumentParser(description="Run one workload of the repository benchmark.")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--refuse", type=int, default=0)
    a = ap.parse_args()

    build()
    os.makedirs(os.path.join(ROOT, TRACE_DIR), exist_ok=True)
    env = dict(os.environ)
    # The runtime's GC event ring (traced run only) lives beside the
    # spans; a larger ring survives the long event loops between polls.
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.join(ROOT, TRACE_DIR)
    env["OCAML_RUNTIME_EVENTS_LOG_WSIZE"] = "20"
    cmd = [os.path.join(ROOT, EXE), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace), "--size", a.size,
           "--refuse", str(a.refuse), "--out", os.path.join(ROOT, TRACE_DIR)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("bench.exe did not finish within %d s" % RUN_TIMEOUT_S)
    lines = p.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(p.stderr)
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("bench.exe exited with %d and printed no result" % p.returncode)

    # The program's own gate (operations accounted, audits, shutdown,
    # determinism), then the check that every metric BENCHMARK.json
    # names was measured with its unit.
    failures = list(out["violations"])
    if p.returncode not in (0, 1) or (p.returncode == 0) != (failures == []):
        failures.append("bench.exe exit code %d disagrees with its result" % p.returncode)
    if out["attempted"] < 1:
        failures.append("no operation attempted")
    kind = "per_layer" if a.trace else "end_to_end"
    measured = out[kind]
    metrics = {}
    for m in spec[kind]:
        got = measured.get(m["name"])
        if got is None:
            failures.append("metric %s was not measured" % m["name"])
            continue
        if got["unit"] != m["unit"]:
            failures.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (m["name"], got["unit"], m["unit"]))
        v = got["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            failures.append("metric %s is not a finite number" % m["name"])
        elif kind == "end_to_end" and v <= 0:
            failures.append("end-to-end metric %s is %r, not positive" % (m["name"], v))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    for f in failures:
        print("CHECK FAILED: " + f)
    print(json.dumps({"correct": not failures, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
