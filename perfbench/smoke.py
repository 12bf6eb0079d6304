#!/usr/bin/env python3
"""Smoke test of the repository benchmark at tiny sizes.

    python3 perfbench/smoke.py

Run from the root of the repository. For every workload, untraced and
traced, it checks that run.py succeeds, prints every metric of
BENCHMARK.json by name with its unit, and that the program's own report
names every end-to-end metric, failed_ratio and op_p999_cycles included.
It then checks that refused operations (opening a service that does not
exist) are counted in "failed" and failed_ratio rather than crashing the
run. Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORTED = ["setup_s", "setup_alloc_mwords", "run_s", "peak_heap_mb", "alloc_mwords",
            "sim_makespan_cycles", "sim_cap_ops_per_s", "op_p50_cycles", "op_p99_cycles",
            "op_p999_cycles", "failed_ratio"]


def run(workload, trace, refuse=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny", "--refuse", str(refuse)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.splitlines()
    if not lines:
        fail("%s: no output (exit %d)\n%s" % (" ".join(cmd), p.returncode, p.stderr))
    return p.returncode, lines, json.loads(lines[-1])


def fail(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def reported(lines, name):
    """The value the human-readable report gives for a metric, with its unit."""
    for line in lines:
        m = re.match(r"\s+%s\s+(\S+) (\S+)" % re.escape(name), line)
        if m:
            return float(m.group(1)), m.group(2)
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, lines, res = run(w["name"], trace)
            if code != 0 or not res["correct"]:
                fail("%s trace %d: exit %d, result %s" % (w["name"], trace, code, lines[-1]))
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                fail("%s: result keys %s" % (w["name"], sorted(res)))
            kind = "per_layer" if trace else "end_to_end"
            for m in spec[kind]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    fail("%s trace %d: metric %s missing or wrong unit: %s"
                         % (w["name"], trace, m["name"], got))
            for name in REPORTED:
                if reported(lines, name) is None:
                    fail("%s: the report does not name %s" % (w["name"], name))
            if res["failed"] != 0 or reported(lines, "failed_ratio")[0] != 0:
                fail("%s: operations failed without any refused: %s" % (w["name"], lines[-1]))
        print("smoke: %s ok" % w["name"])

    # Refused operations count as failures, not as a crash.
    code, lines, res = run("sessions", 0, refuse=3)
    ratio = reported(lines, "failed_ratio")
    if code != 0 or res["failed"] != 3 or ratio is None or not ratio[0] > 0:
        fail("refused operations: exit %d, failed %s, failed_ratio %s"
             % (code, res.get("failed"), ratio))
    print("smoke: refused operations counted (failed_ratio %g)" % ratio[0])


if __name__ == "__main__":
    main()
