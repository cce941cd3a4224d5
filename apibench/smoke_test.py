#!/usr/bin/env python3
"""Smoke test of every workload, in short windows.

    python3 apibench/smoke_test.py [workload ...]

Run from the repository root. For each workload it checks that:
  - the run reports correct answers and an error_rate of 0;
  - the knee falls inside the rate ladder (the first rung meets the latency
    limit and a later one misses it), for workloads that have a ladder;
  - two runs with the same seed print the same completion digest and the same
    simulated metrics, and a run with another seed prints another digest;
  - a traced run succeeds (its simulated results must equal the untraced
    reference window's, which the binary checks itself).
Exits non-zero when any check fails.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SIMULATED = ("p50_us", "p99_us", "p999_us", "server_cpu_ns_per_req")


def run(workload, seed, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    digest = knee = error_rate = None
    for line in lines:
        m = re.match(r"digest ([0-9a-f]+)\s+knee_in_ladder (\d)", line)
        if m:
            digest, knee = m.group(1), int(m.group(2))
        m = re.match(r"\s+error_rate\s+(\S+)", line)
        if m:
            error_rate = float(m.group(1))
    return p.returncode, result, digest, knee, error_rate, p.stdout + p.stderr


def check(workload, has_ladder):
    failures = []
    rc1, r1, d1, knee, err, out1 = run(workload, 1)
    rc2, r2, d2, _, _, _ = run(workload, 1)
    rc3, _, d3, _, _, _ = run(workload, 2)
    rct, rt, _, _, _, outt = run(workload, 1, trace=1)
    if rc1 != 0 or r1 is None or not r1["correct"]:
        failures.append("run failed or reported incorrect answers:\n" + out1[-3000:])
    if err != 0.0:
        failures.append("error_rate is %r, want 0" % err)
    if has_ladder and knee != 1:
        failures.append("knee is not inside the rate ladder")
    if d1 is None or d1 != d2:
        failures.append("same seed gave different digests (%s, %s)" % (d1, d2))
    if r1 and r2 and rc2 == 0:
        for name in SIMULATED:
            a, b = r1["metrics"][name]["value"], r2["metrics"][name]["value"]
            if a != b:
                failures.append("same seed gave different %s (%r, %r)" % (name, a, b))
    if rc3 != 0 or d3 is None or d3 == d1:
        failures.append("another seed did not give another digest (%s, %s)" % (d1, d3))
    if rct != 0 or rt is None or not rt["correct"]:
        failures.append("traced run failed:\n" + outt[-3000:])
    return failures


def main():
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    names = sys.argv[1:] or sorted(workloads)
    failed = False
    for name in names:
        failures = check(name, bool(workloads[name]["settings"].get("ladder")))
        print("%-16s %s" % (name, "ok" if not failures else "FAILED"))
        for f in failures:
            print("    " + f.replace("\n", "\n    "))
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
