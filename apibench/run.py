#!/usr/bin/env python3
"""Builds the benchmark (Release, in .bench_build/apibench) and runs one workload.

    python3 apibench/run.py --workload kv-zipf --seed 1 --seconds 10 --trace 0

Run from the repository root. The workload's calibrated settings (reference
rate, rate ladder, overload rate, latency limit, sizes) come from
apibench/workloads.json and are passed to the binary unchanged. The last line
of standard output is the binary's JSON result; build output goes to stderr.
Exit status is non-zero when the build fails, the workload is unknown, or any
answer, drain or determinism check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "apibench")


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    log_path = os.path.join(BUILD_DIR, "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD_DIR, "-j", "4"],
        ):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("apibench: build failed: %s\n" % " ".join(cmd))
                return None
    return os.path.join(BUILD_DIR, "apibench")


def workload_args(config, smoke):
    """The binary's --set arguments for one workload's settings."""
    settings = dict(config["settings"])
    if smoke:
        settings.update(config.get("smoke", {}))
    args = []
    for key, value in sorted(settings.items()):
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        args += ["--set", "%s=%s" % (key, value)]
    return args


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short windows, for the benchmark's own tests")
    opts = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if opts.workload not in workloads:
        sys.stderr.write("apibench: unknown workload %r (known: %s)\n"
                         % (opts.workload, ", ".join(sorted(workloads))))
        return 2
    binary = build()
    if binary is None:
        return 2

    cmd = [binary, "--workload", opts.workload, "--seed", str(opts.seed),
           "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "spans-%s.tsv" % opts.workload)]
    if opts.smoke:
        cmd.append("--smoke")
    cmd += workload_args(workloads[opts.workload], opts.smoke)
    sys.stdout.flush()
    return subprocess.run(cmd, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
