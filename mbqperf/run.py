#!/usr/bin/env python3
"""Builds and runs the closed-loop benchmark.

    python3 mbqperf/run.py --workload table2 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
program and the harness in Release under the build directory
($CARGO_TARGET_DIR when set, else .bench_build); later runs only rebuild
what changed. Build output goes to stderr. The harness prints the Table 1
counts, digests of the dataset and of the call lists, per-phase counts
and, as its last line, the JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table2", "tao_local", "ldbc_cluster2", "churn_wal")
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds; returns False on any failure."""
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("mbqperf: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "mbqperf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--mbqd", os.path.join(out, "mbqd"),
           "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The shard daemons die with the harness (PR_SET_PDEATHSIG).
        proc.kill()
        proc.wait()
        print("mbqperf: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
