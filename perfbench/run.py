#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload busy_tcma32 --seed 1 --seconds 20 --trace 0

Run from the repository root (or anywhere: paths resolve against this
file).  The build goes to $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, as a Release build of the library plus the
perfbench binary; later runs rebuild incrementally.  The binary's stdout
passes through unchanged, so its last line is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is the
binary's (0 only when every output check passed).  With --trace 1 the
spans are written to <build>/traces/<workload>-seed<seed>.jsonl.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("busy_tcma32", "busy_planner32", "faults16", "sweep_mixed")
BUILD_TIMEOUT_S = 850
# A run measures for --seconds plus at most one engine cell or sweep pass
# and the traced replays; anything near the 180 s limit is a hang.
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def run_logged(cmd, timeout):
    """Runs a build step; on failure echoes its output to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no library sources at %s/src\n" % ROOT)
        return None
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        # Serialise concurrent runs sharing one build tree.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if not run_logged(cmd, BUILD_TIMEOUT_S):
                return None
        if not run_logged(["cmake", "--build", bdir, "--target", "perfbench",
                           "-j", jobs], BUILD_TIMEOUT_S):
            return None
    return os.path.join(bdir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--load", type=float, default=0.0,
                    help="offered load as a fraction of U_max (engine "
                         "workloads; 0 keeps the workload's own)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    bdir = build_dir()
    try:
        binary = build(bdir)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        binary = None
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.load:
        cmd += ["--load", repr(args.load)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
