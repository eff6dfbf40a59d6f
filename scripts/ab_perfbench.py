#!/usr/bin/env python3
"""Interleaved parent/change comparison on one perfbench workload.

    python3 scripts/ab_perfbench.py --workload faults16 --seed 1 \\
        --seconds 5 --pairs 10 [--base HEAD]

Extracts the commit `--base` (default HEAD) into a scratch directory with
`git archive`, so the repository's worktree list is left alone, and
compares it against the working tree.  Each side builds perfbench with
its own CARGO_TARGET_DIR under the scratch directory and runs once
untimed (the build, then a warm-up).  Then it runs
`perfbench/run.py --workload W --seed S --seconds T` for N pairs,
alternating which side goes first.

For every end-to-end metric that BENCHMARK.json lists, it prints each
side's median and quartiles, the ratio of the medians (change over
parent), how many pairs the change won (ties count for neither side) and
a verdict, taken in this order:

  unresolved    either side's interquartile range exceeds the metric's
                bound, as a fraction of that side's median, and not every
                run of the change beats every run of the parent
  gain          the change won at least 9 of 10 pairs and its median
                beats the parent's by more than the parent's
                interquartile range
  regression    the change's median is worse than the parent's by more
                than the metric's bound, as a fraction of the parent's
                median
  within bound  anything else: no gain shown, and no worse than the bound

The script only reports.  Its exit code is nonzero only when a build or
a run fails, never on a verdict, so nothing can gate on host timing.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def relative_spread(q1, med, q3):
    """Interquartile range as a fraction of the median."""
    iqr = q3 - q1
    if med == 0:
        return 0.0 if iqr == 0 else float("inf")
    return iqr / abs(med)


def compare(parent, change, better, bound):
    """Verdict for one metric over paired runs (parent[i] with change[i])."""
    if len(parent) != len(change) or not parent:
        raise ValueError("compare: need equally many runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = len(parent)
    gap = sign * (c_med - p_med)  # > 0: the change is better
    dominates = (min(sign * c for c in change) >
                 max(sign * p for p in parent))
    if not dominates and (relative_spread(p_q1, p_med, p_q3) > bound or
                          relative_spread(c_q1, c_med, c_q3) > bound):
        verdict = "unresolved"
    elif wins >= WIN_SHARE * pairs and gap > p_q3 - p_q1:
        verdict = "gain"
    elif -gap > bound * abs(p_med):
        verdict = "regression"
    else:
        verdict = "within bound"
    return {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "wins": wins,
        "pairs": pairs,
        "ratio": c_med / p_med if p_med else None,
        "verdict": verdict,
    }


def pair_order(i):
    """Which side runs first in pair i: alternates, parent first at 0."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def end_to_end_metrics(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def extract_base(base, dest):
    """Writes the tree of commit `base` into `dest` (git archive | untar)."""
    archive = os.path.join(dest, "base.tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "-C", ROOT, "archive", base], stdout=out,
                       check=True)
    tree = os.path.join(dest, "base")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    os.remove(archive)
    return tree


def run_once(root, target, args):
    """One perfbench run; returns {metric: value} or raises on failure."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("perfbench failed in %s (exit %d)" %
                           (root, proc.returncode))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def format_side(s):
    return "%.6g [%.6g, %.6g]" % (s["median"], s["q1"], s["q3"])


def format_ratio(ratio):
    return "n/a" if ratio is None else "%.3fx" % ratio


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--base", default="HEAD",
                    help="commit to compare the working tree against")
    ap.add_argument("--work-dir", default=None,
                    help="scratch directory (default: a fresh temp dir, "
                         "removed afterwards)")
    args = ap.parse_args()
    if args.pairs < MIN_PAIRS:
        ap.error("--pairs must be >= %d" % MIN_PAIRS)

    work = args.work_dir or tempfile.mkdtemp(prefix="ab_perfbench-")
    os.makedirs(work, exist_ok=True)
    try:
        roots = {"parent": extract_base(args.base, work), "change": ROOT}
        targets = {side: os.path.join(work, side + "-target")
                   for side in roots}
        for side in ("parent", "change"):
            run_once(roots[side], targets[side], args)  # build + warm-up
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in pair_order(i):
                runs[side].append(run_once(roots[side], targets[side], args))
    finally:
        if args.work_dir is None:
            shutil.rmtree(work, ignore_errors=True)

    print("%s seed %d, %d pairs of %g s, change vs %s" %
          (args.workload, args.seed, args.pairs, args.seconds, args.base))
    for m in end_to_end_metrics(ROOT):
        name = m["name"]
        if any(name not in r for r in runs["parent"] + runs["change"]):
            continue
        res = compare([r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]],
                      m["better"], m["bound"])
        print("%-24s parent %-36s change %-36s %-8s wins %2d/%d  %s" %
              (name, format_side(res["parent"]), format_side(res["change"]),
               format_ratio(res["ratio"]), res["wins"], res["pairs"],
               res["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
