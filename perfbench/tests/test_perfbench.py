#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark through run.py (first run compiles the library) and
runs every workload for about a second.  Checks the metric catalogue
against BENCHMARK.json, that every metric is emitted with its unit on
every workload in both modes, that two runs at one seed give identical
simulated digests, that the output checks pass at a held-out seed, and
that an over-U_max set on busy_tcma32 trips the admission check.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SIMULATED = ("rt_latency_mean_us", "rt_latency_conn_max_us", "admitted_u",
             "goodput_mbps")
HELD_OUT_SEED = 7919
SHORT_S = "1"

_cache = {}


def run_bench(workload, seed=1, trace=0, extra=()):
    """Runs one short benchmark invocation; memoised per argument set."""
    key = (workload, seed, trace, tuple(extra))
    if key not in _cache:
        cmd = [sys.executable, RUN, "--workload", workload, "--seed",
               str(seed), "--seconds", SHORT_S, "--trace", str(trace)]
        cmd += list(extra)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        _cache[key] = (proc.returncode, lines, result, proc.stderr)
    return _cache[key]


def digest_of(lines):
    return [l.split()[1] for l in lines if l.startswith("digest ")][0]


class BenchmarkSpec(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def test_metric_names_and_units_are_well_formed(self):
        names = []
        for group in ("end_to_end", "per_layer"):
            for m in self.spec[group]:
                self.assertRegex(m["name"], NAME_RE)
                self.assertRegex(m["unit"], UNIT_RE)
                self.assertIn(m["better"], ("higher", "lower"))
                names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")

    def check_emitted(self, workload, trace):
        code, lines, result, err = run_bench(workload, trace=trace)
        self.assertEqual(code, 0, "%s trace=%d failed:\n%s\n%s" %
                         (workload, trace, "\n".join(lines[-30:]), err))
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        group = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in self.spec[group]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            got = result["metrics"][name]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], unit, name)
            self.assertIsInstance(got["value"], (int, float))
            self.assertRegex(name, NAME_RE)
            # The human-readable table carries the sample count.
            row = [l for l in lines if l.startswith("metric %s " % name)]
            self.assertEqual(len(row), 1, name)
            self.assertRegex(row[0], r"samples=\d+$")
        if not trace:
            for name, got in result["metrics"].items():
                self.assertGreater(got["value"], 0, name)
        env = json.loads([l for l in lines if l.startswith('{"env"')][0])
        for key in ("nproc", "workers", "compiler", "build_type",
                    "host_times_comparable", "samples"):
            self.assertIn(key, env["env"])

    def test_every_metric_emitted_with_unit(self):
        for workload in self.workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_emitted(workload, trace)

    def test_traced_run_writes_spans_for_every_layer_call(self):
        expected = {
            "busy_tcma32": {"generate", "construct", "open_connection",
                            "run_slots"},
            "faults16": {"generate", "construct", "open_connection",
                         "attach_injector", "attach_monitor", "run_slots",
                         "first_idle_fault_slot"},
            "sweep_mixed": {"grid_setup", "run_sweep", "to_json",
                            "run_shard", "construct", "open_connection"},
        }
        for workload, names in expected.items():
            with self.subTest(workload=workload):
                code, lines, _, _ = run_bench(workload, trace=1)
                self.assertEqual(code, 0)
                path = [l.split(" -> ")[1] for l in lines
                        if l.startswith("spans ")][0]
                with open(path) as f:
                    spans = [json.loads(l) for l in f]
                self.assertTrue(names <= {s["name"] for s in spans})
                for s in spans:
                    self.assertLessEqual(s["start_ns"], s["end_ns"])
                    self.assertIn("parent", s)
                    self.assertIn("run", s)

    def test_same_seed_gives_identical_digest(self):
        for workload in ("busy_tcma32", "faults16", "sweep_mixed"):
            with self.subTest(workload=workload):
                code_a, lines_a, res_a, _ = run_bench(workload, seed=3)
                code_b, lines_b, res_b, _ = run_bench(workload, seed=3,
                                                      trace=1)
                self.assertEqual((code_a, code_b), (0, 0))
                self.assertEqual(digest_of(lines_a), digest_of(lines_b))
                _, lines_c, res_c, _ = run_bench(workload, seed=4)
                self.assertNotEqual(digest_of(lines_a), digest_of(lines_c))
                for name in SIMULATED:
                    row_a = [l for l in lines_a
                             if l.startswith("metric %s " % name)]
                    row_b = [l for l in lines_b
                             if l.startswith("metric %s " % name)]
                    self.assertEqual(row_a, row_b, name)

    def test_checks_pass_at_held_out_seed(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                code, lines, result, _ = run_bench(workload,
                                                   seed=HELD_OUT_SEED)
                self.assertEqual(code, 0, "\n".join(lines[-20:]))
                self.assertTrue(result["correct"])

    def test_over_umax_set_trips_admission_check(self):
        code, lines, result, _ = run_bench("busy_tcma32",
                                           extra=("--load", "1.2"))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertTrue(any(l.startswith("CHECK FAILED: busy_tcma32: "
                                         "admitted") for l in lines))


if __name__ == "__main__":
    unittest.main()
