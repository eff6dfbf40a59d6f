#!/usr/bin/env python3
"""Self-test for validate_bench_json.py (stdlib unittest).

Usage: python3 scripts/test_validate_bench_json.py
"""
import contextlib
import importlib.util
import io
import json
import os
import tempfile
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "validate_bench_json",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "validate_bench_json.py"),
)
validator = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(validator)


def stat(value):
    return {"count": 2, "mean": value, "stddev": 0.0, "min": value,
            "max": value}


def sweep_report(p50, p99, failed_shards=0):
    return {
        "report": "ccredf-sweep",
        "grid": {"slots": 100},
        "shards": 2,
        "failed_shards": failed_shards,
        "points": [
            {"metrics": {"recovery_gap_p50_us": stat(1.0),
                         "recovery_gap_p99_us": stat(2.0)}},
            {"metrics": {"recovery_gap_p50_us": stat(p50),
                         "recovery_gap_p99_us": stat(p99)}},
        ],
    }


class ValidateBenchJsonTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def valid(self, doc):
        path = os.path.join(self._dir.name, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        with contextlib.redirect_stderr(io.StringIO()):
            return validator.validate(path)

    def bench(self, metrics):
        return self.valid({"bench": "any", "metrics": metrics})

    def test_accepts_held_gates(self):
        self.assertTrue(self.bench({"miss_ratio": 0.0, "hardware_threads": 4,
                                    "gate:E1a": 1, "gate:E1b": 1}))

    def test_rejects_failed_gate(self):
        self.assertFalse(self.bench({"miss_ratio": 0.0, "gate:E1a": 1,
                                     "gate:E1b": 0}))

    def test_rejects_non_numeric_metric(self):
        self.assertFalse(self.bench({"miss_ratio": "0.0"}))
        self.assertFalse(self.bench({"miss_ratio": True}))

    def test_speedup_needs_hardware_threads(self):
        self.assertFalse(self.bench({"speedup_8t_vs_1t": 2.5}))
        self.assertTrue(self.bench({"speedup_8t_vs_1t": 2.5,
                                    "hardware_threads": 4}))

    def test_accepts_clean_sweep_report(self):
        self.assertTrue(self.valid(sweep_report(3.0, 4.0)))

    def test_rejects_sweep_report_with_failed_shards(self):
        self.assertFalse(self.valid(sweep_report(3.0, 4.0, failed_shards=1)))

    def test_rejects_sweep_point_with_p50_above_p99(self):
        self.assertFalse(self.valid(sweep_report(5.0, 4.0)))


if __name__ == "__main__":
    unittest.main()
