#!/usr/bin/env python3
"""Exit-code tests of tools/perf_compare on synthetic perfbench/run.py output.

Each case writes run.py-style provenance and result lines for a parent and a
change side into temporary directories and checks the comparator's exit
code. Run directly or through ctest (the PerfCompare entry).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARE = os.path.join(ROOT, "tools", "perf_compare")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)
BASE = {m["name"]: 100.0 for m in BENCH["end_to_end"]}
BASE.update({"approx.set_range_ns_per_word": 20.0,
             "approx.banked_set_ns_per_word": 50.0,
             "approx.host_ns_per_access": 10.0,
             "refine.baseline_s": 0.2,
             "refine.refine_stage_s": 0.05,
             "sort.striped_speedup": 1.6})


def write_runs(directory, runs, workload="refine_radix_1m", trace=0):
    """runs: one (metric overrides, correct, failed) tuple per run; an
    override of None leaves the metric out."""
    os.makedirs(directory, exist_ok=True)
    for i, (overrides, correct, failed) in enumerate(runs):
        metrics = {name: {"value": value, "unit": "u"}
                   for name, value in {**BASE, **overrides}.items()
                   if value is not None}
        with open(os.path.join(directory, f"{workload}_t{trace}_{i}.out"),
                  "w", encoding="utf-8") as f:
            f.write(json.dumps({"provenance": {"workload": workload,
                                               "trace": trace}}) + "\n")
            f.write(json.dumps({"correct": correct, "attempted": 4,
                                "failed": failed, "metrics": metrics}) + "\n")


def clean(overrides_per_run):
    return [(overrides, True, 0) for overrides in overrides_per_run]


class PerfCompareTest(unittest.TestCase):
    def compare(self, parent, change, **kwargs):
        with tempfile.TemporaryDirectory() as tmp:
            write_runs(os.path.join(tmp, "parent"), parent, **kwargs)
            write_runs(os.path.join(tmp, "change"), change, **kwargs)
            return subprocess.run(
                [sys.executable, COMPARE, os.path.join(tmp, "parent"),
                 os.path.join(tmp, "change")],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                check=False).returncode

    def test_identical_sides_pass(self):
        runs = clean([{}] * 5)
        self.assertEqual(self.compare(runs, runs), 0)

    def test_throughput_drop_beyond_floor_and_mad_fails(self):
        # Parent MAD is 1, so the band is 0.25 * 100 + 3 = 28 keys/s.
        parent = clean([{"keys_per_s": v} for v in (98, 99, 100, 101, 102)])
        change = clean([{"keys_per_s": 70.0}] * 5)
        self.assertEqual(self.compare(parent, change), 1)

    def test_noisy_drop_within_band_passes(self):
        # Parent MAD is 10, so the band is 25 + 30 = 55; a 40 drop is noise.
        parent = clean([{"keys_per_s": v} for v in (80, 90, 100, 110, 120)])
        change = clean([{"keys_per_s": 60.0}] * 5)
        self.assertEqual(self.compare(parent, change), 0)

    def test_write_cost_ratio_beyond_its_bound_fails(self):
        change = clean([{"write_cost_ratio": 116.0}] * 5)
        self.assertEqual(self.compare(clean([{}] * 5), change), 1)

    def test_write_cost_ratio_within_its_bound_passes(self):
        change = clean([{"write_cost_ratio": 114.0}] * 5)
        self.assertEqual(self.compare(clean([{}] * 5), change), 0)

    def test_incorrect_run_fails_on_either_side(self):
        bad = [({}, False, 0)] + clean([{}] * 4)
        self.assertEqual(self.compare(bad, clean([{}] * 5)), 1)
        self.assertEqual(self.compare(clean([{}] * 5), bad), 1)

    def test_failed_operations_fail_on_either_side(self):
        bad = [({}, True, 1)] + clean([{}] * 4)
        self.assertEqual(self.compare(bad, clean([{}] * 5)), 1)
        self.assertEqual(self.compare(clean([{}] * 5), bad), 1)

    def test_fewer_than_five_runs_are_refused(self):
        self.assertNotEqual(self.compare(clean([{}] * 4), clean([{}] * 5)), 0)
        self.assertNotEqual(self.compare(clean([{}] * 5), clean([{}] * 4)), 0)

    def test_traced_runs_gate_the_per_layer_kernel_and_speedup(self):
        slower = clean([{"approx.set_range_ns_per_word": 22.5}] * 5)
        self.assertEqual(self.compare(clean([{}] * 5), slower, trace=1), 1)
        less_parallel = clean([{"sort.striped_speedup": 1.4}] * 5)
        self.assertEqual(
            self.compare(clean([{}] * 5), less_parallel, trace=1), 1)
        # Other per-layer metrics are printed by run.py but not gated.
        parent = clean([{"approx.set_ns_per_word": 10.0}] * 5)
        scalar = clean([{"approx.set_ns_per_word": 1e6}] * 5)
        self.assertEqual(self.compare(parent, scalar, trace=1), 0)


    def test_traced_runs_gate_the_banked_write_kernel(self):
        # Band: 0.10 * 50 + 3 * MAD(0) = 5 ns/word.
        slower = clean([{"approx.banked_set_ns_per_word": 55.5}] * 5)
        self.assertEqual(self.compare(clean([{}] * 5), slower, trace=1), 1)
        within = clean([{"approx.banked_set_ns_per_word": 54.5}] * 5)
        self.assertEqual(self.compare(clean([{}] * 5), within, trace=1), 0)
        # Untraced runs do not gate it: only end-to-end metrics count there.
        self.assertEqual(self.compare(clean([{}] * 5), slower, trace=0), 0)
        # A traced run that does not report it fails.
        missing = [({"approx.banked_set_ns_per_word": None}, True, 0)] * 5
        self.assertEqual(self.compare(clean([{}] * 5), missing, trace=1), 1)

    def test_traced_runs_gate_the_host_time_per_access(self):
        # Band: 0.10 * 10 + 3 * MAD(0) = 1 ns/access.
        slower = clean([{"approx.host_ns_per_access": 11.1}] * 5)
        self.assertEqual(self.compare(clean([{}] * 5), slower, trace=1), 1)
        within = clean([{"approx.host_ns_per_access": 10.9}] * 5)
        self.assertEqual(self.compare(clean([{}] * 5), within, trace=1), 0)
        missing = [({"approx.host_ns_per_access": None}, True, 0)] * 5
        self.assertEqual(self.compare(clean([{}] * 5), missing, trace=1), 1)

    def test_traced_runs_gate_the_precise_baseline_stage(self):
        # Band: 0.10 * 0.2 + 3 * MAD(0) = 0.02 s.
        slower = clean([{"refine.baseline_s": 0.221}] * 5)
        self.assertEqual(self.compare(clean([{}] * 5), slower, trace=1), 1)
        within = clean([{"refine.baseline_s": 0.219}] * 5)
        self.assertEqual(self.compare(clean([{}] * 5), within, trace=1), 0)
        missing = [({"refine.baseline_s": None}, True, 0)] * 5
        self.assertEqual(self.compare(clean([{}] * 5), missing, trace=1), 1)

    def test_traced_runs_gate_the_refine_stage(self):
        # Band: 0.10 * 0.05 + 3 * MAD(0) = 0.005 s.
        slower = clean([{"refine.refine_stage_s": 0.0551}] * 5)
        self.assertEqual(self.compare(clean([{}] * 5), slower, trace=1), 1)
        within = clean([{"refine.refine_stage_s": 0.0549}] * 5)
        self.assertEqual(self.compare(clean([{}] * 5), within, trace=1), 0)
        missing = [({"refine.refine_stage_s": None}, True, 0)] * 5
        self.assertEqual(self.compare(clean([{}] * 5), missing, trace=1), 1)


if __name__ == "__main__":
    unittest.main()
