#!/usr/bin/env python3
"""Selftest for check_sim_equivalence.py's self-describing-JSON contract.

Runs as a ctest entry (check_sim_equivalence_selftest). The properties
pinned down here are the ones CI leans on:

  * equal runs pass, including `perf` keys that differ;
  * a diverged `sim` key fails, per point and at the top level;
  * every case the "classes" map cannot vouch for fails loudly: no map,
    unequal maps, a key without a class, an unknown class, a key missing
    from a point, a classified key written nowhere, unequal point counts.

Which real sweep column carries which class is pinned against real
scale_sweep output by tools/sweep_gate_test.py.
"""
import io
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check_sim_equivalence import check_runs  # noqa: E402

CLASSES = {
    "bench": "sim",
    "seed": "sim",
    "threads": "perf",
    "reconverged_h": "sim",
    "n": "sim",
    "restore_s": "perf",
    "warmup_s": "perf",
    "view_digest": "sim",
    "mean_degree": "sim",
}


def point(**overrides):
    p = {
        "n": 2000,
        "restore_s": 0.0,
        "warmup_s": 2.0,
        "view_digest": 0xDEADBEEF,
        "mean_degree": 21.5,
    }
    p.update(overrides)
    return p


def run(points=None, classes=None, **overrides):
    r = {
        "bench": "chaos_sweep",
        "seed": 20070101,
        "threads": 1,
        "reconverged_h": 3.0,
        "classes": dict(CLASSES if classes is None else classes),
        "points": [point()] if points is None else points,
    }
    r.update(overrides)
    return r


def check(a, b, **kwargs):
    out = io.StringIO()
    failures = check_runs(a, b, out=out, **kwargs)
    return failures, out.getvalue()


class CheckRunsTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        failures, log = check(run(), run())
        self.assertEqual(failures, 0, log)

    def test_perf_keys_may_differ(self):
        # The checkpoint gate's exact shape: one side restored (restore_s
        # > 0, warmup_s = 0, different thread count), same statistics.
        fresh = run([point(warmup_s=40.0, restore_s=0.0)], threads=1)
        restored = run([point(warmup_s=0.0, restore_s=3.5)], threads=8)
        failures, log = check(fresh, restored)
        self.assertEqual(failures, 0, log)

    def test_diverged_point_sim_key_fails(self):
        failures, log = check(run(), run([point(view_digest=0xBADF00D)]))
        self.assertEqual(failures, 1)
        self.assertIn("point 0: 'view_digest' diverged", log)

    def test_diverged_top_level_sim_key_fails(self):
        # Time-to-reconvergence is a simulation result: two thread
        # counts disagreeing on it is a loud failure.
        failures, log = check(run(), run(reconverged_h=3.5))
        self.assertEqual(failures, 1)
        self.assertIn("top level: 'reconverged_h' diverged", log)

    def test_missing_classes_fails(self):
        bare = run()
        del bare["classes"]
        failures, log = check(run(), bare)
        self.assertEqual(failures, 1)
        self.assertIn("no \"classes\" map", log)
        failures, _ = check(bare, dict(bare))
        self.assertEqual(failures, 2)

    def test_mismatched_classes_fails(self):
        failures, log = check(
            run(), run(classes=dict(CLASSES, view_digest="perf"))
        )
        self.assertEqual(failures, 1)
        self.assertIn("maps differ on view_digest (sim vs perf)", log)

    def test_unclassified_key_fails(self):
        failures, log = check(run([point(brand_new_column=7)]), run())
        self.assertGreaterEqual(failures, 1)
        self.assertIn("key 'brand_new_column' has no class", log)
        failures, log = check(run(extra_field=1), run(extra_field=1))
        self.assertEqual(failures, 1)
        self.assertIn("key 'extra_field' has no class", log)

    def test_unknown_class_fails(self):
        knob = dict(CLASSES, n="knob")
        failures, log = check(run(classes=knob), run(classes=knob))
        self.assertEqual(failures, 1)
        self.assertIn("key 'n' has unknown class 'knob'", log)

    def test_missing_key_fails(self):
        b = point()
        del b["mean_degree"]
        failures, log = check(run(), run([b]))
        self.assertEqual(failures, 1)
        self.assertIn("point 0: key 'mean_degree' missing from run(s) B", log)
        top = run()
        del top["reconverged_h"]
        failures, log = check(top, run())
        self.assertEqual(failures, 1)
        self.assertIn("top level: key 'reconverged_h' missing", log)

    def test_classified_key_written_nowhere_fails(self):
        ghost = dict(CLASSES, dropped_column="sim")
        failures, log = check(run(classes=ghost), run(classes=ghost))
        self.assertEqual(failures, 1)
        self.assertIn("'dropped_column' is missing from both runs", log)

    def test_point_count_mismatch_fails(self):
        failures, log = check(run([point(), point()]), run())
        self.assertEqual(failures, 1)
        self.assertIn("point count differs: 2 vs 1", log)

    def test_bench_mismatch_fails(self):
        failures, log = check(run(), run(bench="scale_sweep"))
        self.assertEqual(failures, 1)
        self.assertIn("bench mismatch", log)

    def test_mean_degree_floor(self):
        low = run([point(mean_degree=3.0)])
        failures, log = check(low, low, min_mean_degree=10.0)
        self.assertEqual(failures, 2)  # both runs below the floor
        self.assertIn("convergence floor", log)


if __name__ == "__main__":
    unittest.main()
