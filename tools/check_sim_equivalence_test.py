#!/usr/bin/env python3
"""Selftest for check_sim_equivalence.py's key-schema contract.

Runs as a ctest entry (check_sim_equivalence_selftest). The properties
pinned down here are the ones CI leans on:

  * equal runs pass, including keys in the ignore list differing;
  * a diverged invariant key fails;
  * a missing invariant key fails (schema drift is loud);
  * an UNCLASSIFIED key fails — every new scale_sweep column must be
    sorted into INVARIANT_KEYS or IGNORED_KEYS by hand;
  * restore_s / wall-clock keys are in the ignore list, so a
    checkpoint-restored run diffs clean against a fresh warm-up.
"""
import io
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check_sim_equivalence import (  # noqa: E402
    CHAOS_IGNORED_KEYS,
    CHAOS_INVARIANT_KEYS,
    IGNORED_KEYS,
    INVARIANT_KEYS,
    check_points,
    check_runs,
)


def point(**overrides):
    """A fully-populated scale_sweep point with sane defaults."""
    p = {
        "n": 2000,
        "backend": "markov",
        "trace_backend": "markov",
        "seed": 20070101,
        "threads": 1,
        "shuffle_period_s": 60,
        "shuffle_view_size": 64,
        "shuffle_gossip_length": 32,
        "feed_enabled": True,
        "feed_h_budget": 24,
        "feed_v_budget": 16,
        "model_mb": 1.5,
        "build_s": 0.4,
        "warmup_s": 2.0,
        "restore_s": 0.0,
        "warmup_sim_h": 0.5,
        "events": 123456,
        "events_per_s": 61728.0,
        "plan_s": 1.0,
        "commit_s": 0.5,
        "plan_share": 0.5,
        "plan_nodes_per_s": 1000.0,
        "plan_slot_p50_ms": 0.2,
        "plan_slot_p99_ms": 0.9,
        "maint_timers": 48,
        "completed_shuffles": 999,
        "view_digest": 0xDEADBEEF,
        "mean_degree": 21.5,
        "hs_degree": 9.75,
        "feed_candidates": 5000,
        "rejected": 12,
        "dropped_offline": 340,
        "ack_timeouts": 7,
        "duplicated": 0,
        "injected_drops": 0,
        "anycasts": 10,
        "delivered_fraction": 1.0,
        "batch_s": 0.01,
        "avail_backend": "avmon",
        "avmon_mae": 0.0123,
        "avmon_p99_err": 0.0456,
        "avmon_coverage": 1.0,
        "pings_sent": 88000,
        "pings_delivered": 80000,
        "ping_bytes": 3040000,
    }
    p.update(overrides)
    return p


def chaos_point(**overrides):
    """A fully-populated chaos_sweep sample with sane defaults."""
    p = {
        "t_h": 2.5,
        "delivered": 0.95,
        "mean_degree": 21.5,
        "view_digest": 0xDEADBEEF,
        "injected_drops": 4200,
        "duplicated": 800,
        "ack_timeouts": 95,
        "dropped_offline": 1234,
        "attack_sweeps": 12,
    }
    p.update(overrides)
    return p


def chaos_run(points, **overrides):
    """A chaos_sweep top-level run record."""
    r = {
        "bench": "chaos_sweep",
        "scenario": "chaos-outage",
        "seed": 20070101,
        "threads": 1,
        "floor": 0.9,
        "last_stage_end_h": 2.9,
        "reconverged_h": 3.0,
        "points": points,
    }
    r.update(overrides)
    return r


def run_check(a, b, **kwargs):
    out = io.StringIO()
    failures = check_points(a, b, out=out, **kwargs)
    return failures, out.getvalue()


class SchemaCoverageTest(unittest.TestCase):
    def test_every_default_key_is_classified(self):
        # The fixture mirrors the real scale_sweep schema; if it drifts
        # out of classification the checker itself would fail in CI.
        for key in point():
            self.assertTrue(
                key in INVARIANT_KEYS or key in IGNORED_KEYS,
                f"fixture key '{key}' unclassified",
            )

    def test_no_key_is_both_invariant_and_ignored(self):
        both = set(INVARIANT_KEYS) & IGNORED_KEYS
        self.assertFalse(both, f"keys in both lists: {both}")

    def test_identical_runs_pass(self):
        failures, _ = run_check([point()], [point()])
        self.assertEqual(failures, 0)

    def test_ignored_keys_may_differ(self):
        # The checkpoint gate's exact shape: one side restored (restore_s
        # > 0, warmup_s = 0, different thread count), same statistics.
        fresh = point(warmup_s=40.0, restore_s=0.0, threads=1)
        restored = point(
            warmup_s=0.0,
            restore_s=3.5,
            threads=8,
            events_per_s=0.0,
        )
        failures, _ = run_check([fresh], [restored])
        self.assertEqual(failures, 0)

    def test_diverged_invariant_key_fails(self):
        failures, log = run_check(
            [point()], [point(view_digest=0xBADF00D)]
        )
        self.assertEqual(failures, 1)
        self.assertIn("view_digest", log)

    def test_missing_invariant_key_fails(self):
        b = point()
        del b["events"]
        failures, log = run_check([point()], [b])
        self.assertEqual(failures, 1)
        self.assertIn("missing", log)

    def test_unclassified_key_fails_loudly(self):
        failures, log = run_check(
            [point(brand_new_column=7)], [point()]
        )
        self.assertGreaterEqual(failures, 1)
        self.assertIn("brand_new_column", log)
        self.assertIn("unclassified", log)

    def test_point_count_mismatch_fails(self):
        failures, _ = run_check([point(), point()], [point()])
        self.assertEqual(failures, 1)

    def test_mean_degree_floor(self):
        failures, log = run_check(
            [point(mean_degree=3.0)],
            [point(mean_degree=3.0)],
            min_mean_degree=10.0,
        )
        self.assertEqual(failures, 2)  # both runs below the floor
        self.assertIn("convergence floor", log)

    def test_restore_s_is_ignored_key(self):
        self.assertIn("restore_s", IGNORED_KEYS)
        self.assertNotIn("restore_s", INVARIANT_KEYS)

    def test_wire_failure_counters_are_invariant(self):
        # The fault-injection counters must be thread-invariant: a
        # campaign that drops different messages at different thread
        # counts is a determinism bug, not noise.
        for key in (
            "rejected",
            "dropped_offline",
            "ack_timeouts",
            "duplicated",
            "injected_drops",
        ):
            self.assertIn(key, INVARIANT_KEYS)

    def test_avmon_accuracy_columns_are_invariant(self):
        # AVMON accuracy and ping-overhead columns are simulation
        # results: a thread count changing the MAE or the ping bill is a
        # plan/commit determinism bug.
        for key in (
            "avail_backend",
            "avmon_mae",
            "avmon_p99_err",
            "avmon_coverage",
            "pings_sent",
            "pings_delivered",
            "ping_bytes",
        ):
            self.assertIn(key, INVARIANT_KEYS)
        failures, log = run_check(
            [point()], [point(avmon_mae=0.9)]
        )
        self.assertEqual(failures, 1)
        self.assertIn("avmon_mae", log)


class ChaosSchemaTest(unittest.TestCase):
    def run_runs(self, a, b, **kwargs):
        out = io.StringIO()
        failures = check_runs(a, b, out=out, **kwargs)
        return failures, out.getvalue()

    def test_every_chaos_fixture_key_is_classified(self):
        for key in chaos_point():
            self.assertTrue(
                key in CHAOS_INVARIANT_KEYS or key in CHAOS_IGNORED_KEYS,
                f"chaos fixture key '{key}' unclassified",
            )

    def test_identical_chaos_runs_pass(self):
        a = chaos_run([chaos_point()])
        b = chaos_run([chaos_point()], threads=8)  # threads may differ
        failures, _ = self.run_runs(a, b)
        self.assertEqual(failures, 0)

    def test_diverged_chaos_sample_fails(self):
        a = chaos_run([chaos_point()])
        b = chaos_run([chaos_point(injected_drops=9999)])
        failures, log = self.run_runs(a, b)
        self.assertEqual(failures, 1)
        self.assertIn("injected_drops", log)

    def test_diverged_reconvergence_fails(self):
        # Time-to-reconvergence is a simulation result: two thread
        # counts disagreeing on it is a loud failure.
        a = chaos_run([chaos_point()])
        b = chaos_run([chaos_point()], reconverged_h=3.5)
        failures, log = self.run_runs(a, b)
        self.assertEqual(failures, 1)
        self.assertIn("reconverged_h", log)

    def test_bench_mismatch_fails(self):
        a = chaos_run([chaos_point()])
        b = {"bench": "scale_sweep", "points": [point()]}
        failures, log = self.run_runs(a, b)
        self.assertEqual(failures, 1)
        self.assertIn("bench mismatch", log)

    def test_unknown_bench_fails(self):
        a = {"bench": "mystery_sweep", "points": []}
        failures, log = self.run_runs(a, dict(a))
        self.assertEqual(failures, 1)
        self.assertIn("mystery_sweep", log)


if __name__ == "__main__":
    unittest.main()
