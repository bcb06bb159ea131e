#!/usr/bin/env python3
"""Selftest for detlint's check contract, run as a ctest entry
(detlint_selftest), mirroring tools/check_sim_equivalence_test.py.

The properties pinned down here are the ones CI leans on:

  * every seeded violation in the bad_* fixtures is detected, at least
    one per check family;
  * the clean fixture — which exercises every *legitimate* idiom the
    lint inspects (const plan methods, lane writers, Rng::stream draws,
    steady_clock timing, point queries) —
    produces zero findings, so the lint cannot rot into a
    false-positive firehose;
  * the suppressed fixture reports findings but zero unsuppressed ones,
    both same-line and preceding-line allow() placements work, and an
    allow() WITHOUT a justification does not suppress;
  * an unused allow() is itself a finding (stale suppressions are loud);
  * the CLI contract: exit 1 on findings, exit 0 on clean, --format json
    is machine-readable.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "selftest" / "fixtures"

sys.path.insert(0, str(HERE))

import detlint  # noqa: E402


def lint(*names):
    files = sorted(FIXTURES / n for n in names)
    return detlint.run_checks(detlint.analyze(FIXTURES, files))


def active(findings):
    return [f for f in findings if not f.suppressed]


def by_check(findings, check):
    return [f for f in findings if f.check == check]


class PlanPurityTest(unittest.TestCase):
    def setUp(self):
        self.findings = lint("bad_plan_purity.cpp")

    def test_nonconst_plan_method_without_lane_param(self):
        hits = by_check(active(self.findings), "plan-purity")
        self.assertTrue(any("planDrift" in f.message for f in hits),
                        [f.text() for f in self.findings])

    def test_send_from_plan_body(self):
        hits = by_check(active(self.findings), "plan-purity")
        self.assertTrue(any("planProbe" in f.message and "send" in f.message
                            for f in hits))

    def test_send_from_worker_pool_plan_callback(self):
        hits = by_check(active(self.findings), "plan-purity")
        self.assertTrue(any("planOne" in f.message for f in hits))

    def test_lane_writer_and_const_reader_pass(self):
        hits = by_check(active(self.findings), "plan-purity")
        self.assertFalse(any("planExchange" in f.message for f in hits))
        self.assertFalse(any("planLook" in f.message for f in hits))


class NondetSourceTest(unittest.TestCase):
    def setUp(self):
        self.findings = lint("bad_nondet.cpp")

    def test_every_banned_source_is_flagged(self):
        msgs = " ".join(f.message for f in
                        by_check(active(self.findings), "nondet-source"))
        for needle in ("rand", "random_device", "system_clock", "time()",
                       "mt19937_64"):
            self.assertIn(needle, msgs, msgs)

    def test_unordered_iteration_flagged(self):
        hits = by_check(active(self.findings), "unordered-iter")
        self.assertGreaterEqual(len(hits), 2)  # range-for and begin()

    def test_unordered_member_needs_justification(self):
        hits = by_check(active(self.findings), "unordered-state")
        self.assertTrue(any("latencies" in f.message for f in hits))

    def test_allow_without_justification_does_not_suppress(self):
        # The fixture's range-for carries "detlint: allow(unordered-iter)"
        # with no justification text — it must stay unsuppressed.
        hits = by_check(active(self.findings), "unordered-iter")
        self.assertTrue(any("range-for" in f.message for f in hits))


class RngStreamTest(unittest.TestCase):
    def setUp(self):
        self.findings = lint("bad_rng_stream.cpp")

    def test_raw_construction_in_plan_path(self):
        hits = by_check(active(self.findings), "rng-stream")
        self.assertTrue(any("planPickRaw" in f.message for f in hits),
                        [f.text() for f in self.findings])

    def test_fork_in_plan_path(self):
        hits = by_check(active(self.findings), "rng-stream")
        self.assertTrue(any("planPickFork" in f.message for f in hits))

    def test_member_draw_in_plan_path(self):
        hits = by_check(active(self.findings), "rng-stream")
        self.assertTrue(any("planPickMember" in f.message for f in hits))

    def test_stream_draws_and_commit_draws_pass(self):
        hits = by_check(active(self.findings), "rng-stream")
        self.assertFalse(any("planPickStream" in f.message for f in hits))
        self.assertFalse(any("commitPick" in f.message for f in hits))


class CleanFixtureTest(unittest.TestCase):
    def test_clean_tu_has_zero_findings(self):
        findings = lint("clean.cpp")
        self.assertEqual([f.text() for f in findings], [])


class SuppressionTest(unittest.TestCase):
    def setUp(self):
        self.findings = lint("suppressed.cpp")

    def test_zero_unsuppressed_findings(self):
        self.assertEqual([f.text() for f in active(self.findings)], [])

    def test_violations_still_reported_as_suppressed(self):
        sup = [f for f in self.findings if f.suppressed]
        self.assertGreaterEqual(len(sup), 3)
        for f in sup:
            self.assertTrue(f.justification, f.text())

    def test_both_placements_work(self):
        checks = {f.check for f in self.findings if f.suppressed}
        self.assertIn("unordered-state", checks)  # same-line
        self.assertIn("unordered-iter", checks)   # preceding-line

    def test_unused_allow_is_a_finding(self):
        src = FIXTURES / "suppressed.cpp"
        text = src.read_text()
        stale = text + ("\n// detlint: allow(nondet-source) stale\n"
                        "inline int nothingHere() { return 0; }\n")
        tmp = FIXTURES.parent / "tmp_unused_allow.cpp"
        tmp.write_text(stale)
        try:
            findings = detlint.run_checks(
                detlint.analyze(FIXTURES.parent, [tmp]))
            self.assertTrue(any(f.check == "unused-allow"
                                for f in active(findings)),
                            [f.text() for f in findings])
        finally:
            tmp.unlink()


class CliContractTest(unittest.TestCase):
    def run_cli(self, *extra):
        return subprocess.run(
            [sys.executable, str(HERE / "detlint.py"),
             "--repo-root", str(FIXTURES),
             *extra],
            capture_output=True, text=True)

    def test_exit_one_on_findings_and_json_shape(self):
        r = self.run_cli("--paths", "bad_nondet.cpp", "--format", "json")
        self.assertEqual(r.returncode, 1, r.stderr)
        payload = json.loads(r.stdout)
        self.assertGreater(payload["unsuppressed"], 0)
        self.assertTrue(all({"path", "line", "check", "message"}
                            <= set(f) for f in payload["findings"]))

    def test_exit_zero_on_clean(self):
        r = self.run_cli("--paths", "clean.cpp")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_exit_zero_on_fully_suppressed(self):
        r = self.run_cli("--paths", "suppressed.cpp")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_summary_md_written(self):
        out = FIXTURES.parent / "tmp_summary.md"
        try:
            r = self.run_cli("--paths", "bad_nondet.cpp",
                             "--summary-md", str(out))
            self.assertEqual(r.returncode, 1)
            text = out.read_text()
            self.assertIn("nondet-source", text)
            self.assertIn("| location |", text)
        finally:
            if out.exists():
                out.unlink()

    def test_unknown_check_is_usage_error(self):
        r = self.run_cli("--check", "no-such-check")
        self.assertEqual(r.returncode, 2)


if __name__ == "__main__":
    unittest.main()
