#!/usr/bin/env python3
"""Selftest for detlint's check contract, run as a ctest entry
(detlint_selftest), mirroring tools/check_sim_equivalence_test.py.

The properties pinned down here are the ones CI leans on:

  * every seeded violation in the bad_* fixtures is detected: each
    banned nondeterminism source, and an unordered container entering a
    TU as an include, an alias, a member, a parameter or a local;
  * the ban covers bench/ as well as src/;
  * the clean fixture — which exercises the *legitimate* idioms the lint
    inspects (steady_clock timing, banned names inside a comment and a
    string, ordered members) — produces zero findings, so the lint cannot
    rot into a false-positive firehose;
  * the CLI contract: exit 1 on findings, exit 0 on clean, --format json
    is machine-readable.
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "selftest" / "fixtures"

sys.path.insert(0, str(HERE))

import detlint  # noqa: E402


def lint(*names):
    files = sorted(FIXTURES / n for n in names)
    return detlint.run_checks(detlint.analyze(FIXTURES, files))


def by_check(findings, check):
    return [f for f in findings if f.check == check]


def run_cli(repo_root, *extra):
    return subprocess.run(
        [sys.executable, str(HERE / "detlint.py"),
         "--repo-root", str(repo_root), *extra],
        capture_output=True, text=True)


class NondetSourceTest(unittest.TestCase):
    def test_every_banned_source_is_flagged(self):
        msgs = " ".join(f.message for f in
                        by_check(lint("bad_nondet.cpp"), "nondet-source"))
        for needle in ("rand", "random_device", "system_clock", "time()",
                       "mt19937_64"):
            self.assertIn(needle, msgs, msgs)


class UnorderedBanTest(unittest.TestCase):
    def test_every_declaration_form_is_flagged(self):
        # Include, alias, member, parameter and local: each marked line
        # carries exactly one finding, and nothing else fires.
        text = (FIXTURES / "bad_unordered.cpp").read_text()
        marked = [n for n, line in enumerate(text.split("\n"), 1)
                  if "// VIOLATION" in line]
        self.assertEqual(len(marked), 5)
        findings = lint("bad_unordered.cpp")
        self.assertEqual([f.check for f in findings], ["unordered"] * 5,
                         [f.text() for f in findings])
        self.assertEqual([f.line for f in findings], marked)

    def test_bench_is_scanned(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = Path(tmp) / "bench"
            bench.mkdir()
            (bench / "micro.cpp").write_text(
                "#include <map>\n"
                "std::unordered_set<int> seen;\n")
            r = run_cli(tmp, "--format", "json")
        self.assertEqual(r.returncode, 1, r.stderr)
        found = [(f["path"], f["line"], f["check"])
                 for f in json.loads(r.stdout)["findings"]]
        self.assertEqual(found, [("bench/micro.cpp", 2, "unordered")])


class CleanFixtureTest(unittest.TestCase):
    def test_clean_tu_has_zero_findings(self):
        # The fixture names the banned type in a comment and a string.
        self.assertIn("unordered_map", (FIXTURES / "clean.cpp").read_text())
        findings = lint("clean.cpp")
        self.assertEqual([f.text() for f in findings], [])


class CliContractTest(unittest.TestCase):
    def test_exit_one_on_findings_and_json_shape(self):
        r = run_cli(FIXTURES, "--paths", "bad_nondet.cpp", "--format",
                    "json")
        self.assertEqual(r.returncode, 1, r.stderr)
        payload = json.loads(r.stdout)
        self.assertGreater(len(payload["findings"]), 0)
        self.assertTrue(all({"path", "line", "check", "message"}
                            <= set(f) for f in payload["findings"]))

    def test_exit_zero_on_clean(self):
        r = run_cli(FIXTURES, "--paths", "clean.cpp")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_check_filter(self):
        r = run_cli(FIXTURES, "--paths", "bad_unordered.cpp",
                    "--check", "nondet-source")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_unknown_check_is_usage_error(self):
        r = run_cli(FIXTURES, "--check", "no-such-check")
        self.assertEqual(r.returncode, 2)


if __name__ == "__main__":
    unittest.main()
