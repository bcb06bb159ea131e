#!/usr/bin/env python3
"""detlint: determinism static analysis for the AVMEM tree.

Every guarantee the simulator makes — bit-identical runs at any thread
count and across checkpoint/restore — rests on
contracts that used to live only in review comments and expensive runtime
matrix jobs. detlint makes the textual ones static, enforced per commit:

  nondet-source    ``std::rand``, ``std::random_device``, ``time()``,
                   ``std::chrono::system_clock`` and default-seeded
                   ``<random>`` engines are banned everywhere; all
                   randomness flows from ``sim::Rng``.
  unordered        ``unordered_{map,set,multimap,multiset}`` is banned
                   everywhere, as a type or an include: hash order is
                   library- and insertion-dependent, so the tree holds no
                   container that has one.

Plan-phase purity is not linted: plan functions are const members that
see shared state only through const access, so the compiler rejects a
plan that mutates it (tests/core/plan_contract_test.cpp pins this).

Facts come from a self-contained lexer that blanks comments and string
literals, so the verdicts depend on nothing installed on the host.
There is no suppression syntax: a finding is fixed, not justified.

Exit status: 0 = no findings, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

# --------------------------------------------------------------------------
# Check registry
# --------------------------------------------------------------------------

CHECKS = {
    "nondet-source": (
        "banned nondeterminism source (std::rand, random_device, time(), "
        "system_clock, default-seeded <random> engine)"
    ),
    "unordered": (
        "unordered container type or include (hash order is "
        "implementation- and insertion-dependent; use an ordered or "
        "index-addressed container)"
    ),
}

DEFAULT_PATHS = ("src", "bench")
SOURCE_EXTS = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h"}

# --------------------------------------------------------------------------
# Findings
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Finding:
    path: str
    line: int
    check: str
    message: str

    def text(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


# --------------------------------------------------------------------------
# Lexing: comment/string blanking
# --------------------------------------------------------------------------


def blank_noncode(text: str) -> str:
    """Blank comments and string/char literal contents with spaces.

    The result has identical length and line structure, so offsets map
    back to the file's lines.
    """
    out = list(text)
    n = len(text)
    i = 0

    def blank(a: int, b: int) -> None:
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            blank(i, j)
            i = j
            continue
        if c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            blank(i, j)
            i = j
            continue
        if c == '"':
            # Raw string literal? Look back for R / u8R / LR / uR / UR.
            m = re.search(r'(?:u8|[uUL])?R$', text[max(0, i - 3):i])
            if m:
                dend = text.find("(", i)
                if dend != -1:
                    delim = text[i + 1:dend]
                    close = ')' + delim + '"'
                    j = text.find(close, dend)
                    j = n if j == -1 else j + len(close)
                    blank(i + 1, j - 1)
                    i = j
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            blank(i + 1, j - 1)
            i = j
            continue
        if c == "'":
            prev = text[i - 1] if i > 0 else ""
            if prev.isdigit() or (prev.isalpha() and i + 1 < n and
                                  text[i + 1].isalnum() and
                                  prev not in "uUL"):
                # digit separator (1'000) — not a char literal
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            blank(i + 1, j - 1)
            i = j
            continue
        i += 1
    return "".join(out)


@dataclasses.dataclass
class FileFacts:
    rel: str
    code: str                      # blanked code, same offsets as the file

    def line_of(self, offset: int) -> int:
        return self.code.count("\n", 0, offset) + 1


def extract(path: Path, rel: str) -> FileFacts:
    text = path.read_text(encoding="utf-8", errors="replace")
    return FileFacts(rel=rel, code=blank_noncode(text))


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

_NONDET_PATTERNS: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"(?<![\w.>:])std\s*::\s*rand\b|(?<![\w.>:])s?rand\s*\("),
     "C rand()/srand() — use sim::Rng"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device is nondeterministic by design — use sim::Rng "
     "seeded from the experiment seed"),
    (re.compile(r"\bsystem_clock\b"),
     "wall-clock time is not part of the simulation; use sim::SimTime "
     "(steady_clock is allowed for host-perf counters only)"),
    (re.compile(r"(?<![\w.>:])(?:std\s*::\s*)?time\s*\(\s*(?:nullptr|NULL"
                r"|0|&\w+)?\s*\)"),
     "time() reads the wall clock — use sim::SimTime"),
    (re.compile(r"\b(mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
                r"ranlux\d+(?:_base)?|knuth_b)\s+\w+\s*;"),
     "default-seeded <random> engine — its seed is unspecified state; "
     "use sim::Rng (or at minimum seed it from the experiment seed)"),
]

_UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")


def check_nondet_source(ff: FileFacts) -> List[Finding]:
    out: List[Finding] = []
    for pat, why in _NONDET_PATTERNS:
        for m in pat.finditer(ff.code):
            line = ff.line_of(m.start())
            snippet = m.group(0).strip()
            out.append(Finding(
                ff.rel, line, "nondet-source",
                f"'{snippet}': {why}"))
    return out


def check_unordered(ff: FileFacts) -> List[Finding]:
    return [Finding(ff.rel, ff.line_of(m.start()), "unordered",
                    f"'{m.group(0)}': its iteration order is hash order")
            for m in _UNORDERED_RE.finditer(ff.code)]


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def discover_files(repo_root: Path, paths: Sequence[str]) -> List[Path]:
    files: Set[Path] = set()
    for root in (repo_root / p for p in paths):
        if root.is_file():
            files.add(root.resolve())
            continue
        for ext in SOURCE_EXTS:
            files.update(p.resolve() for p in root.rglob(f"*{ext}"))
    return sorted(files)


def analyze(repo_root: Path, files: Sequence[Path]) -> List[FileFacts]:
    return [extract(path, os.path.relpath(path, repo_root))
            for path in files]


def run_checks(facts: List[FileFacts],
               only: Optional[Set[str]] = None) -> List[Finding]:
    findings: List[Finding] = []
    for ff in facts:
        findings += check_nondet_source(ff)
        findings += check_unordered(ff)
    if only:
        findings = [f for f in findings if f.check in only]
    findings.sort(key=lambda f: (f.path, f.line, f.check))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="detlint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repo-root", type=Path,
                    default=Path(__file__).resolve().parents[2])
    ap.add_argument("--paths", nargs="*", default=list(DEFAULT_PATHS),
                    help="paths (relative to repo root) to scan")
    ap.add_argument("--check", action="append", default=None,
                    help="restrict to the named check (repeatable)")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        for name, desc in CHECKS.items():
            print(f"{name}: {desc}")
        return 0

    if args.check:
        unknown = set(args.check) - set(CHECKS)
        if unknown:
            print(f"detlint: unknown check(s): {sorted(unknown)}",
                  file=sys.stderr)
            return 2

    repo_root = args.repo_root.resolve()
    files = discover_files(repo_root, args.paths)
    if not files:
        print("detlint: no source files found", file=sys.stderr)
        return 2

    findings = run_checks(analyze(repo_root, files),
                          set(args.check) if args.check else None)
    if args.format == "json":
        json.dump({"files": len(files),
                   "findings": [dataclasses.asdict(f) for f in findings]},
                  sys.stdout, indent=2)
        print()
    else:
        for f in findings:
            print(f.text())
        print(f"detlint: files={len(files)} findings={len(findings)}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
