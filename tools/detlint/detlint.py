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
  unordered-iter   Iterating an ``unordered_map``/``unordered_set`` is
                   banned: iteration order is library/insertion dependent
                   and must never reach committed state, snapshot bytes or
                   ``--json`` stats. Point queries (find/emplace/count)
                   are fine.
  unordered-state  Declaring an unordered container as long-lived state
                   (a class member) requires a written justification that
                   its ordering never escapes.

Plan-phase purity is not linted: plan functions are const members that
see shared state only through const access, so the compiler rejects a
plan that mutates it (tests/core/plan_contract_test.cpp pins this).

Facts come from a self-contained lexer and a brace-matched class scan,
so the verdicts depend on nothing installed on the host.

Suppressions: ``// detlint: allow(<check>) <justification>`` on the same
line or the line above. The justification is mandatory; a bare allow()
does not suppress. Unused suppressions are themselves findings, so stale
allows cannot accumulate.

Exit status: 0 = no unsuppressed findings, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

# --------------------------------------------------------------------------
# Check registry
# --------------------------------------------------------------------------

CHECKS = {
    "nondet-source": (
        "banned nondeterminism source (std::rand, random_device, time(), "
        "system_clock, default-seeded <random> engine)"
    ),
    "unordered-iter": (
        "iteration over an unordered container (order is implementation- "
        "and insertion-dependent; must never reach committed state, "
        "snapshot bytes, or stats output)"
    ),
    "unordered-state": (
        "unordered container held as long-lived state; justify why its "
        "ordering never escapes (point queries only)"
    ),
    "unused-allow": (
        "a detlint allow() comment suppressed nothing; remove it or fix "
        "the check name"
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
    suppressed: bool = False
    justification: str = ""

    def text(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{self.check}]{tag} {self.message}"

    def as_json(self) -> dict:
        return dataclasses.asdict(self)


# --------------------------------------------------------------------------
# Lexing: comment/string blanking + suppression harvest
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Suppression:
    line: int           # line the comment sits on (1-based)
    checks: Tuple[str, ...]
    justification: str
    covers: Tuple[int, ...]  # line numbers this suppression applies to
    used: bool = False


_ALLOW_RE = re.compile(
    r"detlint:\s*allow\(\s*([\w-]+(?:\s*,\s*[\w-]+)*)\s*\)\s*(.*)")


def blank_noncode(text: str) -> Tuple[str, List[Tuple[int, str, bool]]]:
    """Blank comments and string/char literal contents with spaces.

    Returns (code, comments) where code has identical length and line
    structure, and comments is [(line_no, comment_text, line_had_code)].
    """
    out = list(text)
    comments: List[Tuple[int, str, bool]] = []
    n = len(text)
    i = 0
    line = 1
    line_had_code = False

    def blank(a: int, b: int) -> None:
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            line_had_code = False
            i += 1
            continue
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            comments.append((line, text[i:j], line_had_code))
            blank(i, j)
            i = j
            continue
        if c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            comments.append((line, text[i:j], line_had_code))
            blank(i, j)
            line += text.count("\n", i, j)
            line_had_code = False
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
                    line += text.count("\n", i, j)
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
            line_had_code = True
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
            line_had_code = True
            continue
        if not c.isspace():
            line_had_code = True
        i += 1
    return "".join(out), comments


def harvest_suppressions(
        comments: List[Tuple[int, str, bool]],
        code_lines: List[str]) -> List[Suppression]:
    sups: List[Suppression] = []
    for line, comment, had_code in comments:
        m = _ALLOW_RE.search(comment)
        if not m:
            continue
        checks = tuple(c.strip() for c in m.group(1).split(","))
        justification = m.group(2).strip().rstrip("*/").strip()
        covers = [line]
        if not had_code:
            # Standalone comment line: covers the next line with code.
            for k in range(line, len(code_lines)):
                if code_lines[k].strip():
                    covers.append(k + 1)
                    break
        sups.append(Suppression(line, checks, justification, tuple(covers)))
    return sups


# --------------------------------------------------------------------------
# Facts: unordered-container class members
# --------------------------------------------------------------------------


@dataclasses.dataclass
class MemberFact:
    cls: str
    name: str
    type_text: str
    line: int


@dataclasses.dataclass
class FileFacts:
    rel: str
    code: str                      # blanked code, same offsets as the file
    suppressions: List[Suppression]
    members: List[MemberFact]

    def line_of(self, offset: int) -> int:
        return self.code.count("\n", 0, offset) + 1


# A class/struct/union definition up to its opening brace: keyword,
# attributes, optional name, optional ``final`` and base clause.
# ``enum class`` is captured (group 1) so it can be skipped; template
# parameters (``class T>``) and declarations (``class X;``) never reach
# a brace and do not match.
_CLASS_RE = re.compile(
    r"\b(enum\s+)?(?:class|struct|union)\b"
    r"(?:\s+(?:alignas\s*\([^)]*\)|\[\[[^\]]*\]\]))*"
    r"(?:\s+([A-Za-z_]\w*))?\s*(?:\bfinal\s*)?(?::[^;{}]*)?\{")
_UNORDERED_RE = re.compile(
    r"(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")


def _match_fwd(code: str, open_idx: int, open_c: str, close_c: str) -> int:
    depth = 0
    for k in range(open_idx, len(code)):
        if code[k] == open_c:
            depth += 1
        elif code[k] == close_c:
            depth -= 1
            if depth == 0:
                return k
    return -1


def _class_members(code: str) -> List[MemberFact]:
    """Unordered containers declared at the top level of a class body."""
    # (open brace, close brace, name) of every class body, outermost first.
    bodies: List[Tuple[int, int, str]] = []
    for m in _CLASS_RE.finditer(code):
        if m.group(1):
            continue  # enum class / enum struct
        close = _match_fwd(code, m.end() - 1, "{", "}")
        if close != -1:
            bodies.append((m.end() - 1, close, m.group(2) or ""))
    members: List[MemberFact] = []
    for open_idx, close, name in bodies:
        cls = "::".join(nm for a, b, nm in bodies
                        if a <= open_idx and close <= b and nm)
        body = code[open_idx + 1:close]
        # Depth map: member declarations live at brace depth 0 of the
        # class body; anything deeper is a method body or a nested type
        # (scanned as its own body).
        depth_at = [0] * len(body)
        d = 0
        for k, ch in enumerate(body):
            if ch == "{":
                d += 1
            elif ch == "}":
                d = max(0, d - 1)
            depth_at[k] = d if ch != "{" else d - 1
        for m in _UNORDERED_RE.finditer(body):
            if depth_at[m.start()] != 0:
                continue
            end = _match_fwd(body, body.find("<", m.start()), "<", ">")
            if end == -1:
                continue
            vm = re.match(r"\s*([A-Za-z_]\w*)\s*(?:;|=|\{)", body[end + 1:])
            if not vm:
                continue
            line = code.count("\n", 0, open_idx + 1 + m.start()) + 1
            members.append(MemberFact(
                cls, vm.group(1), body[m.start():end + 1], line))
    return members


def extract(path: Path, rel: str) -> FileFacts:
    text = path.read_text(encoding="utf-8", errors="replace")
    code, comments = blank_noncode(text)
    sups = harvest_suppressions(comments, code.split("\n"))
    return FileFacts(rel=rel, code=code, suppressions=sups,
                     members=_class_members(code))


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


def _unordered_names(ff: FileFacts) -> Dict[str, int]:
    """Identifiers declared with an unordered container type in this file
    (members, locals, params) -> declaration line."""
    names: Dict[str, int] = {}
    for mem in ff.members:
        names[mem.name] = mem.line
    for m in _UNORDERED_RE.finditer(ff.code):
        close = _match_fwd(ff.code, ff.code.find("<", m.start()), "<", ">")
        if close == -1:
            continue
        vm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={,)]",
                      ff.code[close + 1:])
        if vm:
            names.setdefault(vm.group(1),
                             ff.line_of(m.start()))
    return names


def check_unordered(ff: FileFacts,
                    global_members: Optional[Set[str]] = None
                    ) -> List[Finding]:
    out: List[Finding] = []
    names = _unordered_names(ff)
    # Members declared in headers are iterated from .cpp files: the name
    # set must span the whole scan, not just this file.
    for nm in global_members or ():
        names.setdefault(nm, 0)
    # Member declarations are long-lived state.
    for mem in ff.members:
        out.append(Finding(
            ff.rel, mem.line, "unordered-state",
            f"'{mem.cls or '<file>'}::{mem.name}' holds "
            f"{mem.type_text.split('<')[0].strip()} state; justify that "
            f"its iteration order never reaches committed state, "
            f"snapshot bytes, or stats"))
    if not names:
        return out
    alt = "|".join(re.escape(nm) for nm in sorted(names))
    # Range-for whose range expression ends in an unordered identifier.
    for m in re.finditer(
            r"\bfor\s*\([^;()]*?:\s*[\w.\->\[\]() ]*?\b(" + alt +
            r")\s*\)\s*", ff.code):
        out.append(Finding(
            ff.rel, ff.line_of(m.start()), "unordered-iter",
            f"range-for over unordered container '{m.group(1)}'"))
    # Explicit iterator walks / whole-container copies start at begin()
    # (bare end() in `find(k) != end()` point queries is fine).
    for m in re.finditer(
            r"\b(" + alt + r")\s*\.\s*(c?begin|rbegin)\s*\(",
            ff.code):
        out.append(Finding(
            ff.rel, ff.line_of(m.start()), "unordered-iter",
            f"'{m.group(1)}.{m.group(2)}()' exposes unordered iteration "
            f"order"))
    return out


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
    global_members = {mem.name for ff in facts for mem in ff.members}
    for ff in facts:
        findings += check_nondet_source(ff)
        findings += check_unordered(ff, global_members)
    if only:
        findings = [f for f in findings if f.check in only]

    # Apply suppressions.
    sup_index: Dict[Tuple[str, int], List[Suppression]] = {}
    for ff in facts:
        for s in ff.suppressions:
            for ln in s.covers:
                sup_index.setdefault((ff.rel, ln), []).append(s)
    for f in findings:
        for s in sup_index.get((f.path, f.line), []):
            if f.check in s.checks or "all" in s.checks:
                if not s.justification:
                    f.message += (" [allow() without justification — "
                                  "not suppressed]")
                    s.used = True
                    break
                f.suppressed = True
                f.justification = s.justification
                s.used = True
                break
    # Unused suppressions are findings themselves.
    for ff in facts:
        for s in ff.suppressions:
            if not s.used:
                findings.append(Finding(
                    ff.rel, s.line, "unused-allow",
                    f"allow({', '.join(s.checks)}) suppresses nothing "
                    f"on lines {list(s.covers)}"))
    findings.sort(key=lambda f: (f.path, f.line, f.check))
    return findings


def summary_md(findings: List[Finding], n_files: int) -> str:
    active = [f for f in findings if not f.suppressed]
    sup = [f for f in findings if f.suppressed]
    lines = [
        "## detlint findings",
        "",
        f"Files scanned: {n_files} · "
        f"unsuppressed: **{len(active)}** · suppressed: {len(sup)}",
        "",
    ]
    if active:
        lines += ["| location | check | finding |",
                  "| --- | --- | --- |"]
        for f in active:
            msg = f.message.replace("|", "\\|")
            lines.append(f"| `{f.path}:{f.line}` | `{f.check}` | {msg} |")
    else:
        lines.append("No unsuppressed findings.")
    if sup:
        lines += ["", "<details><summary>Suppressed findings "
                  f"({len(sup)})</summary>", "",
                  "| location | check | justification |",
                  "| --- | --- | --- |"]
        for f in sup:
            j = f.justification.replace("|", "\\|")
            lines.append(f"| `{f.path}:{f.line}` | `{f.check}` | {j} |")
        lines += ["", "</details>"]
    return "\n".join(lines) + "\n"


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
    ap.add_argument("--json-out", type=Path, default=None,
                    help="also write machine-readable findings here")
    ap.add_argument("--summary-md", type=Path, default=None,
                    help="write a GitHub job-summary markdown table here")
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

    facts = analyze(repo_root, files)
    findings = run_checks(facts,
                          set(args.check) if args.check else None)
    active = [f for f in findings if not f.suppressed]

    payload = {
        "files": len(files),
        "unsuppressed": len(active),
        "suppressed": len(findings) - len(active),
        "findings": [f.as_json() for f in findings],
    }
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        for f in findings:
            print(f.text())
        print(f"detlint: files={len(files)} "
              f"unsuppressed={len(active)} "
              f"suppressed={len(findings) - len(active)}")
    if args.json_out:
        args.json_out.write_text(json.dumps(payload, indent=2) + "\n")
    if args.summary_md:
        args.summary_md.write_text(
            summary_md(findings, len(files)))
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
