#!/usr/bin/env python3
"""detlint: determinism & plan-purity static analysis for the AVMEM tree.

Every guarantee the simulator makes — bit-identical runs at any thread
count and across checkpoint/restore — rests on
contracts that used to live only in review comments and expensive runtime
matrix jobs. detlint makes them static, enforced per commit:

  plan-purity      Plan-phase functions (``plan*`` methods, producers into
                   ``MaintenancePlan`` lanes, worker-pool plan callbacks)
                   must be ``const`` or write only their own lane buffer,
                   and must never touch ``Network::send*``-family APIs.
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
  rng-stream       Inside plan-phase functions all randomness must come
                   from counter-based ``Rng::stream(seed, salt, seq)``:
                   raw ``Rng`` construction, ``fork()`` and sequential
                   draws from member generators are flagged.

Function facts come from a self-contained lexer + structural parser, so
the verdicts depend on nothing installed on the host.

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
    "plan-purity": (
        "plan-phase functions must be read-only against shared state "
        "(const or lane-buffer writers) and must not send on the network"
    ),
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
    "rng-stream": (
        "plan-phase randomness must be counter-based Rng::stream(seed, "
        "salt, seq); raw construction, fork() and member-generator draws "
        "are order-dependent"
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
# Facts: functions, classes, members
# --------------------------------------------------------------------------


@dataclasses.dataclass
class FunctionFact:
    name: str              # unqualified
    qualname: str          # Class::name when known
    cls: str               # enclosing/owning class ("" for free functions)
    params: str            # parameter list text
    is_const: bool
    line: int              # 1-based line of the header
    body: str              # body text (blanked code), braces included
    body_line: int         # 1-based line the body starts on


@dataclasses.dataclass
class MemberFact:
    cls: str
    name: str
    type_text: str
    line: int


@dataclasses.dataclass
class FileFacts:
    path: Path
    rel: str
    text: str                      # raw text
    code: str                      # blanked code, same offsets
    code_lines: List[str]
    suppressions: List[Suppression]
    functions: List[FunctionFact]
    members: List[MemberFact]

    def line_of(self, offset: int) -> int:
        return self.code.count("\n", 0, offset) + 1


_QUALIFIER_TOKENS = {"const", "noexcept", "override", "final", "mutable",
                     "try", "&", "&&"}

_SCOPE_KEY_RE = re.compile(
    r"\b(namespace|class|struct|union|enum)\b(?:\s+(?:class|struct)\b)?"
    r"(?:\s+(?:alignas\s*\([^)]*\)|\[\[[^\]]*\]\]))*"
    r"\s*([A-Za-z_]\w*)?")


def _match_back_paren(code: str, close: int) -> int:
    """Index of the '(' matching code[close] == ')' (or -1)."""
    depth = 0
    for k in range(close, -1, -1):
        if code[k] == ")":
            depth += 1
        elif code[k] == "(":
            depth -= 1
            if depth == 0:
                return k
    return -1


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


def _segment_function_header(
        seg: str) -> Optional[Tuple[str, str, bool]]:
    """Parse a pre-'{' segment as a function header.

    Returns (name, params, is_const) or None. Handles constructor
    initializer lists (``Ctor(args) : a_(x), b_{y}``) by taking the first
    top-level parenthesized group as the parameter list.
    """
    # Find the first '(' at angle/paren depth 0 preceded by an identifier.
    depth_p = depth_a = 0
    first_open = -1
    k = 0
    while k < len(seg):
        ch = seg[k]
        if ch == "(":
            if depth_p == 0 and depth_a == 0:
                m = re.search(r"(~?[A-Za-z_][\w]*)\s*$",
                              seg[:k])
                if m and m.group(1) not in (
                        "if", "for", "while", "switch", "return",
                        "sizeof", "alignof", "decltype", "catch"):
                    first_open = k
                    break
            depth_p += 1
        elif ch == ")":
            depth_p -= 1
        elif ch == "<":
            depth_a += 1
        elif ch == ">":
            depth_a = max(0, depth_a - 1)
        k += 1
    if first_open == -1:
        return None
    close = _match_fwd(seg, first_open, "(", ")")
    if close == -1:
        return None
    params = seg[first_open + 1:close]
    # Name: longest qualified identifier ending right before '('.
    m = re.search(r"((?:[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*"
                  r"(?:\s*<[^<>]*>)?)\s*$", seg[:first_open])
    if not m:
        return None
    name = re.sub(r"\s+", "", m.group(1))
    trailer = seg[close + 1:]
    # Trailer may be qualifiers, a trailing return type, an initializer
    # list (": a_(x), b_{y}") or "= delete/default" (no body follows then,
    # but those end with ';' so we never get here).
    stripped = trailer.strip()
    is_const = bool(re.match(r"^const\b", stripped)) or \
        bool(re.search(r"\bconst\b(?!\s*[\w&*<])",
                       re.sub(r"->.*$", "", stripped)))
    if "=" in re.sub(r"(->.*$)|(:\s*.*$)", "", stripped):
        return None  # assignment/initializer, not a function header
    return name, params, is_const


def _builtin_extract(path: Path, rel: str) -> FileFacts:
    text = path.read_text(encoding="utf-8", errors="replace")
    code, comments = blank_noncode(text)
    code_lines = code.split("\n")
    sups = harvest_suppressions(comments, code_lines)

    functions: List[FunctionFact] = []
    members: List[MemberFact] = []

    # Scope walk: classify every top-level-ish '{'.
    # stack entries: (kind, name, brace_open_idx)
    stack: List[Tuple[str, str, int]] = []
    seg_start = 0
    i = 0
    n = len(code)

    def cls_path() -> str:
        names = [nm for kd, nm, _ in stack if kd in ("class",) and nm]
        return "::".join(names)

    def scan_members(body_a: int, body_b: int, cls: str) -> None:
        body = code[body_a:body_b]
        # Depth map: member declarations live at brace depth 0 of the
        # class body; anything deeper is a method body or a nested type
        # (scanned separately when its own brace closes).
        depth_at = [0] * len(body)
        d = 0
        for k, ch in enumerate(body):
            if ch == "{":
                d += 1
            elif ch == "}":
                d = max(0, d - 1)
            depth_at[k] = d if ch != "{" else d - 1
        for m in re.finditer(
                r"(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<",
                body):
            if depth_at[m.start()] != 0:
                continue
            close = _match_fwd(body, body.find("<", m.start()), "<", ">")
            if close == -1:
                continue
            rest = body[close + 1:]
            vm = re.match(r"\s*([A-Za-z_]\w*)\s*(?:;|=|\{)", rest)
            if not vm:
                continue
            line = code.count("\n", 0, body_a + m.start()) + 1
            members.append(MemberFact(
                cls, vm.group(1), body[m.start():close + 1], line))

    while i < n:
        c = code[i]
        if c == ";" and not stack or (c == ";" and stack and
                                      stack[-1][0] != "function"):
            seg_start = i + 1
            i += 1
            continue
        if c == "{":
            in_function = any(k == "function" for k, _, _ in stack)
            if in_function:
                stack.append(("block", "", i))
                i += 1
                seg_start = i
                continue
            seg = code[seg_start:i]
            km = None
            for m in _SCOPE_KEY_RE.finditer(seg):
                km = m  # last scope keyword in the segment wins
            header = _segment_function_header(seg)
            if km and km.group(1) == "namespace" and header is None:
                stack.append(("namespace", km.group(2) or "", i))
            elif km and km.group(1) in ("class", "struct", "union") and (
                    header is None or
                    # "struct Foo {" with no parens, or the keyword comes
                    # after any parens (e.g. alignas) — treat as a class.
                    km.start() > seg.rfind(")")):
                stack.append(("class", km.group(2) or "", i))
            elif km and km.group(1) == "enum":
                stack.append(("enum", km.group(2) or "", i))
            elif header is not None:
                name, params, is_const = header
                uq = name.split("::")[-1]
                owner = cls_path()
                if "::" in name:
                    owner = name.rsplit("::", 1)[0]
                qual = f"{owner}::{uq}" if owner else uq
                functions.append(FunctionFact(
                    name=uq, qualname=qual, cls=owner, params=params,
                    is_const=is_const,
                    line=code.count("\n", 0, seg_start + len(seg) -
                                    len(seg.lstrip())) + 1,
                    body="",  # filled when the brace closes
                    body_line=code.count("\n", 0, i) + 1))
                stack.append(("function", name, i))
            else:
                # Braced initializer at class/namespace scope (member
                # default init, array init) — skip it wholesale.
                j = _match_fwd(code, i, "{", "}")
                if j == -1:
                    j = n - 1
                i = j + 1
                seg_start = i
                continue
            i += 1
            seg_start = i
            continue
        if c == "}":
            if stack:
                kind, name, open_idx = stack.pop()
                if kind == "function":
                    # attach body to the most recent matching function
                    for f in reversed(functions):
                        if f.body == "" and f.body_line == \
                                code.count("\n", 0, open_idx) + 1:
                            f.body = code[open_idx:i + 1]
                            break
                elif kind == "class":
                    cls = "::".join(
                        [nm for kd, nm, _ in stack if kd == "class" and nm]
                        + ([name] if name else []))
                    scan_members(open_idx + 1, i, cls)
            i += 1
            seg_start = i
            continue
        i += 1

    # Unclosed functions (truncated file): drop empty bodies.
    functions = [f for f in functions if f.body]

    return FileFacts(path=path, rel=rel, text=text, code=code,
                     code_lines=code_lines, suppressions=sups,
                     functions=functions, members=members)


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

_PLAN_NAME_RE = re.compile(r"^plan[A-Z_]")
_SEND_RE = re.compile(r"\b(?:\w+(?:_|\b)\s*(?:\.|->)\s*)?"
                      r"(send\w*)\s*\(")
_LANE_PARAM_RE = re.compile(
    r"(\bMaintenancePlan\s*&)|(\b\w*(?:Plan|Group|Lane)\w*\s*&\s*\w+)|"
    r"(\blane\b)")
_CONST_PLAN_PARAM_RE = re.compile(r"const\s+MaintenancePlan\s*&")


def _plan_functions(ff: FileFacts) -> List[FunctionFact]:
    plans = []
    for f in ff.functions:
        if _PLAN_NAME_RE.match(f.name):
            plans.append(f)
        elif re.search(r"(?<!const )\bMaintenancePlan\s*&", f.params) and \
                not _CONST_PLAN_PARAM_RE.search(f.params):
            plans.append(f)
    return plans


def _body_line(ff: FileFacts, f: FunctionFact, m_start: int) -> int:
    return f.body_line + f.body.count("\n", 0, m_start)


def check_plan_purity(ff: FileFacts) -> List[Finding]:
    out: List[Finding] = []
    for f in _plan_functions(ff):
        if not f.is_const and f.cls:
            if not _LANE_PARAM_RE.search(f.params):
                out.append(Finding(
                    ff.rel, f.line, "plan-purity",
                    f"plan-phase method '{f.qualname}' is non-const and "
                    f"takes no lane/plan output parameter; plan phases "
                    f"run concurrently and may only write their own lane "
                    f"span"))
        for m in _SEND_RE.finditer(f.body):
            out.append(Finding(
                ff.rel, _body_line(ff, f, m.start()), "plan-purity",
                f"plan-phase function '{f.qualname}' calls "
                f"'{m.group(1)}' — network sends mutate shared wire "
                f"state and must happen in the serial commit phase"))
    # Worker-pool plan callbacks: lambdas named plan*.
    for f in ff.functions:
        for lm in re.finditer(
                r"\b(plan\w*)\s*=\s*\[[^\]]*\]\s*(?:\([^)]*\))?\s*\{",
                f.body):
            open_idx = f.body.find("{", lm.end() - 1)
            close = _match_fwd(f.body, open_idx, "{", "}")
            lam_body = f.body[open_idx:close + 1]
            for m in _SEND_RE.finditer(lam_body):
                out.append(Finding(
                    ff.rel, _body_line(ff, f, open_idx + m.start()),
                    "plan-purity",
                    f"worker-pool plan callback '{lm.group(1)}' calls "
                    f"'{m.group(1)}' — plan callbacks must not send"))
    return out


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
    decl_re = re.compile(
        r"(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")
    for m in decl_re.finditer(ff.code):
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


_RNG_CTOR_RE = re.compile(
    r"\b(?:sim\s*::\s*)?Rng\s+(\w+)\s*(\(|\{|=)")
_RNG_FORK_RE = re.compile(r"\.\s*fork\s*\(")
_RNG_MEMBER_DRAW_RE = re.compile(
    r"\b(\w*rng_?)\s*(?:\.|->)\s*"
    r"(next|uniform|below|between|chance|index|exponential|shuffle|"
    r"operator\(\))\s*[(<]")


def check_rng_stream(ff: FileFacts) -> List[Finding]:
    out: List[Finding] = []
    for f in _plan_functions(ff):
        for m in _RNG_CTOR_RE.finditer(f.body):
            tail = f.body[m.end() - 1:m.end() + 120]
            if "Rng::stream" in tail or "stream(" in tail.split(";")[0]:
                continue
            out.append(Finding(
                ff.rel, _body_line(ff, f, m.start()), "rng-stream",
                f"plan-phase function '{f.qualname}' constructs Rng "
                f"'{m.group(1)}' outside Rng::stream(seed, salt, seq); "
                f"sequential generators are draw-order-dependent"))
        for m in _RNG_FORK_RE.finditer(f.body):
            out.append(Finding(
                ff.rel, _body_line(ff, f, m.start()), "rng-stream",
                f"plan-phase function '{f.qualname}' calls fork() — "
                f"fork order is shared sequential state; derive a "
                f"counter stream instead"))
        for m in _RNG_MEMBER_DRAW_RE.finditer(f.body):
            if m.group(1) in ("rng", "rng_") and \
                    f"Rng {m.group(1)}" in f.body or \
                    re.search(r"\bRng\s+" + re.escape(m.group(1)) + r"\b",
                              f.body):
                continue  # draw from a local stream-derived generator
            out.append(Finding(
                ff.rel, _body_line(ff, f, m.start()), "rng-stream",
                f"plan-phase function '{f.qualname}' draws "
                f"'{m.group(1)}.{m.group(2)}()' from a member "
                f"generator — sequential draws depend on plan "
                f"execution order; use Rng::stream"))
    return out


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def discover_files(repo_root: Path, paths: Sequence[str],
                   compile_commands: Optional[Path]) -> List[Path]:
    roots = [repo_root / p for p in paths]
    files: Set[Path] = set()
    if compile_commands and compile_commands.exists():
        try:
            for entry in json.loads(compile_commands.read_text()):
                f = Path(entry["directory"], entry["file"]).resolve()
                if any(str(f).startswith(str(r.resolve()) + os.sep)
                       for r in roots):
                    files.add(f)
        except (ValueError, KeyError) as e:
            print(f"detlint: warning: unreadable compile_commands "
                  f"({e}); falling back to a glob", file=sys.stderr)
    # Headers never appear in compile_commands; sources might be missing
    # if the database is stale. Union with a glob so coverage is total.
    for root in roots:
        if root.is_file():
            files.add(root.resolve())
            continue
        for ext in SOURCE_EXTS:
            files.update(p.resolve() for p in root.rglob(f"*{ext}"))
    return sorted(files)


def analyze(repo_root: Path, files: Sequence[Path]) -> List[FileFacts]:
    return [_builtin_extract(path, os.path.relpath(path, repo_root))
            for path in files]


def run_checks(facts: List[FileFacts],
               only: Optional[Set[str]] = None) -> List[Finding]:
    findings: List[Finding] = []
    global_members = {mem.name for ff in facts for mem in ff.members}
    for ff in facts:
        findings += check_plan_purity(ff)
        findings += check_nondet_source(ff)
        findings += check_unordered(ff, global_members)
        findings += check_rng_stream(ff)
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
    ap.add_argument("--compile-commands", type=Path, default=None,
                    help="CMake-exported compile_commands.json (used for "
                         "the TU list; headers are always globbed)")
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
    cc = args.compile_commands
    if cc is None:
        candidate = repo_root / "build" / "compile_commands.json"
        cc = candidate if candidate.exists() else None

    files = discover_files(repo_root, args.paths, cc)
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
