#!/usr/bin/env python3
"""Byte-identity gate for the paper figures at smoke scale.

Usage: paper_figures_golden_test.py path/to/paper_figures GOLDEN

Runs every paper_figures row with AVMEM_FAST=1 (and no other AVMEM_*
variable) and compares its stdout with the committed GOLDEN file. Worlds
are deterministic per (config, seed), so any difference is a change in
what a figure reports; the first differing lines are printed. A change
that means to alter the figures regenerates GOLDEN with

    AVMEM_FAST=1 build/paper_figures > bench/testdata/paper_figures_fast.txt
"""
import difflib
import os
import subprocess
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, golden = sys.argv[1:]
    env = {k: v for k, v in os.environ.items() if not k.startswith("AVMEM_")}
    env["AVMEM_FAST"] = "1"
    out = subprocess.run([binary], env=env, stdout=subprocess.PIPE,
                         check=True).stdout.decode()
    with open(golden, encoding="utf-8") as f:
        want = f.read()
    if out == want:
        print(f"paper_figures output matches {golden}")
        return 0
    diff = difflib.unified_diff(want.splitlines(), out.splitlines(),
                                "golden", "paper_figures", lineterm="")
    for line in list(diff)[:40]:
        print(line, file=sys.stderr)
    print("paper_figures output differs from the golden file", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
