#!/usr/bin/env python3
"""End-to-end thread-invariance gate over real scale_sweep output.

Usage: sweep_gate_test.py path/to/scale_sweep

Runs the 2000-node smoke sweep with --json at AVMEM_THREADS=1 and 4 and
diffs the two files with check_sim_equivalence.py --min-mean-degree 10,
the same command CI's thread-matrix step runs. It then pins the class
(bench/sweep_columns.hpp) of the columns the CI gates lean on, so none
of them can drift to `perf` and leave the comparison unnoticed:

  * restore_s and threads are perf: a restored run and a fresh one, or
    two thread counts, may disagree on them;
  * the wire-failure counters, the AVMON accuracy and ping columns, and
    view_digest are sim: a thread count or a restore that changes them
    is a determinism bug.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKER = Path(__file__).resolve().parent / "check_sim_equivalence.py"

PERF_PINS = ("restore_s", "threads")
SIM_PINS = (
    # wire failures (net::NetworkStats)
    "rejected",
    "dropped_offline",
    "ack_timeouts",
    "duplicated",
    "injected_drops",
    # AVMON accuracy vs the oracle, and the ping bill
    "avail_backend",
    "avmon_mae",
    "avmon_p99_err",
    "avmon_coverage",
    "pings_sent",
    "pings_delivered",
    "ping_bytes",
    "view_digest",
)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sweep = sys.argv[1]
    # Only the thread count may vary: drop every other AVMEM_* override.
    env = {k: v for k, v in os.environ.items() if not k.startswith("AVMEM_")}
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for threads in ("1", "4"):
            path = os.path.join(tmp, f"scale_t{threads}.json")
            subprocess.run(
                [sweep, "--smoke", "--json", path],
                env=dict(env, AVMEM_THREADS=threads),
                stdout=subprocess.DEVNULL,
                check=True,
            )
            paths.append(path)
        checked = subprocess.run(
            [sys.executable, str(CHECKER), "--min-mean-degree", "10", *paths]
        )
        if checked.returncode != 0:
            return 1
        with open(paths[0], encoding="utf-8") as f:
            classes = json.load(f)["classes"]

    failures = 0
    for want, keys in (("perf", PERF_PINS), ("sim", SIM_PINS)):
        for key in keys:
            if classes.get(key) != want:
                print(
                    f"'{key}' is {classes.get(key)!r} in scale_sweep's "
                    f"classes, want '{want}'",
                    file=sys.stderr,
                )
                failures += 1
    if failures:
        return 1
    print(f"class pins hold: {len(PERF_PINS)} perf, {len(SIM_PINS)} sim")
    return 0


if __name__ == "__main__":
    sys.exit(main())
