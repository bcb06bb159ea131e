#!/usr/bin/env python3
"""End-to-end thread-invariance and restore gates over real scale_sweep
output.

Usage: sweep_gate_test.py path/to/scale_sweep

Runs the 2000-node smoke sweep with --json at AVMEM_THREADS=1 and 4 and
diffs the two files with check_sim_equivalence.py --min-mean-degree 10,
the same command CI's thread-matrix step runs.

The restore gate follows, once per availability backend (oracle and
avmon): a threads=1 sweep saves its warm state with --checkpoint-out, a
threads=4 sweep restores it with --checkpoint-in instead of warming up,
and check_sim_equivalence.py requires every sim column to match.

Last, it pins the class (bench/sweep_columns.hpp) of the columns the CI
gates lean on, so none of them can drift to `perf` and leave the
comparison unnoticed:

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
    # Only the thread count and the backend may vary: drop every other
    # AVMEM_* override.
    env = {k: v for k, v in os.environ.items() if not k.startswith("AVMEM_")}
    with tempfile.TemporaryDirectory() as tmp:

        def run(name, threads, *flags, backend=None):
            """One smoke sweep; returns the path of its --json file."""
            path = os.path.join(tmp, f"{name}.json")
            run_env = dict(env, AVMEM_THREADS=threads)
            if backend is not None:
                run_env["AVMEM_AVAIL_BACKEND"] = backend
            subprocess.run(
                [sweep, "--smoke", "--json", path, *flags],
                env=run_env,
                stdout=subprocess.DEVNULL,
                check=True,
            )
            return path

        def same(*args):
            return subprocess.run(
                [sys.executable, str(CHECKER), *args]).returncode == 0

        t1 = run("scale_t1", "1")
        if not same("--min-mean-degree", "10", t1, run("scale_t4", "4")):
            return 1
        for backend in ("oracle", "avmon"):
            ckpt = os.path.join(tmp, f"warm_{backend}.avmem")
            fresh = run(f"fresh_{backend}", "1", "--checkpoint-out", ckpt,
                        backend=backend)
            restored = run(f"restored_{backend}", "4", "--checkpoint-in",
                           ckpt, backend=backend)
            if not same(fresh, restored):
                print(f"restore gate failed on the {backend} backend",
                      file=sys.stderr)
                return 1
        with open(t1, encoding="utf-8") as f:
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
