#!/usr/bin/env python3
"""Assert two bench --json outputs are stat-identical.

Usage: check_sim_equivalence.py [--min-mean-degree X] A.json B.json

Parallel plan dispatch — and a warm-state checkpoint restore, and an
active fault campaign — must not change any simulation-visible
statistic; only wall-clock fields and the reported thread count may
differ between runs. CI runs the smoke sweeps
at threads=1 and threads=4 (and restored vs fresh, and chaos campaigns
at two thread counts) and gates on this script.

The schema is selected by the run's top-level "bench" field
(scale_sweep or chaos_sweep; both runs must agree). Every per-point key
must be classified: invariant keys are compared exactly, ignored keys
are allowed to differ, and a key in neither set is a loud failure — a
new bench column must be triaged here before it can ride through CI,
otherwise a silently-added thread-variant (or restore-variant) column
would erode the gate.

--min-mean-degree X additionally gates Discovery convergence: every point
of both runs must report mean_degree >= X (the candidate-feed floor; a
regression that starves Discovery fails the smoke job even if both runs
starve identically).
"""
import json
import sys

INVARIANT_KEYS = (
    "n",
    "backend",
    "trace_backend",
    "seed",
    "shuffle_period_s",
    "shuffle_view_size",
    "shuffle_gossip_length",
    "feed_enabled",
    "feed_h_budget",
    "feed_v_budget",
    "model_mb",
    "warmup_sim_h",
    "events",
    "maint_timers",
    "completed_shuffles",
    "view_digest",
    "mean_degree",
    "hs_degree",
    "feed_candidates",
    "rejected",
    "dropped_offline",
    "ack_timeouts",
    "duplicated",
    "injected_drops",
    "anycasts",
    "delivered_fraction",
    # AVMON overlay columns: the substrate choice, estimate accuracy vs
    # the oracle, and ping-traffic billing are all simulation results —
    # zeros under the oracle backend, but never thread-variant.
    "avail_backend",
    "avmon_mae",
    "avmon_p99_err",
    "avmon_coverage",
    "pings_sent",
    "pings_delivered",
    "ping_bytes",
)

# Wall-clock measurements and the knob a comparison deliberately varies
# (thread count). restore_s belongs here: one side of the checkpoint CI
# gate warms up fresh (restore_s = 0) while the other restores.
IGNORED_KEYS = frozenset(
    {
        "threads",
        "build_s",
        "warmup_s",
        "restore_s",
        "events_per_s",
        "plan_s",
        "commit_s",
        "plan_share",
        "plan_nodes_per_s",
        "plan_slot_p50_ms",
        "plan_slot_p99_ms",
        "batch_s",
    }
)

# chaos_sweep samples: everything simulation-visible, nothing wall-clock.
# A fault campaign must be bit-identical across thread counts and
# checkpoint/restore — that is the whole point of the deterministic
# injector.
CHAOS_INVARIANT_KEYS = (
    "t_h",
    "delivered",
    "mean_degree",
    "view_digest",
    "injected_drops",
    "duplicated",
    "ack_timeouts",
    "dropped_offline",
    "attack_sweeps",
)
CHAOS_IGNORED_KEYS = frozenset()

# Top-level chaos_sweep fields that must also agree between the two runs
# (reconvergence time is a simulation-visible result, not a wall clock).
CHAOS_TOP_LEVEL_KEYS = (
    "scenario",
    "seed",
    "floor",
    "last_stage_end_h",
    "reconverged_h",
)

# "bench" field -> (invariant keys, ignored keys) for the per-point diff.
SCHEMAS = {
    "scale_sweep": (INVARIANT_KEYS, IGNORED_KEYS),
    "chaos_sweep": (CHAOS_INVARIANT_KEYS, CHAOS_IGNORED_KEYS),
}


def check_points(a, b, min_mean_degree=None, out=sys.stderr,
                 invariant_keys=INVARIANT_KEYS, ignored_keys=IGNORED_KEYS):
    """Compare two point lists; returns the number of failures."""
    INVARIANT_KEYS = invariant_keys  # noqa: N806 — keep body readable
    IGNORED_KEYS = ignored_keys  # noqa: N806
    if len(a) != len(b):
        print(f"point count differs: {len(a)} vs {len(b)}", file=out)
        return 1
    failures = 0
    for i, (pa, pb) in enumerate(zip(a, b)):
        # Full schema coverage: any key neither compared nor explicitly
        # ignored fails — never let a new column slip past unclassified.
        for name, point in (("A", pa), ("B", pb)):
            unknown = sorted(
                k
                for k in point
                if k not in INVARIANT_KEYS and k not in IGNORED_KEYS
            )
            if unknown:
                print(
                    f"point {i} (run {name}): unclassified key(s) "
                    f"{', '.join(unknown)} — add each to INVARIANT_KEYS "
                    "or IGNORED_KEYS in tools/check_sim_equivalence.py",
                    file=out,
                )
                failures += len(unknown)
        for key in INVARIANT_KEYS:
            # A key absent from either run is its own loud failure: a
            # silently-renamed or dropped JSON field must not read as
            # "no divergence" (nor crash with a bare KeyError).
            missing = [
                name
                for name, point in (("A", pa), ("B", pb))
                if key not in point
            ]
            if missing:
                print(
                    f"point {i}: invariant key '{key}' missing from "
                    f"run(s) {', '.join(missing)} — scale_sweep JSON "
                    "schema changed?",
                    file=out,
                )
                failures += 1
                continue
            if pa[key] != pb[key]:
                print(
                    f"point {i} ({pa.get('n', '?')} nodes): '{key}' "
                    f"diverged: {pa[key]} (threads={pa.get('threads', '?')}) "
                    f"vs {pb[key]} (threads={pb.get('threads', '?')})",
                    file=out,
                )
                failures += 1
    if min_mean_degree is not None:
        for i, p in enumerate(a + b):
            if "mean_degree" not in p:
                continue  # already reported as a missing invariant key
            if p["mean_degree"] < min_mean_degree:
                print(
                    f"point {i % len(a)} ({p.get('n', '?')} nodes, "
                    f"threads={p.get('threads', '?')}): mean_degree "
                    f"{p['mean_degree']} below the convergence floor "
                    f"{min_mean_degree}",
                    file=out,
                )
                failures += 1
    return failures


def check_runs(run_a, run_b, min_mean_degree=None, out=sys.stderr):
    """Full-run comparison: schema selection by "bench" plus the
    per-point diff (and, for chaos_sweep, the top-level reconvergence
    fields). Returns the number of failures."""
    bench_a = run_a.get("bench", "scale_sweep")
    bench_b = run_b.get("bench", "scale_sweep")
    if bench_a != bench_b:
        print(f"bench mismatch: {bench_a} vs {bench_b}", file=out)
        return 1
    if bench_a not in SCHEMAS:
        print(
            f"unknown bench '{bench_a}' — add a schema to "
            "tools/check_sim_equivalence.py",
            file=out,
        )
        return 1
    invariant, ignored = SCHEMAS[bench_a]
    failures = check_points(
        run_a["points"],
        run_b["points"],
        min_mean_degree=min_mean_degree,
        out=out,
        invariant_keys=invariant,
        ignored_keys=ignored,
    )
    if bench_a == "chaos_sweep":
        for key in CHAOS_TOP_LEVEL_KEYS:
            missing = [
                name
                for name, run in (("A", run_a), ("B", run_b))
                if key not in run
            ]
            if missing:
                print(
                    f"top-level key '{key}' missing from run(s) "
                    f"{', '.join(missing)} — chaos_sweep JSON schema "
                    "changed?",
                    file=out,
                )
                failures += 1
                continue
            if run_a[key] != run_b[key]:
                print(
                    f"top-level '{key}' diverged: {run_a[key]} vs "
                    f"{run_b[key]}",
                    file=out,
                )
                failures += 1
    return failures


def main() -> int:
    args = sys.argv[1:]
    min_mean_degree = None
    if args and args[0] == "--min-mean-degree":
        if len(args) < 2:
            print(__doc__, file=sys.stderr)
            return 2
        min_mean_degree = float(args[1])
        args = args[2:]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs = []
    for path in args:
        with open(path, encoding="utf-8") as f:
            runs.append(json.load(f))
    failures = check_runs(runs[0], runs[1], min_mean_degree)
    if failures:
        return 1

    def threads_of(run):
        # scale_sweep reports threads per point; chaos_sweep top-level.
        points = run.get("points", [])
        if points and "threads" in points[0]:
            return points[0]["threads"]
        return run.get("threads", "?")

    n_points = len(runs[0]["points"])
    msg = (
        f"{n_points} point(s) stat-identical across threads="
        f"{threads_of(runs[0])} and threads={threads_of(runs[1])}"
    )
    if min_mean_degree is not None:
        msg += f"; mean_degree >= {min_mean_degree} everywhere"
    print(msg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
