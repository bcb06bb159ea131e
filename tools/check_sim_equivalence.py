#!/usr/bin/env python3
"""Assert two sweep --json outputs are simulation-identical.

Usage: check_sim_equivalence.py [--min-mean-degree X] A.json B.json

Parallel plan dispatch — and a warm-state checkpoint restore, and an
active fault campaign — must not change any simulation-visible
statistic. CI runs the smoke sweeps at threads=1 and threads=4 (and
restored vs fresh, and chaos campaigns at two thread counts) and gates
on this script.

The JSON describes itself: scale_sweep and chaos_sweep write a top-level
"classes" object that gives every point key and every top-level field a
class (bench/sweep_columns.hpp). "sim" values are compared exactly, per
point and at the top level; "perf" values (wall clocks, the thread
count) may differ. Anything the classes cannot vouch for is a loud
failure: a missing or unequal "classes" map, a key without a class or
with an unknown one, a key missing from a point or from one run, and
unequal point counts.

--min-mean-degree X additionally gates Discovery convergence: every point
of both runs must report mean_degree >= X (the candidate-feed floor; a
regression that starves Discovery fails the smoke job even if both runs
starve identically).
"""
import json
import sys

CLASSES = ("sim", "perf")

# The two container keys; everything else in a run must be classified.
STRUCTURAL_KEYS = ("classes", "points")


def _top_keys(run):
    return {k for k in run if k not in STRUCTURAL_KEYS}


def _check_classes(run_a, run_b, out):
    """Validates the "classes" maps; returns (classes or None, failures)."""
    missing = [
        name for name, run in (("A", run_a), ("B", run_b))
        if not isinstance(run.get("classes"), dict)
    ]
    if missing:
        print(
            f"run(s) {', '.join(missing)} carry no \"classes\" map — not "
            "written by a sweep that declares its columns",
            file=out,
        )
        return None, len(missing)
    ca, cb = run_a["classes"], run_b["classes"]
    if ca != cb:
        differ = sorted(k for k in set(ca) | set(cb) if ca.get(k) != cb.get(k))
        print(
            "the runs' \"classes\" maps differ on "
            + ", ".join(f"{k} ({ca.get(k)} vs {cb.get(k)})" for k in differ),
            file=out,
        )
        return None, 1
    failures = 0
    for key, cls in ca.items():
        if cls not in CLASSES:
            print(f"key '{key}' has unknown class '{cls}'", file=out)
            failures += 1
    return ca, failures


def _compare(where, key, a, b, classes, out):
    """Fails a `sim` key whose values differ; returns the failure count."""
    if classes.get(key) != "sim" or a[key] == b[key]:
        return 0
    print(f"{where}: '{key}' diverged: {a[key]} vs {b[key]}", file=out)
    return 1


def check_runs(run_a, run_b, min_mean_degree=None, out=sys.stderr):
    """Full-run comparison; returns the number of failures."""
    bench_a, bench_b = run_a.get("bench"), run_b.get("bench")
    if bench_a != bench_b:
        print(f"bench mismatch: {bench_a} vs {bench_b}", file=out)
        return 1
    classes, failures = _check_classes(run_a, run_b, out)
    if classes is None:
        return failures
    points_a, points_b = run_a.get("points", []), run_b.get("points", [])
    if len(points_a) != len(points_b):
        print(
            f"point count differs: {len(points_a)} vs {len(points_b)}",
            file=out,
        )
        return failures + 1

    top = _top_keys(run_a) | _top_keys(run_b)
    point_keys = set()
    for p in points_a + points_b:
        point_keys |= set(p)
    written = top | point_keys
    for key in sorted(written - set(classes)):
        print(f"key '{key}' has no class in \"classes\"", file=out)
        failures += 1
    for key in sorted(set(classes) - written):
        print(f"classified key '{key}' is missing from both runs", file=out)
        failures += 1

    # Top-level fields, then each point: same key set, equal sim values.
    records = [("top level", run_a, run_b, top)] + [
        (f"point {i}", pa, pb, point_keys)
        for i, (pa, pb) in enumerate(zip(points_a, points_b))
    ]
    for where, ra, rb, keys in records:
        for key in sorted(keys):
            absent = [n for n, r in (("A", ra), ("B", rb)) if key not in r]
            if absent:
                print(
                    f"{where}: key '{key}' missing from run(s) "
                    f"{', '.join(absent)}",
                    file=out,
                )
                failures += 1
                continue
            failures += _compare(where, key, ra, rb, classes, out)

    if min_mean_degree is not None:
        for name, points in (("A", points_a), ("B", points_b)):
            for i, p in enumerate(points):
                if "mean_degree" not in p:
                    continue  # already reported as a missing key
                if p["mean_degree"] < min_mean_degree:
                    print(
                        f"point {i} (run {name}): mean_degree "
                        f"{p['mean_degree']} below the convergence floor "
                        f"{min_mean_degree}",
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
    if check_runs(runs[0], runs[1], min_mean_degree):
        return 1

    def threads_of(run):
        # scale_sweep reports threads per point; chaos_sweep top-level.
        points = run.get("points", [])
        if points and "threads" in points[0]:
            return points[0]["threads"]
        return run.get("threads", "?")

    n_points = len(runs[0]["points"])
    msg = (
        f"{n_points} point(s) sim-identical across threads="
        f"{threads_of(runs[0])} and threads={threads_of(runs[1])}"
    )
    if min_mean_degree is not None:
        msg += f"; mean_degree >= {min_mean_degree} everywhere"
    print(msg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
