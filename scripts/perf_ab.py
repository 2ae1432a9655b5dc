#!/usr/bin/env python3
"""Interleaved A/B of the perfbench host-speed benchmark between two trees.

Each tree is a repository checkout holding perfbench/run.py (it builds its
own .bench_build/perfbench on first use). Every pair runs both sides once
on the same workload and seed, alternating which side goes first so slow
phases of a shared host land on A and B alike:

    scripts/perf_ab.py --a ../parent --b . --workload scalar-conv \\
        --workload pulp-conv --pairs 10 --seed 1 --seconds 5

For every workload and every metric in the runs' JSON (end-to-end metrics
with --trace 0, per-layer metrics with --trace 1) it prints A's and B's
medians and quartiles, the B/A median ratio and B's win count: the pairs in
which B beat A in the metric's better direction, read from BENCHMARK.json.
With --trace 0 it also pools every run's per-repetition wall times (the
`rep wall_s:` line) per side and prints their min, first quartile and
median: on a shared host the per-run medians swing with load while the
fastest repetitions hold steady. A run that fails (non-zero exit or failed
cases) aborts the comparison.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path


def load_directions(tree):
    """metric name -> 'higher' | 'lower' from the tree's BENCHMARK.json."""
    path = Path(tree) / "BENCHMARK.json"
    if not path.is_file():
        return {}
    decl = json.loads(path.read_text())
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in decl.get(key, [])}


def run_side(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(tree) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        res = None
    if r.returncode or res is None or res.get("failed", 1):
        sys.stderr.write(r.stderr[-2000:])
        raise SystemExit(f"perf_ab: {tree} {workload} seed {seed} failed "
                         f"(exit {r.returncode})")
    return {k: v["value"] for k, v in res["metrics"].items()}, rep_walls(lines)


REP_WALLS = re.compile(r"^reps = .*rep wall_s:((?:\s+[0-9.eE+-]+)+)\s*$")


def rep_walls(lines):
    """Per-repetition wall times from a run's `rep wall_s:` line, or []."""
    for line in lines:
        m = REP_WALLS.match(line)
        if m:
            return [float(x) for x in m.group(1).split()]
    return []


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def compare(a_runs, b_runs, directions):
    """Rows of (metric, A quartiles, B quartiles, ratio, wins, better)."""
    rows = []
    for name in sorted(set(a_runs[0]) & set(b_runs[0])):
        a = [r[name] for r in a_runs]
        b = [r[name] for r in b_runs]
        better = directions.get(name, "lower")
        if better == "higher":
            wins = sum(y > x for x, y in zip(a, b))
        else:
            wins = sum(y < x for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        rows.append((name, qa, qb, ratio, wins, better))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="baseline tree")
    ap.add_argument("--b", required=True, help="candidate tree")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json", help="also write the summary here")
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")

    directions = load_directions(args.b) or load_directions(args.a)
    summary = {}
    for workload in args.workload:
        runs = {"a": [], "b": []}
        walls = {"a": [], "b": []}
        for i in range(args.pairs):
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            for side in order:
                tree = args.a if side == "a" else args.b
                metrics, reps = run_side(tree, workload, args.seed,
                                         args.seconds, args.trace)
                runs[side].append(metrics)
                walls[side] += reps
            print(f"{workload}: pair {i + 1}/{args.pairs} done",
                  file=sys.stderr)
        rows = compare(runs["a"], runs["b"], directions)
        print(f"\n{workload} (seed {args.seed}, {args.pairs} pairs, "
              f"trace {args.trace})")
        print(f"  {'metric':28s} {'A median [q1, q3]':>36s} "
              f"{'B median [q1, q3]':>36s} {'B/A':>7s} {'B wins':>7s}")
        for name, qa, qb, ratio, wins, better in rows:
            print(f"  {name:28s} {qa[1]:12.6g} [{qa[0]:9.6g}, {qa[2]:9.6g}] "
                  f"{qb[1]:12.6g} [{qb[0]:9.6g}, {qb[2]:9.6g}] "
                  f"{ratio:7.3f} {wins:3d}/{args.pairs} ({better})")
        summary[workload] = {
            name: {"a": {"q1": qa[0], "median": qa[1], "q3": qa[2]},
                   "b": {"q1": qb[0], "median": qb[1], "q3": qb[2]},
                   "ratio": ratio, "b_wins": wins, "pairs": args.pairs,
                   "better": better}
            for name, qa, qb, ratio, wins, better in rows}
        if walls["a"] and walls["b"]:
            pooled = {side: {"n": len(w), "min": min(w),
                             "q1": quartiles(w)[0], "median": quartiles(w)[1]}
                      for side, w in walls.items()}
            pa, pb = pooled["a"], pooled["b"]
            print(f"  {'pooled rep wall_s':28s} A n={pa['n']} min "
                  f"{pa['min']:.4g} q1 {pa['q1']:.4g} median "
                  f"{pa['median']:.4g} | B n={pb['n']} min {pb['min']:.4g} "
                  f"q1 {pb['q1']:.4g} median {pb['median']:.4g} | B/A min "
                  f"{pb['min'] / pa['min']:.3f} median "
                  f"{pb['median'] / pa['median']:.3f}")
            summary[workload]["pooled_rep_wall_s"] = pooled
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
