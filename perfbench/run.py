#!/usr/bin/env python3
"""Host-speed benchmark of the ARCANE simulator (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload scalar-conv --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test     # the checks catch a bad byte / pin
    python3 perfbench/run.py --write-pins    # re-pin the default-seed statistics

It builds the simulator libraries and the `perfbench` binary from source into
.bench_build/perfbench (the first run takes about a minute), then runs one
workload in one single-threaded process. The last stdout line is one JSON
object {correct, attempted, failed, metrics}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. The exit code is 0 only when
every case matched its golden model and its pinned statistics.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["scalar-conv", "pulp-conv", "arcane-conv", "serving"]
DEFAULT_SEED = 1  # the seed pins/<workload>.txt were taken with
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_provenance():
    if not (ROOT / ".git").exists():
        return "unknown", "unknown"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        st = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", "unknown"
    if sha.returncode or st.returncode:
        return "unknown", "unknown"
    return sha.stdout.strip(), "1" if st.stdout.strip() else "0"


def perfbench(workload, seed, seconds, trace, extra=(), capture=False):
    sha, dirty = git_provenance()
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--pins", str(BENCH / "pins" / f"{workload}.txt"),
           "--git-sha", sha, "--git-dirty", dirty, *extra]
    if trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{workload}-seed{seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def self_test():
    """A corrupted output byte, and separately a wrong pin, must each give
    fail_frac > 0 and a non-zero exit; the clean run must pass."""
    problems = []
    for workload in WORKLOADS:
        for inject in ("", "corrupt-output", "wrong-pin"):
            extra = ["--inject", inject] if inject else []
            r = perfbench(workload, DEFAULT_SEED, 0.001, 0, extra, capture=True)
            res = last_json(r.stdout) or {}
            failed, attempted = res.get("failed", 0), res.get("attempted", 0)
            ok = (r.returncode == 0 and failed == 0 if not inject else
                  r.returncode != 0 and attempted > 0 and failed > 0)
            label = inject or "clean"
            print(f"self-test {workload:12s} {label:15s} exit={r.returncode} "
                  f"failed={failed}/{attempted} {'ok' if ok else 'WRONG'}")
            if not ok:
                problems.append(f"{workload} {label}")
    if problems:
        fail("self-test failed: " + ", ".join(problems), 1)
    print("self-test passed")


def write_pins():
    (BENCH / "pins").mkdir(exist_ok=True)
    for workload in WORKLOADS:
        out = BENCH / "pins" / f"{workload}.txt"
        r = perfbench(workload, DEFAULT_SEED, 0.001, 0,
                      ["--write-pins", str(out)], capture=True)
        if r.returncode:
            fail(f"{workload}: a case failed while pinning", 1)
        print(f"pinned {out.relative_to(ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    if not (args.self_test or args.write_pins or args.workload):
        ap.error("--workload is required")

    build()
    if args.self_test:
        self_test()
    elif args.write_pins:
        write_pins()
    else:
        sys.stdout.flush()
        r = perfbench(args.workload, args.seed, args.seconds, args.trace)
        sys.exit(r.returncode)


if __name__ == "__main__":
    main()
