#!/usr/bin/env bash
# Run every bench binary and wrap each run in a JSON artifact so future PRs
# have a perf trajectory to regress against.  See docs/BENCHMARKS.md for the
# schema and the bench -> paper figure/table mapping.
#
# Every schema-v2 bench runs through scripts/sweep_runner.py, which owns
# the bench list (BENCHES) and writes each artifact: the bench's parsed
# {case, ...metric} rows land in the artifact's "rows" field.
# micro_components (Google Benchmark) has no --json or grid; it runs last,
# with its stdout captured line-by-line.
#
# Usage:
#   scripts/run_benches.sh [--parallel[=N]] [BUILD_DIR] [OUT_DIR]
#
#   --parallel[=N]  shard every schema-v2 bench's sweep grid across N
#                   worker processes (default: nproc); without it the
#                   sweep runs on one worker. The artifacts are the same
#                   either way.
#   BUILD_DIR       cmake build tree with bench/ binaries (default: build)
#   OUT_DIR         where to write <bench>.json artifacts (default:
#                   bench-out)
#
# Env knobs — one list, forwarded to the benches natively (the registry in
# bench/grid.hpp reads them; run `<bench> --help` or --list-knobs for the
# value sets):
#   ARCANE_BENCH_FAST=1            CI-friendly reduced sweeps (also sets
#                                  micro_components' --benchmark_min_time)
#   ARCANE_BENCH_BACKEND=name      ideal|psram|dram (default: each bench's
#                                  sweep/default)
#   ARCANE_BENCH_ELISION=off       disable write-back elision
#   ARCANE_BENCH_LANES=n           2|4|8: restrict the lane sweep
#   ARCANE_BENCH_REPLACEMENT=name  LLC replacement policy
#   ARCANE_BENCH_SCHED_POLICY=name fifo|rr|sjf|priority
#   ARCANE_BENCH_DETERMINISTIC=1   zero the wall-clock trend fields
set -u

JOBS=1
case "${1:-}" in
  --parallel)
    JOBS="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
    shift
    ;;
  --parallel=*)
    JOBS="${1#--parallel=}"
    shift
    ;;
esac

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-out}"
FAST="${ARCANE_BENCH_FAST:-0}"

if ! command -v python3 >/dev/null 2>&1; then
  echo "error: python3 is required for JSON assembly" >&2
  exit 1
fi

if [ ! -d "${BUILD_DIR}/bench" ]; then
  echo "error: ${BUILD_DIR}/bench not found — build the project first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"

failures=0
sweep_args=(--build-dir "${BUILD_DIR}" --out-dir "${OUT_DIR}"
            --jobs "${JOBS}")
if [ "${FAST}" = "1" ]; then
  sweep_args+=(--fast)
fi
echo "run: sweep (${JOBS} worker(s))"
if ! python3 "$(dirname "$0")/sweep_runner.py" "${sweep_args[@]}"; then
  failures=$((failures + 1))
fi

name="micro_components"
bin="${BUILD_DIR}/bench/${name}"
if [ ! -x "${bin}" ]; then
  # Optional: needs Google Benchmark.
  echo "skip: ${name} (binary not built)"
else
  args=()
  if [ "${FAST}" = "1" ]; then
    args=(--benchmark_min_time=0.01)
  fi

  echo "run: ${name}"
  stdout_file="$(mktemp)"
  # time via python: BSD date lacks %N, and bash 3.2 + set -u rejects
  # empty-array expansion, hence the ${arr[@]+...} guard below.
  start="$(python3 -c 'import time; print(time.time())')"
  "${bin}" ${args[@]+"${args[@]}"} >"${stdout_file}" 2>&1
  exit_code=$?
  end="$(python3 -c 'import time; print(time.time())')"

  # The envelope fields mirror scripts/sweep_runner.py's artifacts.
  if ! BENCH_EXIT="${exit_code}" BENCH_START="${start}" BENCH_END="${end}" \
       BENCH_STDOUT="${stdout_file}" BENCH_FAST="${FAST}" \
       BENCH_BACKEND="${ARCANE_BENCH_BACKEND:-}" \
       BENCH_ELISION="${ARCANE_BENCH_ELISION:-}" \
       BENCH_LANES="${ARCANE_BENCH_LANES:-}" \
       BENCH_REPLACEMENT="${ARCANE_BENCH_REPLACEMENT:-}" \
       BENCH_SCHED_POLICY="${ARCANE_BENCH_SCHED_POLICY:-}" \
       BENCH_DETERMINISTIC="${ARCANE_BENCH_DETERMINISTIC:-}" \
       python3 - >"${OUT_DIR}/${name}.json" <<'PY'
import json, os, sys
with open(os.environ["BENCH_STDOUT"], errors="replace") as f:
    text = f.read()
envelope = {
    "schema_version": 2,
    "bench": "micro_components",
    "reproduces": "Micro (simulator component throughput)",
    "fast_mode": os.environ["BENCH_FAST"] == "1",
    "backend": os.environ["BENCH_BACKEND"] or None,
    "elision": os.environ["BENCH_ELISION"] or None,
    "lanes": os.environ["BENCH_LANES"] or None,
    "replacement": os.environ["BENCH_REPLACEMENT"] or None,
    "sched_policy": os.environ["BENCH_SCHED_POLICY"] or None,
    "deterministic": bool(os.environ["BENCH_DETERMINISTIC"]),
    "exit_code": int(os.environ["BENCH_EXIT"]),
    "wall_seconds": round(
        float(os.environ["BENCH_END"]) - float(os.environ["BENCH_START"]), 3),
    "stdout": text.splitlines(),
}
json.dump(envelope, sys.stdout, indent=2)
sys.stdout.write("\n")
PY
  then
    echo "FAIL: ${name} (could not write JSON artifact)" >&2
    failures=$((failures + 1))
  fi
  rm -f "${stdout_file}"
  if [ "${exit_code}" -ne 0 ]; then
    echo "FAIL: ${name} (exit ${exit_code})" >&2
    failures=$((failures + 1))
  fi
fi

echo
echo "wrote artifacts to ${OUT_DIR}/ (${failures} failures)"
[ "${failures}" -eq 0 ]
