#!/usr/bin/env bash
# Build and run the repository benchmark (see benchmark/README.md).
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N]
#                    [--trace [0|1]] [--results DIR]
#   benchmark/run.sh --smoke
#
# Without --workload every workload runs, one process each, one after
# another. --trace 1 measures per-layer metrics instead of end-to-end
# ones and summarizes each Chrome trace. --smoke runs every workload
# with a tiny op list, traced and untraced, and checks the emitted
# metrics against BENCHMARK.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"
workloads=(valley_cells nonvalley_cells write_cells search_joint)

workload="" seed=1 trace=0 smoke=0 results="$build/results"
seconds_arg=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds_arg=(--seconds "$2"); shift 2 ;;
    --results) results="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# Build output goes to stderr: the last line of stdout is the result.
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target valley_bench -j "$(nproc)" >&2

# Stop git at the repository root, so a checkout that is not a git
# repository reads as "unknown" instead of finding an enclosing one.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
bench=("$build/valley_bench" --seed "$seed" --results "$results"
       --commit "$commit" "${seconds_arg[@]}")

if [[ -n "$workload" ]]; then
  exec "${bench[@]}" --workload "$workload" --trace "$trace"
fi

trace_file() { echo "$results/$1.s$seed.traced.chrome-trace.json"; }

status=0
if [[ $smoke == 1 ]]; then
  start=$SECONDS
  for w in "${workloads[@]}"; do
    for t in 0 1; do
      line="$("${bench[@]}" --workload "$w" --trace "$t" --smoke \
              --seconds 0 | tail -n 1)" || status=1
      python3 "$here/check_result.py" --trace "$t" <<<"$line" \
        || { echo "smoke: $w --trace $t failed the check" >&2; status=1; }
    done
    python3 "$here/trace_summary.py" --quiet "$(trace_file "$w")" \
      || status=1
  done
  echo "smoke: $((SECONDS - start)) s, status $status"
  exit $status
fi

for w in "${workloads[@]}"; do
  "${bench[@]}" --workload "$w" --trace "$trace" || status=1
  if [[ $trace == 1 ]]; then
    python3 "$here/trace_summary.py" "$(trace_file "$w")" || status=1
  fi
done
exit $status
