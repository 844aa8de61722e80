#!/usr/bin/env bash
# Self-performance gate (DESIGN.md "Performance engineering"). Two gates on
# one RelWithDebInfo build:
#
#   1. Run-to-run determinism: bench_selfperf's fixed suite twice; sim
#      summary, metrics snapshot, and trace must be byte-identical between
#      the runs. The suite includes the seeded chaos sweep, so gray-failure
#      schedules are covered too.
#   2. Pool gate (DESIGN.md §14): fig5_contention once on the tiered
#      size-classed pool and once on --pool=flat (the pre-tiered global
#      lock). The tiered pool's summed job runtime — a simulated,
#      deterministic quantity — must beat the flat baseline; both numbers
#      land in the report.
#
# BENCH_selfperf.json is the first gate-1 run's wall-clock report with the
# pool numbers spliced in at the end.
#
# Usage: tools/perf.sh [--chaos-seeds=N] [--out=PATH] [--keep-work]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
out="$repo/BENCH_selfperf.json"
seeds=5
keep_work=0
for arg in "$@"; do
  case "$arg" in
    --chaos-seeds=*) seeds="${arg#*=}" ;;
    --out=*) out="${arg#*=}" ;;
    --keep-work) keep_work=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

build="$repo/build-perf"
work="$(mktemp -d)"
trap '[ "$keep_work" = 1 ] && echo "work dir kept: $work" || rm -rf "$work"' EXIT

echo "== building ($build)"
cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$build" --target bench_selfperf -j "$(nproc)"

echo
echo "== gate 1: run-to-run determinism"
"$build/bench/bench_selfperf" --chaos-seeds="$seeds" \
  --out="$out" --sim-out="$work/run1_sim.json" \
  --metrics-out="$work/run1_metrics.json" \
  --trace-out="$work/run1_trace.json"
echo
"$build/bench/bench_selfperf" --chaos-seeds="$seeds" \
  --out="$work/run2.json" --sim-out="$work/run2_sim.json" \
  --metrics-out="$work/run2_metrics.json" \
  --trace-out="$work/run2_trace.json"
echo
for pair in sim metrics trace; do
  if cmp -s "$work/run1_${pair}.json" "$work/run2_${pair}.json"; then
    echo "  $pair snapshot: identical"
  else
    echo "  $pair snapshot: DIFFERS — a run-to-run nondeterminism crept into the simulation" >&2
    diff "$work/run1_${pair}.json" "$work/run2_${pair}.json" | head -40 >&2 || true
    exit 1
  fi
done

extract() { grep -o "\"$2\": [0-9.]*" "$1" | head -1 | awk '{print $2}'; }

echo
echo "== gate 2: tiered pool vs flat baseline (fig5_contention)"
"$build/bench/bench_selfperf" --scenarios=fig5_contention --pool=flat \
  --out="$work/pool_flat.json" --sim-out="$work/pool_flat_sim.json"
"$build/bench/bench_selfperf" --scenarios=fig5_contention --pool=tiered \
  --out="$work/pool_tiered.json" --sim-out="$work/pool_tiered_sim.json"
pool_flat_us="$(extract "$work/pool_flat_sim.json" job_runtime_us)"
pool_tiered_us="$(extract "$work/pool_tiered_sim.json" job_runtime_us)"
echo "  job runtime: flat ${pool_flat_us} us, tiered ${pool_tiered_us} us"
if awk "BEGIN{exit !($pool_tiered_us < $pool_flat_us)}"; then
  echo "  pool gate: tiered beats the flat global-lock baseline"
else
  echo "  pool gate: tiered pool is NOT faster than --pool=flat" >&2
  exit 1
fi

# Splice the pool numbers into the report (drop the closing brace, append
# the extra keys, close again).
tmp="$(mktemp)"
sed '$d' "$out" > "$tmp"
{
  cat "$tmp"
  echo ",
  \"pool_flat_job_runtime_us\": $pool_flat_us,
  \"pool_tiered_job_runtime_us\": $pool_tiered_us
}"
} > "$out"
rm -f "$tmp"

echo
echo "report: $out"
grep -E '"(host_cores|total_wall_ms|events_per_sec|peak_rss_bytes)"' "$out" || true
echo "self-perf gate passed"
