#!/usr/bin/env bash
# Runs spongelint over the tree, then builds with ASan+UBSan (warnings as
# errors) and runs the full test suite under it.
# Usage: tools/check.sh [--perf] [build-dir]   (default: build-san)
#   --perf  afterwards runs tools/perf.sh: the self-perf suite run twice
#           on one build, gating on byte-identical metrics/trace/sim
#           snapshots between the runs.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
perf=0
build=""
for arg in "$@"; do
  case "$arg" in
    --perf) perf=1 ;;
    *) build="$arg" ;;
  esac
done

build="${build:-$repo/build-san}"

# Static analysis first: it is seconds where the sanitizer sweep is
# minutes, and a coroutine-safety or determinism finding invalidates the
# run anyway.
"$repo/tools/lint/run.sh" "$build-lint"

# Shard-safety conflict census right after lint (same reasoning: it is
# sub-second once built, and an unexplained conflict means the sharded
# schedule reorders dependent events, which invalidates every seq run).
# Reuses the lint build tree; the merged census is published next to it.
"$repo/tools/shardcheck.sh" "$build-lint" "$build-lint/SHARDCHECK.json"

cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSPONGEFILES_WERROR=ON \
  "-DSPONGEFILES_SANITIZE=address;undefined"
cmake --build "$build" -j "$(nproc)"

# Abort on the first UBSan report instead of logging and continuing.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1"
# No leak suppressions: Engine::DrainDetached reclaims every detached
# coroutine frame (service loops, RPCs abandoned on hung servers) at
# teardown, so any LeakSanitizer report is a real bug.
# The chaos test stays cheap under plain ctest; the sanitizer run is where
# we spend the time on a wide seed sweep. Every chaos run (baseline and
# injected) executes with speculation and hedged reads enabled, so the
# sweep also shakes down backup attempts racing faults and hedge
# duplicates landing after their primary was abandoned. The chaos testbed
# is multi-rack, so the seed sweep also draws tracker-shard outages,
# stale-shard pauses, and gossip partitions from the fault mix. Chunk
# replication is on and crashes are fail-stop, so replica writes, read
# failover, and the repair loop all run under every schedule.
export SPONGE_CHAOS_SEEDS=20
# Deep coroutine resumption chains (k-way merge driving a reducer driving
# bag spills) fit the default 8 MB stack, but not with ASan's inflated
# frames and fake-stack bookkeeping.
ulimit -s 131072

ctest --test-dir "$build" --output-on-failure -j "$(nproc)"
echo "sanitizer check passed"

# Datacenter-replay smoke under the sanitizers: a small rack shape with
# the mid-run tracker-shard outage. The binary exits nonzero unless every
# task completed and the outage's tracker-down spill decisions stayed
# isolated to the affected rack.
"$build/bench/bench_datacenter" --racks=4 --nodes-per-rack=8 --jobs=80 \
  --out="$build/BENCH_datacenter_smoke.json"
echo "datacenter smoke passed"

# SSD-rung smoke under the sanitizers: the same shape with a throttled
# per-node SSD, checked for chunks actually landing on the rung — the
# reserve -> write -> read -> release path and the bandwidth override all
# execute under ASan/UBSan.
"$build/bench/bench_datacenter" --racks=4 --nodes-per-rack=8 --jobs=80 \
  --ssd-bw=400 \
  --out="$build/BENCH_datacenter_ssd_smoke.json" \
  --sim-out="$build/BENCH_datacenter_ssd_smoke_sim.json"
if grep -q '"chunks_ssd": [1-9]' "$build/BENCH_datacenter_ssd_smoke_sim.json"; then
  echo "ssd smoke passed"
else
  echo "ssd smoke: no chunks landed on the SSD rung" >&2
  exit 1
fi

# Crash-recovery smoke under the sanitizers: fail-stop crashes mid-run on
# a small shape. The binary exits nonzero unless the replicated run
# finishes with zero chunk-lost re-runs and byte-identical output, the
# unreplicated run pays visible re-runs, nothing leaks, and the repair
# loop stays within its bandwidth budget.
"$build/bench/bench_recovery" --racks=4 --nodes-per-rack=8 --jobs=60 \
  --crashes=3 --out="$build/BENCH_recovery_smoke.json"
echo "recovery smoke passed"

if [ "$perf" = 1 ]; then
  "$repo/tools/perf.sh"
fi
