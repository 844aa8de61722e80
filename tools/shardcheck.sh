#!/usr/bin/env bash
# Shard-safety conflict census (the dynamic half of the shard analysis;
# the static half is spongelint's ownership pass). Builds the shardcheck
# driver and runs every workload shape under the engine's instrumented
# access-set mode TWICE: once on the legacy single-queue engine (the
# sequential census that predicts what the lanes may share) and once on
# the rack-sharded serial schedule (--engine=seq), where the recorder
# stamps each access with its lane and window and flags any same-window
# cross-lane conflict. A conflict in the sharded pass that the sequential
# census did not predict fails the gate: the lookahead windows would
# reorder causally dependent events there. The per-shape censuses are
# merged into one JSON artifact.
#
# Usage: tools/shardcheck.sh [build-dir] [artifact]
#   build-dir  default: build        (reused if already configured)
#   artifact   default: <build-dir>/SHARDCHECK.json
# Exit: 0 when every shape is conflict-free under both engines, 1 otherwise.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
artifact="${2:-$build/SHARDCHECK.json}"

cmake -B "$build" -S "$repo" >/dev/null
cmake --build "$build" -j "$(nproc)" --target shardcheck >/dev/null

mkdir -p "$(dirname "$artifact")"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

status=0
for shape in chaos datacenter recovery; do
  for engine in legacy seq; do
    if ! "$build/tools/shardcheck/shardcheck" --shape="$shape" \
        --engine="$engine" --out="$tmpdir/$shape-$engine.json"; then
      status=1
    fi
  done
done

# Merge the shape reports into one artifact (pure text splice; the
# per-shape JSON is already deterministic).
{
  echo '{'
  echo '  "shapes": ['
  first=1
  for shape in chaos datacenter recovery; do
    for engine in legacy seq; do
      if [ "$first" = 1 ]; then first=0; else echo ','; fi
      sed -e 's/^/    /' -e '$d' "$tmpdir/$shape-$engine.json" \
        | sed -e '1s/^    {/    {/'
      printf '    }'
    done
  done
  echo
  echo '  ]'
  echo '}'
} > "$artifact"

if [ "$status" = 0 ]; then
  echo "shardcheck: all shapes conflict-free on both engines; census at $artifact"
else
  echo "shardcheck: UNEXPLAINED CONFLICTS — see $artifact" >&2
fi
exit "$status"
