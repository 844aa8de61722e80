#ifndef SPONGEFILES_SPONGE_PLACEMENT_H_
#define SPONGEFILES_SPONGE_PLACEMENT_H_

// The allocation cascade's decisions, each made in one place: the media (and
// their ledger), the spill reasons, and the "can this server take it" gate.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "sponge/memory_tracker.h"
#include "sponge/sponge_env.h"

namespace spongefiles::sponge {

// Where a chunk ended up in the allocation cascade, in cascade order.
enum class ChunkLocation {
  kLocalMemory,
  kRemoteMemory,
  kLocalSsd,
  kLocalDisk,
  kDfs,
};

// Every medium, in cascade order: the iteration order of every per-medium
// report.
inline constexpr ChunkLocation kChunkLocations[] = {
    ChunkLocation::kLocalMemory, ChunkLocation::kRemoteMemory,
    ChunkLocation::kLocalSsd,    ChunkLocation::kLocalDisk,
    ChunkLocation::kDfs,
};
inline constexpr size_t kNumChunkLocations = std::size(kChunkLocations);

// The medium's name: the `medium` label of sponge.spill.{bytes,chunks} and
// the medium arg of the chunk.store / chunk.read spans.
const char* ChunkLocationName(ChunkLocation location);

// lint: shard(value)
struct MediumTally {
  uint64_t chunks = 0;
  uint64_t bytes = 0;

  MediumTally& operator+=(const MediumTally& other) {
    chunks += other.chunks;
    bytes += other.bytes;
    return *this;
  }
};

// Chunks and logical bytes placed on each medium, plus the cross-rack
// subset of remote memory. A SpongeFile keeps one, a task's SpillStats sums
// its files', the benches sum tasks'. Disk chunks count appends, not files.
// lint: shard(value)
class PlacementLedger {
 public:
  void Record(ChunkLocation where, uint64_t bytes, bool cross_rack = false) {
    media_[static_cast<size_t>(where)] += {1, bytes};
    if (cross_rack) cross_rack_ += {1, bytes};
  }

  const MediumTally& operator[](ChunkLocation where) const {
    return media_[static_cast<size_t>(where)];
  }
  const MediumTally& cross_rack() const { return cross_rack_; }
  // Remote memory on the writer's own rack: the remote tally minus the
  // cross-rack subset.
  MediumTally rack_local() const {
    const MediumTally& remote = (*this)[ChunkLocation::kRemoteMemory];
    return {remote.chunks - cross_rack_.chunks,
            remote.bytes - cross_rack_.bytes};
  }

  uint64_t total_chunks() const {
    uint64_t sum = 0;
    for (const MediumTally& tally : media_) sum += tally.chunks;
    return sum;
  }

  PlacementLedger& operator+=(const PlacementLedger& other) {
    for (size_t i = 0; i < kNumChunkLocations; ++i) {
      media_[i] += other.media_[i];
    }
    cross_rack_ += other.cross_rack_;
    return *this;
  }

 private:
  std::array<MediumTally, kNumChunkLocations> media_{};
  MediumTally cross_rack_;
};

// "N local-memory / N remote-memory / ... / N dfs": the ledger's chunk
// counts in cascade order, for human-readable reports.
std::string DescribeChunks(const PlacementLedger& placed);

// Why the allocation cascade moved past (or preferred) a placement.
enum class SpillReason {
  kPoolFull,
  kTrackerStale,
  kTrackerDown,
  kRackRestricted,
  kServerSick,
  kRpcTimeout,
  kSsdFull,
  kSsdWorn,
  kAffinityHit,
};
inline constexpr size_t kNumSpillReasons =
    static_cast<size_t>(SpillReason::kAffinityHit) + 1;

// The reason's name: the `reason` label of sponge.alloc.decisions and
// sponge.spill.reason, and the spill.decision trace event's arg.
const char* SpillReasonName(SpillReason reason);

// The one "can this server take a chunk of `bytes`" gate, on the tracker
// digest `entry` of the server owning `pool`: a bulk-sized slot needs that
// much free in the bulk level (small-class space cannot hold it), and the
// advertised free bytes must reach `floor` — 1 for a primary (any free
// space is worth an attempt), CopyFloor() for a copy.
bool HasRoomFor(const FreeSpaceEntry& entry, const ChunkPool& pool,
                uint64_t bytes, uint64_t floor);

// The free bytes a server must advertise to take a copy of `bytes`: the
// copy's slot, and at least ReplicationConfig::min_free_fraction of the
// pool, so copies only consume slack and never crowd out foreground spills.
uint64_t CopyFloor(const SpongeConfig& config, const ChunkPool& pool,
                   uint64_t bytes);

// Servers in tracker view `view` that can take a copy of a `bytes` chunk
// whose other copy is on `primary`, other racks first (a whole-rack failure
// then still leaves a copy), same-rack as the fallback; at most `limit`,
// never `primary` or a node for which `skip(node)` holds.
template <typename Skip>
std::vector<size_t> CopyTargets(SpongeEnv* env,
                                const std::vector<FreeSpaceEntry>& view,
                                size_t primary, uint64_t bytes, Skip skip,
                                size_t limit = SIZE_MAX) {
  const size_t primary_rack = env->cluster()->rack_of(primary);
  std::vector<size_t> targets;
  for (const bool off_rack : {true, false}) {
    for (const FreeSpaceEntry& entry : view) {
      if (targets.size() == limit) return targets;
      if (entry.node == primary || skip(entry.node)) continue;
      if ((env->cluster()->rack_of(entry.node) != primary_rack) != off_rack) {
        continue;
      }
      const ChunkPool& pool = env->server(entry.node).pool();
      if (!HasRoomFor(entry, pool, bytes,
                      CopyFloor(env->config(), pool, bytes))) {
        continue;
      }
      targets.push_back(entry.node);
    }
  }
  return targets;
}

}  // namespace spongefiles::sponge

#endif  // SPONGEFILES_SPONGE_PLACEMENT_H_
