#include "sponge/placement.h"

#include <algorithm>

namespace spongefiles::sponge {

namespace {

// Indexed by ChunkLocation.
constexpr const char* kChunkLocationNames[] = {
    "local-memory", "remote-memory", "local-ssd", "local-disk", "dfs",
};
static_assert(std::size(kChunkLocationNames) == kNumChunkLocations);

// Indexed by SpillReason.
constexpr const char* kSpillReasonNames[] = {
    "pool-full",   "tracker-stale", "tracker-down", "rack-restricted",
    "server-sick", "rpc-timeout",   "ssd-full",     "ssd-worn",
    "affinity-hit",
};
static_assert(std::size(kSpillReasonNames) == kNumSpillReasons);

}  // namespace

const char* ChunkLocationName(ChunkLocation location) {
  return kChunkLocationNames[static_cast<size_t>(location)];
}

std::string DescribeChunks(const PlacementLedger& placed) {
  std::string out;
  for (ChunkLocation where : kChunkLocations) {
    if (!out.empty()) out += " / ";
    out += std::to_string(placed[where].chunks) + " ";
    out += ChunkLocationName(where);
  }
  return out;
}

const char* SpillReasonName(SpillReason reason) {
  return kSpillReasonNames[static_cast<size_t>(reason)];
}

bool HasRoomFor(const FreeSpaceEntry& entry, const ChunkPool& pool,
                uint64_t bytes, uint64_t floor) {
  const uint64_t need = pool.class_bytes_for(bytes);
  if (entry.free_bytes < floor) return false;
  return need < pool.chunk_size() || entry.free_bulk_bytes >= need;
}

uint64_t CopyFloor(const SpongeConfig& config, const ChunkPool& pool,
                   uint64_t bytes) {
  const uint64_t capacity = pool.total_chunks() * config.chunk_size;
  const uint64_t min_free = static_cast<uint64_t>(
      config.replication.min_free_fraction * static_cast<double>(capacity));
  return std::max(min_free, pool.class_bytes_for(bytes));
}

}  // namespace spongefiles::sponge
