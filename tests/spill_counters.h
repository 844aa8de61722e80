// Registry-vs-ledger check for the per-medium spill counters: a SpongeFile
// bumps sponge.spill.{bytes,chunks}{medium} and, for remote memory,
// sponge.spill.remote.{bytes,chunks}{locality} on the same path that fills
// its PlacementLedger, so a test can snapshot the counters, write a file,
// and expect the counters to have moved by exactly the file's ledger.

#ifndef SPONGEFILES_TESTS_SPILL_COUNTERS_H_
#define SPONGEFILES_TESTS_SPILL_COUNTERS_H_

#include <gtest/gtest.h>

#include <array>

#include "obs/metrics.h"
#include "sponge/placement.h"

namespace spongefiles::sponge {

struct SpillCounters {
  std::array<MediumTally, kNumChunkLocations> media{};
  MediumTally rack_local;
  MediumTally cross_rack;
};

inline MediumTally ReadCounterPair(const char* bytes, const char* chunks,
                                   const obs::Labels& labels) {
  obs::Registry& registry = obs::Registry::Default();
  return {registry.counter(chunks, labels)->value(),
          registry.counter(bytes, labels)->value()};
}

inline SpillCounters ReadSpillCounters() {
  SpillCounters out;
  for (ChunkLocation where : kChunkLocations) {
    out.media[static_cast<size_t>(where)] =
        ReadCounterPair("sponge.spill.bytes", "sponge.spill.chunks",
                        {{"medium", ChunkLocationName(where)}});
  }
  out.rack_local =
      ReadCounterPair("sponge.spill.remote.bytes", "sponge.spill.remote.chunks",
                      {{"locality", "rack-local"}});
  out.cross_rack =
      ReadCounterPair("sponge.spill.remote.bytes", "sponge.spill.remote.chunks",
                      {{"locality", "cross-rack"}});
  return out;
}

inline void ExpectMovedBy(const MediumTally& before, const MediumTally& after,
                          const MediumTally& expected, const char* what) {
  EXPECT_EQ(after.chunks - before.chunks, expected.chunks) << what;
  EXPECT_EQ(after.bytes - before.bytes, expected.bytes) << what;
}

// Expects every per-medium and per-locality counter to have moved by
// exactly `placed` since `before` was read.
inline void ExpectCountersMatchLedger(const SpillCounters& before,
                                      const PlacementLedger& placed) {
  const SpillCounters after = ReadSpillCounters();
  for (ChunkLocation where : kChunkLocations) {
    const size_t i = static_cast<size_t>(where);
    ExpectMovedBy(before.media[i], after.media[i], placed[where],
                  ChunkLocationName(where));
  }
  ExpectMovedBy(before.rack_local, after.rack_local, placed.rack_local(),
                "rack-local");
  ExpectMovedBy(before.cross_rack, after.cross_rack, placed.cross_rack(),
                "cross-rack");
}

}  // namespace spongefiles::sponge

#endif  // SPONGEFILES_TESTS_SPILL_COUNTERS_H_
