// The paper's MapReduce macro-benchmark job: the exact median of a large
// set of numbers through a single reduce task, run once spilling to disk
// and once spilling to SpongeFiles on the 30-node testbed.
//
// Scaled down from the benches' full 10 GB so it runs in a few seconds;
// bench/bench_fig4_no_contention reproduces the paper-scale numbers.

#include <cstdio>

#include "common/units.h"
#include "workload/testbed.h"

using namespace spongefiles;
using workload::Testbed;

namespace {

Duration RunOnce(mapred::SpillMode mode) {
  Testbed bed;  // 30 nodes, 1 GB heaps, 1 GB sponge memory per node
  workload::NumbersDatasetConfig data_config;
  data_config.count = 100001;          // values 0..100000
  data_config.record_size = 10 * kKiB;  // ~1 GB total, one straggling reduce
  workload::NumbersDataset numbers(&bed.dfs(), "numbers", data_config);

  auto result = bed.RunJob(workload::MakeMedianJob(&numbers, mode));
  if (!result.ok()) {
    std::printf("job failed: %s\n", result.status().ToString().c_str());
    return 0;
  }
  const mapred::TaskStats* straggler = result->straggler();
  std::printf(
      "%-12s median=%.0f (expected %.0f)  job=%s  straggler: input=%s "
      "spilled=%s chunks=%llu\n",
      mode == mapred::SpillMode::kSponge ? "SpongeFiles" : "disk",
      result->output[0].number, numbers.expected_median(),
      FormatDuration(result->runtime).c_str(),
      FormatBytes(straggler->input_bytes).c_str(),
      FormatBytes(straggler->spill.bytes_spilled).c_str(),
      static_cast<unsigned long long>(straggler->spill.sponge.total_chunks()));
  return result->runtime;
}

}  // namespace

int main() {
  std::printf("median job on the 30-node testbed (1 GB input, 1 GB heaps)\n");
  Duration disk = RunOnce(mapred::SpillMode::kDisk);
  Duration sponge = RunOnce(mapred::SpillMode::kSponge);
  if (disk > 0 && sponge > 0) {
    std::printf("SpongeFiles reduce the job runtime by %.0f%%\n",
                100.0 * (1.0 - static_cast<double>(sponge) /
                                   static_cast<double>(disk)));
  }
  return 0;
}
