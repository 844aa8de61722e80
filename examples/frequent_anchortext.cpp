// The paper's "Frequent Anchortext" Pig query: group pages by language and
// report each language's most frequent anchortext terms via a holistic
// two-pass top-k UDF. English is the giant, straggling group.

#include <cstdio>

#include "common/units.h"
#include "workload/testbed.h"

using namespace spongefiles;

int main() {
  workload::Testbed bed;
  workload::WebDatasetConfig web_config;
  web_config.total_bytes = GiB(1);  // scaled down; benches run 10 GB
  workload::WebDataset web(&bed.dfs(), "webcrawl", web_config);

  auto result = bed.RunJob(workload::MakeAnchortextJob(
      &web, mapred::SpillMode::kSponge, /*k=*/5));
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("top anchortext terms per language (job took %s):\n",
              FormatDuration(result->runtime).c_str());
  std::string current;
  for (const mapred::Record& row : result->output) {
    if (row.key != current) {
      current = row.key;
      std::printf("  %s:\n", current.c_str());
    }
    std::printf("    %-12s %8.0f occurrences\n", row.fields[0].c_str(),
                row.number);
  }

  const mapred::TaskStats* straggler = result->straggler();
  std::printf(
      "straggling reduce (english): input=%s spilled=%s via %llu sponge "
      "chunks (%s)\n",
      FormatBytes(straggler->input_bytes).c_str(),
      FormatBytes(straggler->spill.bytes_spilled).c_str(),
      static_cast<unsigned long long>(straggler->spill.sponge.total_chunks()),
      sponge::DescribeChunks(straggler->spill.sponge).c_str());
  return 0;
}
