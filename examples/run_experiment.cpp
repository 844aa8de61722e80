// A command-line driver for one-off experiments: pick a job, a spill
// mode, node memory, contention, and a scale, and get the runtime plus
// straggler statistics. Everything the figures sweep, hand-drivable.
//
//   run_experiment [--job median|anchortext|quantiles]
//                  [--spill disk|sponge]
//                  [--memory-gb N] [--sponge-gb N]
//                  [--ssd-gb F] [--ssd-bw MBps]
//                  [--background-grep] [--scale N] [--seed N]
//                  [--trace-out FILE] [--metrics-out FILE]

#include <cstdio>
#include <cstring>
#include <string>

#include "common/units.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/testbed.h"

using namespace spongefiles;

namespace {

struct Options {
  std::string job = "median";
  mapred::SpillMode spill = mapred::SpillMode::kSponge;
  uint64_t memory_gb = 16;
  uint64_t sponge_gb = 1;
  // Per-node SSD for the cascade's middle rung; 0 (the default) runs the
  // memory -> disk cascade with no SSD. Fractional GiB welcome.
  double ssd_gb = 0;
  double ssd_bw_mbps = 0;  // 0 keeps the SsdConfig stream-rate defaults
  bool background_grep = false;
  uint64_t scale = 10;  // datasets = paper size / scale
  uint64_t seed = 2014;
  std::string trace_out;
  std::string metrics_out;
};

bool Parse(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--job") {
      const char* v = next();
      if (v == nullptr) return false;
      options->job = v;
    } else if (arg == "--spill") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "disk") == 0) {
        options->spill = mapred::SpillMode::kDisk;
      } else if (std::strcmp(v, "sponge") == 0) {
        options->spill = mapred::SpillMode::kSponge;
      } else {
        return false;
      }
    } else if (arg == "--memory-gb") {
      const char* v = next();
      if (v == nullptr) return false;
      options->memory_gb = std::strtoull(v, nullptr, 10);
    } else if (arg == "--sponge-gb") {
      const char* v = next();
      if (v == nullptr) return false;
      options->sponge_gb = std::strtoull(v, nullptr, 10);
    } else if (arg == "--ssd-gb") {
      const char* v = next();
      if (v == nullptr) return false;
      options->ssd_gb = std::strtod(v, nullptr);
    } else if (arg == "--ssd-bw") {
      const char* v = next();
      if (v == nullptr) return false;
      options->ssd_bw_mbps = std::strtod(v, nullptr);
    } else if (arg == "--background-grep") {
      options->background_grep = true;
    } else if (arg == "--scale") {
      const char* v = next();
      if (v == nullptr) return false;
      options->scale = std::max<uint64_t>(1, std::strtoull(v, nullptr, 10));
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      options->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return false;
      options->trace_out = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return false;
      options->metrics_out = v;
    } else {
      return false;
    }
  }
  return options->job == "median" || options->job == "anchortext" ||
         options->job == "quantiles";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!Parse(argc, argv, &options)) {
    std::fprintf(
        stderr,
        "usage: %s [--job median|anchortext|quantiles] [--spill "
        "disk|sponge] [--memory-gb N] [--sponge-gb N] [--ssd-gb F] "
        "[--ssd-bw MBps] [--background-grep] "
        "[--scale N] [--seed N] [--trace-out FILE] [--metrics-out FILE]\n",
        argv[0]);
    return 2;
  }
  if (!options.trace_out.empty()) {
    obs::Tracer::Default().set_enabled(true);
  }

  workload::TestbedConfig bed_config;
  bed_config.node_memory = GiB(options.memory_gb);
  bed_config.sponge_memory = GiB(options.sponge_gb);
  if (options.ssd_gb > 0) {
    bed_config.ssd.capacity = static_cast<uint64_t>(
        options.ssd_gb * 1024.0 * 1024.0 * 1024.0);
    if (options.ssd_bw_mbps > 0) {
      bed_config.ssd.read_bandwidth = options.ssd_bw_mbps * 1e6;
      bed_config.ssd.write_bandwidth = options.ssd_bw_mbps * 1e6;
    }
  }
  workload::Testbed bed(bed_config);

  std::unique_ptr<workload::WebDataset> web;
  std::unique_ptr<workload::NumbersDataset> numbers;
  mapred::JobConfig config;
  if (options.job == "median") {
    workload::NumbersDatasetConfig data;
    data.count = 1000001 / options.scale;
    data.seed = options.seed;
    numbers = std::make_unique<workload::NumbersDataset>(&bed.dfs(),
                                                         "numbers", data);
    config = workload::MakeMedianJob(numbers.get(), options.spill);
  } else {
    workload::WebDatasetConfig data;
    data.total_bytes = GiB(10) / options.scale;
    data.seed = options.seed;
    web = std::make_unique<workload::WebDataset>(&bed.dfs(), "web", data);
    config = options.job == "anchortext"
                 ? workload::MakeAnchortextJob(web.get(), options.spill)
                 : workload::MakeSpamQuantilesJob(web.get(), options.spill);
  }

  std::optional<mapred::JobConfig> background;
  std::unique_ptr<workload::ScanDataset> grep_data;
  if (options.background_grep) {
    grep_data = std::make_unique<workload::ScanDataset>(
        &bed.dfs(), "grepdata", 4ull * GiB(1024) / options.scale);
    background = workload::MakeGrepJob(grep_data.get(), nullptr);
  }

  auto result = bed.RunJob(std::move(config), std::move(background));
  if (!result.ok()) {
    std::fprintf(stderr, "job failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const mapred::TaskStats* straggler = result->straggler();
  std::printf("job                 : %s (%s spilling)\n",
              options.job.c_str(),
              options.spill == mapred::SpillMode::kSponge ? "SpongeFile"
                                                          : "disk");
  std::printf("runtime             : %s\n",
              FormatDuration(result->runtime).c_str());
  std::printf("map tasks           : %zu\n", result->map_tasks.size());
  if (straggler != nullptr) {
    std::printf("straggler input     : %s (%llu records)\n",
                FormatBytes(straggler->input_bytes).c_str(),
                static_cast<unsigned long long>(straggler->input_records));
    const sponge::PlacementLedger& placed = straggler->spill.sponge;
    std::printf("straggler spilled   : %s in %llu sponge chunks (%s)\n",
                FormatBytes(straggler->spill.bytes_spilled).c_str(),
                static_cast<unsigned long long>(placed.total_chunks()),
                sponge::DescribeChunks(placed).c_str());
  }
  for (size_t i = 0; i < std::min<size_t>(result->output.size(), 5); ++i) {
    const mapred::Record& row = result->output[i];
    std::printf("output[%zu]           : %s %s %.3f\n", i, row.key.c_str(),
                row.fields.empty() ? "" : row.fields[0].c_str(),
                row.number);
  }
  if (!options.trace_out.empty()) {
    Status written = obs::Tracer::Default().WriteFile(options.trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("trace written       : %s\n", options.trace_out.c_str());
  }
  if (!options.metrics_out.empty()) {
    Status written =
        obs::Registry::Default().WriteJsonFile(options.metrics_out);
    if (!written.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("metrics written     : %s\n", options.metrics_out.c_str());
  }
  return 0;
}
