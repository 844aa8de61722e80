#ifndef SPONGEFILES_BENCH_BENCH_UTIL_H_
#define SPONGEFILES_BENCH_BENCH_UTIL_H_

// Shared helpers for the macro-benchmark binaries: each bench reproduces
// one table or figure from the paper (see DESIGN.md's experiment index)
// by running the three evaluation jobs on the simulated 30-node testbed.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "common/table.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/testbed.h"

namespace spongefiles::bench {

// Observability outputs every bench binary supports:
//   --trace-out=PATH    write a Chrome trace_event JSON (open in Perfetto)
//   --metrics-out=PATH  write the metrics registry snapshot as JSON
struct ObsOptions {
  std::string trace_out;
  std::string metrics_out;
};

// Parses the observability flags (other arguments are ignored, so benches
// can layer their own) and enables tracing when a trace path was given.
inline ObsOptions ParseObsFlags(int argc, char** argv) {
  ObsOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      options.trace_out = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      options.metrics_out = arg.substr(14);
    }
  }
  if (!options.trace_out.empty()) {
    obs::Tracer::Default().set_enabled(true);
  }
  return options;
}

// Writes whichever outputs were requested; call once, after the runs.
// A failed artifact write exits nonzero: a bench invoked for its telemetry
// must not report success while silently dropping it.
inline void WriteObsOutputs(const ObsOptions& options) {
  if (!options.trace_out.empty()) {
    Status written = obs::Tracer::Default().WriteFile(options.trace_out);
    if (written.ok()) {
      std::printf("\ntrace written to %s (%zu events)\n",
                  options.trace_out.c_str(),
                  obs::Tracer::Default().event_count());
    } else {
      std::fprintf(stderr, "trace write failed: %s\n",
                   written.ToString().c_str());
      std::exit(1);
    }
  }
  if (!options.metrics_out.empty()) {
    Status written =
        obs::Registry::Default().WriteJsonFile(options.metrics_out);
    if (written.ok()) {
      std::printf("metrics written to %s (%zu instruments)\n",
                  options.metrics_out.c_str(),
                  obs::Registry::Default().size());
    } else {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   written.ToString().c_str());
      std::exit(1);
    }
  }
}

// Full paper scale by default; SPONGE_BENCH_SCALE=N divides dataset sizes
// by N for quick runs (shapes hold, absolute numbers shrink).
inline uint64_t ScaleDivisor() {
  // lint: det-ok(bench scale knob, read once at startup before any simulated activity)
  const char* env = std::getenv("SPONGE_BENCH_SCALE");
  if (env == nullptr) return 1;
  uint64_t n = std::strtoull(env, nullptr, 10);
  return n == 0 ? 1 : n;
}

inline uint64_t WebBytes() { return GiB(10) / ScaleDivisor(); }
inline uint64_t MedianCount() { return 1000001 / ScaleDivisor(); }
inline uint64_t GrepBytes() { return 4ull * GiB(1024) / ScaleDivisor(); }

enum class MacroJob { kMedian, kAnchortext, kSpamQuantiles };

inline const char* MacroJobName(MacroJob job) {
  switch (job) {
    case MacroJob::kMedian:
      return "Median";
    case MacroJob::kAnchortext:
      return "Frequent Anchortext";
    case MacroJob::kSpamQuantiles:
      return "Spam Quantiles";
  }
  return "?";
}

struct MacroRun {
  Duration runtime = 0;
  mapred::TaskStats straggler;
  bool correct = false;  // job-specific answer check
  std::vector<mapred::TaskStats> background_tasks;
  // Spill accounting summed over every map and reduce task of the job
  // (what the global metrics registry should agree with).
  mapred::SpillStats total_spill;
  // Engine accounting for the whole run (self-perf suite: events/sec and
  // simulated time are read off the testbed before it is torn down).
  uint64_t engine_events = 0;
  SimTime sim_now = 0;
};

struct MacroOptions {
  uint64_t node_memory = GiB(16);
  uint64_t heap_per_slot = GiB(1);
  uint64_t sponge_memory = GiB(1);
  bool background_grep = false;
  sponge::SpongeConfig sponge;
  // Overrides for the Figure 6 configurations.
  bool no_spill = false;  // heap sized to fit everything in memory
  // Explicit dataset sizes (0 = the paper-scale defaults divided by
  // SPONGE_BENCH_SCALE). bench_selfperf pins these so its fixed suite is
  // identical regardless of environment.
  uint64_t web_bytes = 0;
  uint64_t median_count = 0;
  uint64_t grep_bytes = 0;
  // Sponge pool shape (size classes / flat baseline) and the optional
  // per-node SSD rung (capacity 0 = no SSD).
  sponge::ChunkPoolConfig pool;
  cluster::SsdConfig ssd;
};

// Runs one macro job in one configuration on a fresh testbed.
inline MacroRun RunMacro(MacroJob job, mapred::SpillMode mode,
                         const MacroOptions& options) {
  workload::TestbedConfig bed_config;
  bed_config.node_memory = options.node_memory;
  bed_config.heap_per_slot = options.heap_per_slot;
  bed_config.sponge_memory = options.sponge_memory;
  bed_config.sponge = options.sponge;
  bed_config.pool = options.pool;
  bed_config.ssd = options.ssd;
  workload::Testbed bed(bed_config);

  std::unique_ptr<workload::WebDataset> web;
  std::unique_ptr<workload::NumbersDataset> numbers;
  mapred::JobConfig config;
  if (job == MacroJob::kMedian) {
    workload::NumbersDatasetConfig data;
    data.count = options.median_count != 0 ? options.median_count
                                           : MedianCount();
    numbers = std::make_unique<workload::NumbersDataset>(&bed.dfs(),
                                                         "numbers", data);
    config = workload::MakeMedianJob(numbers.get(), mode);
  } else {
    workload::WebDatasetConfig data;
    data.total_bytes = options.web_bytes != 0 ? options.web_bytes
                                              : WebBytes();
    web = std::make_unique<workload::WebDataset>(&bed.dfs(), "web", data);
    config = job == MacroJob::kAnchortext
                 ? workload::MakeAnchortextJob(web.get(), mode)
                 : workload::MakeSpamQuantilesJob(web.get(), mode);
  }
  if (options.no_spill) {
    // Figure 6's "no spilling" configuration: the reduce JVM gets a 12 GB
    // heap so the shuffle buffer holds the whole input and nothing is
    // ever written out. Only the reduce heap grows (the paper's setup);
    // map slots and the rest of the memory layout stay stock.
    config.reduce_heap_bytes = GiB(12);
    config.shuffle_buffer_fraction = 0.95;
    config.reduce_retain_fraction = 1.0;
  }

  std::optional<mapred::JobConfig> background;
  std::unique_ptr<workload::ScanDataset> grep_data;
  if (options.background_grep) {
    grep_data = std::make_unique<workload::ScanDataset>(
        &bed.dfs(), "grepdata",
        options.grep_bytes != 0 ? options.grep_bytes : GrepBytes());
    background = workload::MakeGrepJob(grep_data.get(), nullptr);
  }

  MacroRun run;
  auto result = bed.RunJob(std::move(config), std::move(background),
                           &run.background_tasks);
  run.engine_events = bed.engine().events_processed();
  run.sim_now = bed.engine().now();
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", MacroJobName(job),
                 result.status().ToString().c_str());
    return run;
  }
  run.runtime = result->runtime;
  run.straggler = *result->straggler();
  for (const auto& task : result->map_tasks) run.total_spill.Add(task.spill);
  for (const auto& task : result->reduce_tasks) {
    run.total_spill.Add(task.spill);
  }
  switch (job) {
    case MacroJob::kMedian:
      run.correct = result->output.size() == 1 &&
                    result->output[0].number == numbers->expected_median();
      break;
    case MacroJob::kAnchortext:
      // The giant group must report k terms led by the most popular one.
      run.correct = false;
      for (const auto& row : result->output) {
        if (row.key == "english" && row.fields[0] == "term0") {
          run.correct = true;
        }
      }
      break;
    case MacroJob::kSpamQuantiles: {
      run.correct = false;
      std::string giant = workload::WebDataset::DomainName(0);
      for (const auto& row : result->output) {
        if (row.key == giant && row.fields[0] == "q50" &&
            row.number > 0.45 && row.number < 0.55) {
          run.correct = true;
        }
      }
      break;
    }
  }
  return run;
}

inline std::string Pct(double from, double to) {
  return StrFormat("%.0f%%", 100.0 * (1.0 - to / from));
}

}  // namespace spongefiles::bench

#endif  // SPONGEFILES_BENCH_BENCH_UTIL_H_
