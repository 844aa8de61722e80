// Self-performance suite: wall-clock benchmarks of the simulator itself,
// the measurement side of the zero-copy data plane and event-engine fast
// path (DESIGN.md "Performance engineering").
//
// Unlike every other bench in this directory, which reports *simulated*
// quantities, this one deliberately reads the host's wall clock and RSS —
// the only place in the tree allowed to (spongelint waivers below). The
// fixed suite:
//
//   event_storm       ~1M zero-delay yields + interleaved timed events;
//                     pure engine throughput, no workload.
//   table2_spill      Median + Spam Quantiles under SpongeFile spilling at
//                     pinned dataset sizes (the Table 2 shape).
//   fig5_contention   Frequent Anchortext with a background grep on 4 GB
//                     nodes (the Figure 5 shape).
//   chaos_sweep       N seeded gray-failure runs of the skewed median job,
//                     leak-checked after a GC sweep.
//
// Dataset sizes are pinned here (not via SPONGE_BENCH_SCALE) so two runs
// always execute the identical simulation. Determinism is the acceptance
// gate:
//   --sim-out=PATH  writes only simulated quantities; byte-identical
//                   across runs for the same build (tools/perf.sh diffs
//                   it, along with --trace-out and --metrics-out
//                   snapshots).
//   --out=PATH      writes the wall-clock report (BENCH_selfperf.json).
//   --pool=MODE     tiered (default) or flat: the chunk pool's shape.
//   --scenarios=a,b restricts the suite to the named scenarios.
//   --chaos-seeds=N injected-fault runs in chaos_sweep (default 5).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/json.h"
#include "sim/parallel.h"
#include "sponge/failure.h"

using namespace spongefiles;
using namespace spongefiles::bench;

namespace {

// Host wall clock in milliseconds. Monotonic, never feeds simulated state.
double WallMs() {
  // lint: det-ok(self-perf bench measures host wall time by design)
  auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t.time_since_epoch())
      .count();
}

// Peak resident set, bytes (ru_maxrss is KiB on Linux).
uint64_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

// --pool=flat runs every scenario on the pre-tiered allocator (one global
// free list + one global lock); the default is the tiered pool. tools/
// perf.sh runs fig5_contention both ways and gates on tiered winning.
bool g_pool_flat = false;

// --scenarios=a,b restricts the suite (perf.sh's pool gate runs just
// fig5_contention twice instead of the whole suite). Empty = everything.
std::string g_scenarios;

bool ScenarioEnabled(const char* name) {
  if (g_scenarios.empty()) return true;
  size_t pos = 0;
  while (pos < g_scenarios.size()) {
    size_t comma = g_scenarios.find(',', pos);
    if (comma == std::string::npos) comma = g_scenarios.size();
    if (g_scenarios.compare(pos, comma - pos, name) == 0) return true;
    pos = comma + 1;
  }
  return false;
}

struct ScenarioResult {
  std::string name;
  double wall_ms = 0;
  uint64_t engine_events = 0;  // deterministic
  SimTime sim_time = 0;        // deterministic
  // Deterministic: summed job runtimes. Unlike sim_time (the testbed's
  // final clock, often pinned by a fixed-length background workload) this
  // moves with the data plane's efficiency — the pool gate compares it
  // between --pool=flat and --pool=tiered.
  Duration job_runtime = 0;
  uint64_t sim_bytes = 0;      // deterministic: logical bytes the data
                               // plane moved (spill accounting)
  uint64_t digest = 0;         // deterministic: FNV over scenario outputs
  bool ok = false;             // deterministic
};

// FNV-1a 64 over arbitrary stuff, for the per-scenario output digest.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* p, size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ c[i]) * 1099511628211ull;
  }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
};

// ---- event_storm -----------------------------------------------------------

sim::Task<> StormLane(sim::Engine* engine, uint64_t lane, uint64_t yields,
                      uint64_t* acc) {
  for (uint64_t i = 0; i < yields; ++i) {
    // Mostly zero-delay yields (the ring's diet) with a timed event mixed
    // in per lane per 16 iterations (keeps the heap honest).
    co_await engine->Delay((i & 15) == lane ? 1 : 0);
    *acc += lane + 1;
  }
}

ScenarioResult RunEventStorm() {
  ScenarioResult r;
  r.name = "event_storm";
  constexpr uint64_t kLanes = 8;
  constexpr uint64_t kYields = 125000;  // 8 * 125k = 1M events
  double start = WallMs();
  sim::Engine engine;
  std::vector<uint64_t> accs(kLanes);
  for (uint64_t lane = 0; lane < kLanes; ++lane) {
    engine.Spawn(StormLane(&engine, lane, kYields, &accs[lane]));
  }
  engine.Run();
  uint64_t acc = 0;
  for (uint64_t a : accs) acc += a;
  r.engine_events = engine.events_processed();
  r.sim_time = engine.now();
  r.wall_ms = WallMs() - start;
  Digest d;
  d.U64(acc);
  d.U64(engine.now());
  r.digest = d.h;
  r.ok = acc == kLanes * (kLanes + 1) / 2 * kYields;
  return r;
}

// ---- macro-job scenarios ---------------------------------------------------

// Pinned sizes: small enough that the suite finishes in minutes, large
// enough that every job spills through the sponge path.
MacroOptions PinnedOptions() {
  MacroOptions options;
  options.node_memory = GiB(4);
  options.heap_per_slot = MiB(128);
  options.sponge_memory = MiB(256);
  options.median_count = 200001;
  options.web_bytes = MiB(256);
  options.grep_bytes = GiB(1);
  options.pool.flat = g_pool_flat;
  return options;
}

void FoldRun(const MacroRun& run, ScenarioResult* r, Digest* d) {
  r->engine_events += run.engine_events;
  r->sim_time += run.sim_now;
  r->job_runtime += run.runtime;
  r->sim_bytes += run.total_spill.bytes_spilled + run.straggler.input_bytes;
  r->ok = r->ok && run.correct;
  d->U64(run.runtime);
  d->U64(run.total_spill.bytes_spilled);
  d->U64(run.total_spill.sponge.total_chunks());
  d->U64(run.straggler.input_bytes);
  d->U64(run.engine_events);
  d->U64(run.sim_now);
}

ScenarioResult RunTable2Spill() {
  ScenarioResult r;
  r.name = "table2_spill";
  r.ok = true;
  Digest d;
  double start = WallMs();
  for (MacroJob job : {MacroJob::kMedian, MacroJob::kSpamQuantiles}) {
    MacroRun run = RunMacro(job, mapred::SpillMode::kSponge, PinnedOptions());
    FoldRun(run, &r, &d);
  }
  r.wall_ms = WallMs() - start;
  r.digest = d.h;
  return r;
}

ScenarioResult RunFig5Contention() {
  ScenarioResult r;
  r.name = "fig5_contention";
  r.ok = true;
  Digest d;
  double start = WallMs();
  MacroOptions options = PinnedOptions();
  options.background_grep = true;
  MacroRun run =
      RunMacro(MacroJob::kAnchortext, mapred::SpillMode::kSponge, options);
  FoldRun(run, &r, &d);
  r.wall_ms = WallMs() - start;
  r.digest = d.h;
  return r;
}

// ---- chaos_sweep -----------------------------------------------------------

struct ChaosOutcome {
  Duration runtime = 0;
  std::vector<mapred::Record> output;
  uint64_t leaked_chunks = 0;
  uint64_t engine_events = 0;
  SimTime sim_now = 0;
  uint64_t spilled_bytes = 0;
  bool ok = false;
};

constexpr SimTime kFaultHorizon = Seconds(90);

// The chaos test's scenario (tests/sponge_chaos_test.cc) sans gtest: the
// skewed median job on a small testbed under a seeded gray-failure
// schedule, GC-swept afterwards and leak-counted.
ChaosOutcome RunChaosJob(uint64_t seed, bool inject) {
  ChaosOutcome out;
  workload::TestbedConfig bed_config;
  bed_config.num_nodes = 8;
  bed_config.sponge_memory = MiB(64);
  bed_config.sponge.rpc.hedge_reads = true;
  bed_config.pool.flat = g_pool_flat;
  workload::Testbed bed(bed_config);
  workload::NumbersDatasetConfig data;
  data.count = 50001;
  workload::NumbersDataset numbers(&bed.dfs(), "nums", data);

  sponge::FailureInjector injector(&bed.env(), seed);
  if (inject) {
    sponge::ChaosOptions options;
    options.start = Seconds(2);
    options.horizon = kFaultHorizon;
    options.num_faults = 10;
    injector.ScheduleChaos(options);
  }

  auto job = workload::MakeMedianJob(&numbers, mapred::SpillMode::kSponge);
  job.speculation.enabled = true;
  job.speculation.check_period = Seconds(1);
  job.speculation.min_attempt_age = Seconds(3);
  auto result = bed.RunJob(std::move(job));
  if (!result.ok()) {
    std::fprintf(stderr, "chaos seed %llu failed: %s\n",
                 static_cast<unsigned long long>(seed),
                 result.status().ToString().c_str());
    return out;
  }
  out.runtime = result->runtime;
  out.output = result->output;
  for (const auto& task : result->map_tasks) {
    out.spilled_bytes += task.spill.bytes_spilled;
  }
  for (const auto& task : result->reduce_tasks) {
    out.spilled_bytes += task.spill.bytes_spilled;
  }

  SimTime settle = std::max(bed.engine().now(), kFaultHorizon) + Seconds(10);
  bed.engine().RunUntil(settle);

  bool swept = false;
  auto sweep = [](workload::Testbed* tb, ChaosOutcome* record,
                  bool* done) -> sim::Task<> {
    for (size_t n = 0; n < tb->cluster().size(); ++n) {
      (void)co_await tb->env().server(n).GcSweep();
      record->leaked_chunks +=
          tb->env().server(n).pool().AllocatedChunks().size();
    }
    *done = true;
  };
  bed.engine().Spawn(sweep(&bed, &out, &swept));
  bed.engine().RunUntil(bed.engine().now() + Seconds(10));
  out.engine_events = bed.engine().events_processed();
  out.sim_now = bed.engine().now();
  out.ok = swept && out.output.size() == 1 &&
           out.output[0].number == numbers.expected_median();
  return out;
}

ScenarioResult RunChaosSweep(int seeds) {
  ScenarioResult r;
  r.name = "chaos_sweep";
  r.ok = true;
  Digest d;
  double start = WallMs();
  ChaosOutcome baseline = RunChaosJob(0, /*inject=*/false);
  r.ok = r.ok && baseline.ok && baseline.leaked_chunks == 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    ChaosOutcome chaotic = RunChaosJob(static_cast<uint64_t>(seed),
                                       /*inject=*/true);
    r.ok = r.ok && chaotic.ok && chaotic.leaked_chunks == 0 &&
           chaotic.output == baseline.output;
    r.engine_events += chaotic.engine_events;
    r.sim_time += chaotic.sim_now;
    r.sim_bytes += chaotic.spilled_bytes;
    d.U64(chaotic.runtime);
    d.U64(chaotic.spilled_bytes);
    d.U64(chaotic.leaked_chunks);
    d.U64(chaotic.engine_events);
  }
  r.engine_events += baseline.engine_events;
  r.sim_time += baseline.sim_now;
  r.sim_bytes += baseline.spilled_bytes;
  d.U64(baseline.runtime);
  d.U64(baseline.engine_events);
  r.wall_ms = WallMs() - start;
  r.digest = d.h;
  return r;
}

// ---- reports ---------------------------------------------------------------

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  int closed = std::fclose(f);
  return written == text.size() && closed == 0;
}

// Simulated quantities only — must be byte-identical across build flavors.
std::string SimJson(const std::vector<ScenarioResult>& results) {
  std::string out = "{\n  \"scenarios\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    out += "    {\"name\": ";
    obs::AppendJsonEscaped(&out, r.name);
    out += ", \"engine_events\": ";
    obs::AppendJsonUint(&out, r.engine_events);
    out += ", \"sim_time_us\": ";
    obs::AppendJsonUint(&out, static_cast<uint64_t>(r.sim_time));
    out += ", \"job_runtime_us\": ";
    obs::AppendJsonUint(&out, static_cast<uint64_t>(r.job_runtime));
    out += ", \"sim_bytes\": ";
    obs::AppendJsonUint(&out, r.sim_bytes);
    out += ", \"digest\": ";
    obs::AppendJsonUint(&out, r.digest);
    out += ", \"ok\": ";
    out += r.ok ? "true" : "false";
    out += "}";
    if (i + 1 < results.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string WallJson(const std::vector<ScenarioResult>& results) {
  const char* flavor = "fastpath";
  double total_wall = 0;
  uint64_t total_events = 0, total_bytes = 0;
  for (const ScenarioResult& r : results) {
    total_wall += r.wall_ms;
    total_events += r.engine_events;
    total_bytes += r.sim_bytes;
  }
  std::string out = "{\n  \"bench\": \"selfperf\",\n  \"flavor\": \"";
  out += flavor;
  out += "\",\n  \"pool\": \"";
  out += g_pool_flat ? "flat" : "tiered";
  out += "\",\n  \"host_cores\": ";
  obs::AppendJsonUint(&out, sim::HostCores());
  out += ",\n  \"scenarios\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    double secs = r.wall_ms / 1000.0;
    out += "    {\"name\": ";
    obs::AppendJsonEscaped(&out, r.name);
    out += ", \"wall_ms\": ";
    obs::AppendJsonDouble(&out, r.wall_ms);
    out += ", \"engine_events\": ";
    obs::AppendJsonUint(&out, r.engine_events);
    out += ", \"events_per_sec\": ";
    obs::AppendJsonDouble(&out, secs > 0 ? r.engine_events / secs : 0);
    out += ", \"sim_bytes\": ";
    obs::AppendJsonUint(&out, r.sim_bytes);
    out += ", \"sim_bytes_per_sec\": ";
    obs::AppendJsonDouble(&out, secs > 0 ? r.sim_bytes / secs : 0);
    out += ", \"ok\": ";
    out += r.ok ? "true" : "false";
    out += "}";
    if (i + 1 < results.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n  \"total_wall_ms\": ";
  obs::AppendJsonDouble(&out, total_wall);
  out += ",\n  \"total_engine_events\": ";
  obs::AppendJsonUint(&out, total_events);
  double total_secs = total_wall / 1000.0;
  out += ",\n  \"events_per_sec\": ";
  obs::AppendJsonDouble(&out, total_secs > 0 ? total_events / total_secs : 0);
  out += ",\n  \"sim_bytes_per_sec\": ";
  obs::AppendJsonDouble(&out, total_secs > 0 ? total_bytes / total_secs : 0);
  out += ",\n  \"peak_rss_bytes\": ";
  obs::AppendJsonUint(&out, PeakRssBytes());
  out += "\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ObsOptions obs_options = ParseObsFlags(argc, argv);
  std::string out_path = "BENCH_selfperf.json";
  std::string sim_out_path;
  int chaos_seeds = 5;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--sim-out=", 0) == 0) {
      sim_out_path = arg.substr(10);
    } else if (arg.rfind("--chaos-seeds=", 0) == 0) {
      chaos_seeds = std::atoi(arg.c_str() + 14);
      if (chaos_seeds < 1) chaos_seeds = 1;
    } else if (arg.rfind("--pool=", 0) == 0) {
      std::string mode = arg.substr(7);
      if (mode != "flat" && mode != "tiered") {
        std::fprintf(stderr, "unknown --pool=%s (flat|tiered)\n",
                     mode.c_str());
        return 2;
      }
      g_pool_flat = mode == "flat";
    } else if (arg.rfind("--scenarios=", 0) == 0) {
      g_scenarios = arg.substr(12);
    }
  }

  std::printf("self-perf suite (fast-path data plane, pool=%s)\n\n",
              g_pool_flat ? "flat" : "tiered");

  std::vector<ScenarioResult> results;
  if (ScenarioEnabled("event_storm")) results.push_back(RunEventStorm());
  if (ScenarioEnabled("table2_spill")) results.push_back(RunTable2Spill());
  if (ScenarioEnabled("fig5_contention")) {
    results.push_back(RunFig5Contention());
  }
  if (ScenarioEnabled("chaos_sweep")) {
    results.push_back(RunChaosSweep(chaos_seeds));
  }
  if (results.empty()) {
    std::fprintf(stderr, "no scenarios matched --scenarios=%s\n",
                 g_scenarios.c_str());
    return 2;
  }

  AsciiTable table({"Scenario", "wall", "events", "Mev/s", "sim bytes",
                    "ok"});
  bool all_ok = true;
  for (const ScenarioResult& r : results) {
    all_ok = all_ok && r.ok;
    double secs = r.wall_ms / 1000.0;
    table.AddRow({r.name, StrFormat("%.0f ms", r.wall_ms),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(r.engine_events)),
                  StrFormat("%.2f",
                            secs > 0 ? r.engine_events / secs / 1e6 : 0.0),
                  FormatBytes(r.sim_bytes), r.ok ? "yes" : "NO"});
  }
  table.Print();
  std::printf("\npeak RSS: %s\n", FormatBytes(PeakRssBytes()).c_str());

  if (!WriteText(out_path, WallJson(results))) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("report written to %s\n", out_path.c_str());
  if (!sim_out_path.empty()) {
    if (!WriteText(sim_out_path, SimJson(results))) {
      std::fprintf(stderr, "failed to write %s\n", sim_out_path.c_str());
      return 1;
    }
    std::printf("sim snapshot written to %s\n", sim_out_path.c_str());
  }
  WriteObsOutputs(obs_options);
  return all_ok ? 0 : 1;
}
