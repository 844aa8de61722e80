// Datacenter-scale replay: thousands of concurrent skewed jobs from the
// Figure-1 trace synthesizer spilling through SpongeFiles on a multi-rack
// cluster (ISSUE 6 / ROADMAP "datacenter-scale simulation"). Racks sit
// behind a 4:1 oversubscribed core, the memory tracker is sharded per
// rack with gossip-fed cross-rack visibility, and the allocation cascade
// runs every rung (local -> rack-local remote -> cross-rack remote ->
// local SSD -> disk/DFS).
//
// Mid-run, one rack's tracker shard is taken down (a seeded chaos event).
// The acceptance cross-check: only that rack's tasks record tracker-down
// spill decisions — every other rack keeps its remote-memory visibility —
// verified here from the per-rack sponge.spill.reason counters.
//
// Reported per rack: spill-medium breakdown (chunks/bytes incl. the
// cross-rack subset), tracker-shard load (polls, queries, digests merged),
// and core-link utilization (uplink/downlink busy time over the makespan).
//
//   --out=PATH       wall-clock + full report (default BENCH_datacenter.json)
//   --sim-out=PATH   simulated quantities only; byte-identical per seed
//   --racks=N --nodes-per-rack=N --jobs=N --seed=N   scenario shape
//   --ssd-gb=F       per-node SSD capacity in GiB (0 removes the SSD rung;
//                    default 0.015625 = 16 MiB, 2x the per-node sponge)
//   --ssd-bw=N       SSD read+write stream rate in MB/s (0 = defaults)
//   --engine=legacy|seq   event-loop driver: the legacy single queue or
//                    the rack-sharded serial schedule (DESIGN.md §13).
//                    Replay tasks are homed on their rack's lane.
//   (plus the standard --trace-out= / --metrics-out= observability flags)
//
// The default shape (16 racks x 32 nodes, 1200 jobs) satisfies the
// >=500-node / >=16-rack / >=1k-concurrent-job acceptance bar;
// tools/check.sh runs a small smoke shape under the sanitizers.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/topology.h"
#include "common/random.h"
#include "obs/json.h"
#include "sim/parallel.h"
#include "sponge/failure.h"
#include "sponge/sponge_file.h"
#include "workload/trace.h"

using namespace spongefiles;
using namespace spongefiles::bench;

namespace {

// Host wall clock in milliseconds. Monotonic, never feeds simulated state.
double WallMs() {
  // lint: det-ok(bench wall-clock measurement; reported separately from sim outputs)
  auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t.time_since_epoch())
      .count();
}

uint64_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

// FNV-1a 64 over the deterministic outputs.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void U64(uint64_t v) {
    const auto* c = reinterpret_cast<const unsigned char*>(&v);
    for (size_t i = 0; i < sizeof(v); ++i) h = (h ^ c[i]) * 1099511628211ull;
  }
};

struct Options {
  size_t racks = 16;
  size_t nodes_per_rack = 32;
  size_t jobs = 1200;
  uint64_t seed = 14;
  size_t max_tasks_per_job = 50;
  // Per-node local SSD for the cascade's middle rung. The default (2x the
  // 8 MiB per-node sponge) leaves the SSD visibly absorbing overflow while
  // concurrent demand still pushes the tail to disk; --ssd-gb=0 removes
  // the rung entirely (the pre-SSD cascade, byte-identical placements).
  uint64_t ssd_bytes = 16ull * 1024 * 1024;  // 2 * kSpongePerNode
  // --ssd-bw=MB/s overrides both the read and write stream rates (0 keeps
  // the SsdConfig defaults: 2 GiB/s read, 1 GiB/s write).
  double ssd_bw_mbps = 0;
  std::string engine_mode = "legacy";  // legacy | seq
  std::string out = "BENCH_datacenter.json";
  std::string sim_out;
};

// Per-task spill demand, scaled down from the trace's reduce-input bytes
// so the replay stays tractable while keeping the Figure-1 skew shape.
constexpr uint64_t kSizeDivisor = 8;
constexpr uint64_t kMinTaskBytes = 256 * 1024;
constexpr uint64_t kMaxTaskBytes = 32ull * 1024 * 1024;
constexpr uint64_t kSpongePerNode = 8ull * 1024 * 1024;
constexpr int64_t kSlotsPerNode = 2;

// Jobs arrive uniformly over this window; spill work queues on node slots
// far past it, which is what makes the replay concurrent.
constexpr SimTime kArrivalStart = Seconds(2);
constexpr SimTime kArrivalWindow = Seconds(60);
// The chaos event: one rack's tracker shard down for a mid-run window.
constexpr SimTime kOutageAt = Seconds(25);
constexpr Duration kOutageDuration = Seconds(30);

struct TaskPlan {
  size_t job = 0;
  size_t index = 0;  // within the job
  size_t node = 0;
  uint64_t bytes = 0;
  SimTime at = 0;
};

struct RackAgg {
  uint64_t tasks = 0;
  sponge::PlacementLedger placed;
};

// The per-rack report columns, in JSON key order: the ledger's media with
// remote memory split by rack locality.
constexpr const char* kColumnKeys[] = {
    "local", "remote_rack_local", "remote_cross_rack", "ssd", "disk", "dfs",
};

std::array<sponge::MediumTally, std::size(kColumnKeys)> Columns(
    const sponge::PlacementLedger& placed) {
  using sponge::ChunkLocation;
  return {placed[ChunkLocation::kLocalMemory], placed.rack_local(),
          placed.cross_rack(),                 placed[ChunkLocation::kLocalSsd],
          placed[ChunkLocation::kLocalDisk],   placed[ChunkLocation::kDfs]};
}

// Job/task progress tallies, striped by lane: a job's tasks are all homed
// on one rack (hence one lane under the rack-sharded engine), so each lane
// tracks its own active and peak job counts (see peak_concurrent_jobs).
// Legacy engine: one entry, identical to shared scalars.
struct LaneTally {
  size_t active_jobs = 0;
  size_t peak_jobs = 0;
  size_t tasks_done = 0;
  size_t tasks_failed = 0;
};

struct ReplayState {
  sim::Engine* engine = nullptr;
  sponge::SpongeEnv* env = nullptr;
  std::vector<std::unique_ptr<sim::Semaphore>>* slots = nullptr;
  std::vector<RackAgg>* agg = nullptr;
  std::vector<uint32_t>* job_remaining = nullptr;
  std::vector<uint8_t>* job_started = nullptr;
  std::vector<LaneTally> tally;  // indexed by lane
};

sim::Task<> RunReplayTask(ReplayState* state, size_t job, size_t index,
                          size_t node, uint64_t bytes) {
  // The task never migrates lanes (RPC hops always return home), so its
  // tally stripe is stable across every await below.
  LaneTally& tally = state->tally[state->engine->current_lane()];
  if ((*state->job_started)[job] == 0) {
    (*state->job_started)[job] = 1;
    ++tally.active_jobs;
    tally.peak_jobs = std::max(tally.peak_jobs, tally.active_jobs);
  }
  sim::Semaphore* slot = (*state->slots)[node].get();
  co_await slot->Acquire();
  sponge::SpongeEnv* env = state->env;
  sponge::TaskContext task = env->StartTask(node);
  sponge::SpongeFile file(env, &task,
                          "dc.j" + std::to_string(job) + ".t" +
                              std::to_string(index));
  ByteRuns data;
  data.AppendZeros(bytes);
  Status status = co_await file.Append(std::move(data));
  if (status.ok()) status = co_await file.Close();
  if (status.ok()) {
    RackAgg& agg = (*state->agg)[env->cluster()->rack_of(node)];
    ++agg.tasks;
    agg.placed += file.ledger();
  } else {
    ++tally.tasks_failed;
  }
  co_await file.Delete();
  env->EndTask(task);
  slot->Release();
  if (--(*state->job_remaining)[job] == 0) --tally.active_jobs;
  ++tally.tasks_done;
}

uint64_t TrackerDownCount(size_t rack) {
  return obs::Registry::Default()
      .counter("sponge.spill.reason",
               {{"rack", std::to_string(rack)}, {"reason", "tracker-down"}})
      ->value();
}

struct RunResult {
  // Deterministic.
  size_t num_nodes = 0;
  size_t tasks_total = 0;
  size_t tasks_done = 0;
  size_t tasks_failed = 0;
  // Under the sharded engine this is the sum of per-lane peaks (each
  // rack's tasks stay on one lane): an upper bound on the true cluster
  // peak, equal to it on the legacy engine. Deterministic either way.
  size_t peak_concurrent_jobs = 0;
  SimTime makespan = 0;
  uint64_t engine_events = 0;
  std::vector<uint64_t> per_lane_events;  // [global, rack 0, rack 1, ...]
  uint64_t spill_bytes_total = 0;
  std::vector<RackAgg> agg;
  std::vector<uint64_t> tracker_down;    // per rack
  std::vector<uint64_t> shard_polls;     // per rack
  std::vector<uint64_t> shard_queries;   // per rack
  std::vector<uint64_t> shard_digests;   // per rack
  std::vector<uint64_t> uplink_bytes;    // per rack
  std::vector<uint64_t> downlink_bytes;  // per rack
  std::vector<Duration> uplink_busy;     // per rack
  std::vector<Duration> downlink_busy;   // per rack
  size_t outage_rack = 0;
  bool outage_isolated = false;
  bool ok = false;
  uint64_t digest = 0;
  // Wall clock (not deterministic; kept out of --sim-out, which two runs
  // of the same shape must reproduce byte for byte).
  double wall_ms = 0;
};

RunResult RunReplay(const Options& options) {
  RunResult result;
  double start_wall = WallMs();

  cluster::TopologyConfig topo;
  topo.num_racks = options.racks;
  topo.nodes_per_rack = options.nodes_per_rack;
  topo.oversubscription = 4.0;
  topo.node.sponge_memory = kSpongePerNode;
  topo.node.ssd.capacity = options.ssd_bytes;
  if (options.ssd_bw_mbps > 0) {
    topo.node.ssd.read_bandwidth = options.ssd_bw_mbps * 1e6;
    topo.node.ssd.write_bandwidth = options.ssd_bw_mbps * 1e6;
  }
  result.num_nodes = topo.num_racks * topo.nodes_per_rack;

  sim::Engine engine;
  cluster::ClusterConfig cc = cluster::MakeClusterConfig(topo);
  // Sharded schedule: one lane per rack plus the global lane. The
  // lookahead is the minimum cross-rack message delay — no event on one
  // rack can affect another sooner than the core's latency, which is what
  // lets a whole window of each rack's events run without coordination.
  if (options.engine_mode == "seq") {
    std::vector<size_t> rack_of;
    rack_of.reserve(result.num_nodes);
    for (size_t i = 0; i < result.num_nodes; ++i) {
      rack_of.push_back(i / options.nodes_per_rack);
    }
    engine.ConfigureShards(sim::RackShardPlan(
        rack_of, options.racks,
        cc.network.latency + cc.network.cross_rack_latency));
  }
  cluster::Cluster cluster(&engine, cc);
  cluster::Dfs dfs(&cluster);
  sponge::SpongeConfig sponge_config;
  sponge_config.allow_cross_rack = true;
  sponge::SpongeEnv env(&cluster, &dfs, sponge_config);
  env.tracker().Start();
  env.StartServices();

  // Build the replay plan: per-job reduce-task demands from the Figure-1
  // synthesizer, each job homed on one rack (its tasks round-robin over
  // that rack's nodes) so job-level skew becomes rack-level imbalance.
  workload::TraceConfig trace_config;
  trace_config.num_jobs = options.jobs;
  trace_config.seed = options.seed;
  std::vector<workload::TraceJob> jobs =
      workload::TraceSynthesizer(trace_config).Generate();
  Rng placement_rng(options.seed * 2654435761ull + 1);
  std::vector<TaskPlan> plan;
  std::vector<uint32_t> job_remaining(jobs.size(), 0);
  for (size_t j = 0; j < jobs.size(); ++j) {
    const workload::TraceJob& job = jobs[j];
    size_t home_rack = placement_rng.Uniform(options.racks);
    SimTime arrival =
        kArrivalStart + static_cast<SimTime>(placement_rng.Uniform(
                            static_cast<uint64_t>(kArrivalWindow)));
    size_t num_tasks =
        std::min(job.reduce_input_bytes.size(), options.max_tasks_per_job);
    for (size_t t = 0; t < num_tasks; ++t) {
      uint64_t bytes = static_cast<uint64_t>(job.reduce_input_bytes[t]) /
                       kSizeDivisor;
      bytes = std::clamp(bytes, kMinTaskBytes, kMaxTaskBytes);
      size_t node = home_rack * options.nodes_per_rack +
                    (t % options.nodes_per_rack);
      plan.push_back({j, t, node, bytes, arrival});
      result.spill_bytes_total += bytes;
    }
    job_remaining[j] = static_cast<uint32_t>(num_tasks);
  }
  result.tasks_total = plan.size();

  // The chaos event, seeded through the injector so it lands in the fault
  // schedule like any other (and BitRot-style draws stay reproducible).
  result.outage_rack = options.racks / 2;
  sponge::FailureInjector injector(&env, options.seed);
  injector.ScheduleTrackerShardOutage(result.outage_rack, kOutageAt,
                                      kOutageDuration);

  std::vector<std::unique_ptr<sim::Semaphore>> slots;
  slots.reserve(result.num_nodes);
  for (size_t n = 0; n < result.num_nodes; ++n) {
    slots.push_back(std::make_unique<sim::Semaphore>(&engine, kSlotsPerNode));
  }
  std::vector<RackAgg> agg(options.racks);
  std::vector<uint8_t> job_started(jobs.size(), 0);
  ReplayState state;
  state.engine = &engine;
  state.env = &env;
  state.slots = &slots;
  state.agg = &agg;
  state.job_remaining = &job_remaining;
  state.job_started = &job_started;
  state.tally.resize(engine.lane_count());

  // Home each task on its rack's lane (lane 0 on the legacy engine, where
  // SpawnOnShard from the driver is exactly SpawnAt).
  for (const TaskPlan& task : plan) {
    engine.SpawnOnShard(engine.lane_of_node(task.node), task.at,
                        RunReplayTask(&state, task.job, task.index,
                                      task.node, task.bytes));
  }

  auto tasks_done = [&state] {
    size_t n = 0;
    for (const LaneTally& tally : state.tally) n += tally.tasks_done;
    return n;
  };
  const SimTime deadline = Minutes(24 * 60.0);
  while (tasks_done() < result.tasks_total && engine.now() < deadline) {
    engine.RunUntil(engine.now() + Seconds(10));
  }
  result.makespan = engine.now();
  result.tasks_done = tasks_done();
  for (const LaneTally& tally : state.tally) {
    result.tasks_failed += tally.tasks_failed;
    result.peak_concurrent_jobs += tally.peak_jobs;
  }
  result.engine_events = engine.events_processed();
  for (uint32_t l = 0; l < engine.lane_count(); ++l) {
    result.per_lane_events.push_back(engine.lane_events(l));
  }

  result.agg = agg;
  for (size_t r = 0; r < options.racks; ++r) {
    result.tracker_down.push_back(TrackerDownCount(r));
    result.shard_polls.push_back(env.tracker().shard(r).polls_completed());
    result.shard_queries.push_back(env.tracker().shard(r).queries_served());
    result.shard_digests.push_back(env.tracker().shard(r).digests_merged());
    result.uplink_bytes.push_back(cluster.network().rack_uplink_bytes(r));
    result.downlink_bytes.push_back(cluster.network().rack_downlink_bytes(r));
    result.uplink_busy.push_back(cluster.network().rack_uplink_busy(r));
    result.downlink_busy.push_back(cluster.network().rack_downlink_busy(r));
  }

  // The acceptance cross-check: the outage degraded ONLY its own rack.
  uint64_t elsewhere = 0;
  for (size_t r = 0; r < options.racks; ++r) {
    if (r != result.outage_rack) elsewhere += result.tracker_down[r];
  }
  result.outage_isolated =
      result.tracker_down[result.outage_rack] > 0 && elsewhere == 0;
  result.ok = result.outage_isolated &&
              result.tasks_done == result.tasks_total &&
              result.tasks_failed == 0;

  Digest digest;
  digest.U64(result.tasks_done);
  digest.U64(static_cast<uint64_t>(result.makespan));
  digest.U64(result.engine_events);
  digest.U64(result.peak_concurrent_jobs);
  for (const RackAgg& a : result.agg) {
    digest.U64(a.tasks);
    for (const sponge::MediumTally& column : Columns(a.placed)) {
      digest.U64(column.bytes);
    }
  }
  for (uint64_t v : result.tracker_down) digest.U64(v);
  for (uint64_t v : result.uplink_bytes) digest.U64(v);
  result.digest = digest.h;

  env.StopServices();
  engine.RunUntil(engine.now() + Seconds(30));
  // Reclaim the service loops (shard polls, gossip, GC) while the cluster
  // objects they reference are still alive.
  engine.DrainDetached();

  result.wall_ms = WallMs() - start_wall;
  return result;
}

void AppendRackArray(std::string* out, const char* key,
                     const std::vector<uint64_t>& values) {
  *out += "  \"";
  *out += key;
  *out += "\": [";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ", ";
    obs::AppendJsonUint(out, values[i]);
  }
  *out += "]";
}

// Simulated quantities only — byte-identical for a fixed seed and shape.
std::string SimJson(const Options& options, const RunResult& r) {
  std::string out = "{\n";
  out += "  \"bench\": \"datacenter\",\n";
  out += "  \"racks\": ";
  obs::AppendJsonUint(&out, options.racks);
  out += ",\n  \"nodes\": ";
  obs::AppendJsonUint(&out, r.num_nodes);
  out += ",\n  \"jobs\": ";
  obs::AppendJsonUint(&out, options.jobs);
  out += ",\n  \"seed\": ";
  obs::AppendJsonUint(&out, options.seed);
  out += ",\n  \"ssd_bytes_per_node\": ";
  obs::AppendJsonUint(&out, options.ssd_bytes);
  out += ",\n  \"tasks_total\": ";
  obs::AppendJsonUint(&out, r.tasks_total);
  out += ",\n  \"tasks_done\": ";
  obs::AppendJsonUint(&out, r.tasks_done);
  out += ",\n  \"tasks_failed\": ";
  obs::AppendJsonUint(&out, r.tasks_failed);
  out += ",\n  \"peak_concurrent_jobs\": ";
  obs::AppendJsonUint(&out, r.peak_concurrent_jobs);
  out += ",\n  \"spill_bytes_total\": ";
  obs::AppendJsonUint(&out, r.spill_bytes_total);
  out += ",\n  \"makespan_us\": ";
  obs::AppendJsonUint(&out, static_cast<uint64_t>(r.makespan));
  out += ",\n  \"engine_events\": ";
  obs::AppendJsonUint(&out, r.engine_events);
  out += ",\n  \"outage_rack\": ";
  obs::AppendJsonUint(&out, r.outage_rack);
  out += ",\n  \"outage_isolated\": ";
  out += r.outage_isolated ? "true" : "false";
  out += ",\n  \"per_rack\": [\n";
  for (size_t i = 0; i < r.agg.size(); ++i) {
    const RackAgg& a = r.agg[i];
    out += "    {\"rack\": ";
    obs::AppendJsonUint(&out, i);
    out += ", \"tasks\": ";
    obs::AppendJsonUint(&out, a.tasks);
    const auto columns = Columns(a.placed);
    for (size_t c = 0; c < columns.size(); ++c) {
      out += ", \"chunks_";
      out += kColumnKeys[c];
      out += "\": ";
      obs::AppendJsonUint(&out, columns[c].chunks);
    }
    for (size_t c = 0; c < columns.size(); ++c) {
      out += ", \"bytes_";
      out += kColumnKeys[c];
      out += "\": ";
      obs::AppendJsonUint(&out, columns[c].bytes);
    }
    out += "}";
    if (i + 1 < r.agg.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  AppendRackArray(&out, "tracker_down_per_rack", r.tracker_down);
  out += ",\n";
  AppendRackArray(&out, "shard_polls", r.shard_polls);
  out += ",\n";
  AppendRackArray(&out, "shard_queries", r.shard_queries);
  out += ",\n";
  AppendRackArray(&out, "shard_digests_merged", r.shard_digests);
  out += ",\n";
  AppendRackArray(&out, "uplink_bytes", r.uplink_bytes);
  out += ",\n";
  AppendRackArray(&out, "downlink_bytes", r.downlink_bytes);
  out += ",\n";
  // [total] on the legacy engine.
  AppendRackArray(&out, "per_lane_events", r.per_lane_events);
  out += ",\n  \"uplink_utilization\": [";
  for (size_t i = 0; i < r.uplink_busy.size(); ++i) {
    if (i > 0) out += ", ";
    obs::AppendJsonDouble(&out,
                          r.makespan > 0
                              ? static_cast<double>(r.uplink_busy[i]) /
                                    static_cast<double>(r.makespan)
                              : 0.0);
  }
  out += "],\n  \"downlink_utilization\": [";
  for (size_t i = 0; i < r.downlink_busy.size(); ++i) {
    if (i > 0) out += ", ";
    obs::AppendJsonDouble(&out,
                          r.makespan > 0
                              ? static_cast<double>(r.downlink_busy[i]) /
                                    static_cast<double>(r.makespan)
                              : 0.0);
  }
  out += "],\n  \"digest\": ";
  obs::AppendJsonUint(&out, r.digest);
  out += ",\n  \"ok\": ";
  out += r.ok ? "true" : "false";
  out += "\n}\n";
  return out;
}

std::string FullJson(const Options& options, const RunResult& r) {
  std::string sim = SimJson(options, r);
  // Splice the wall-clock section in before the closing brace.
  std::string out = sim.substr(0, sim.rfind("\n}\n"));
  out += ",\n  \"engine\": \"";
  out += options.engine_mode;
  out += "\",\n  \"host_cores\": ";
  obs::AppendJsonUint(&out, sim::HostCores());
  out += ",\n  \"wall_ms\": ";
  obs::AppendJsonDouble(&out, r.wall_ms);
  double secs = r.wall_ms / 1000.0;
  out += ",\n  \"events_per_sec\": ";
  obs::AppendJsonDouble(&out,
                        secs > 0 ? static_cast<double>(r.engine_events) / secs
                                 : 0.0);
  out += ",\n  \"peak_rss_bytes\": ";
  obs::AppendJsonUint(&out, PeakRssBytes());
  out += "\n}\n";
  return out;
}

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  int closed = std::fclose(f);
  return written == text.size() && closed == 0;
}

}  // namespace

int main(int argc, char** argv) {
  ObsOptions obs_options = ParseObsFlags(argc, argv);
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      options.out = arg.substr(6);
    } else if (arg.rfind("--sim-out=", 0) == 0) {
      options.sim_out = arg.substr(10);
    } else if (arg.rfind("--racks=", 0) == 0) {
      options.racks = static_cast<size_t>(std::atoll(arg.c_str() + 8));
    } else if (arg.rfind("--nodes-per-rack=", 0) == 0) {
      options.nodes_per_rack =
          static_cast<size_t>(std::atoll(arg.c_str() + 17));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      options.jobs = static_cast<size_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = static_cast<uint64_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--ssd-gb=", 0) == 0) {
      options.ssd_bytes = static_cast<uint64_t>(
          std::strtod(arg.c_str() + 9, nullptr) *
          1024.0 * 1024.0 * 1024.0);
    } else if (arg.rfind("--ssd-bw=", 0) == 0) {
      options.ssd_bw_mbps = std::strtod(arg.c_str() + 9, nullptr);
    } else if (arg.rfind("--engine=", 0) == 0) {
      options.engine_mode = arg.substr(9);
    }
  }
  if (options.racks < 2 || options.nodes_per_rack < 1 || options.jobs < 1) {
    std::fprintf(stderr, "need --racks>=2, --nodes-per-rack>=1, --jobs>=1\n");
    return 2;
  }
  if (options.engine_mode != "legacy" && options.engine_mode != "seq") {
    std::fprintf(stderr, "--engine must be legacy or seq\n");
    return 2;
  }

  std::printf(
      "datacenter replay: %zu racks x %zu nodes, %zu jobs, seed %llu, "
      "engine %s\n\n",
      options.racks, options.nodes_per_rack, options.jobs,
      static_cast<unsigned long long>(options.seed),
      options.engine_mode.c_str());

  RunResult r = RunReplay(options);

  AsciiTable table({"rack", "tasks", "local", "rack-remote", "cross-rack",
                    "ssd", "disk", "dfs", "uplink util", "queries"});
  for (size_t i = 0; i < r.agg.size(); ++i) {
    const RackAgg& a = r.agg[i];
    double util = r.makespan > 0 ? static_cast<double>(r.uplink_busy[i]) /
                                       static_cast<double>(r.makespan)
                                 : 0.0;
    std::string label = std::to_string(i);
    if (i == r.outage_rack) label += " (outage)";
    std::vector<std::string> row = {
        label, StrFormat("%llu", (unsigned long long)a.tasks)};
    for (const sponge::MediumTally& column : Columns(a.placed)) {
      row.push_back(FormatBytes(column.bytes));
    }
    row.push_back(StrFormat("%.1f%%", util * 100.0));
    row.push_back(
        StrFormat("%llu", (unsigned long long)r.shard_queries[i]));
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\n%zu/%zu tasks, peak %zu concurrent jobs, makespan %s, "
      "%llu engine events\n",
      r.tasks_done, r.tasks_total, r.peak_concurrent_jobs,
      FormatDuration(r.makespan).c_str(),
      static_cast<unsigned long long>(r.engine_events));
  std::printf(
      "tracker-shard outage on rack %zu: tracker-down decisions there %llu, "
      "elsewhere %llu -> %s\n",
      r.outage_rack,
      static_cast<unsigned long long>(r.tracker_down[r.outage_rack]),
      static_cast<unsigned long long>(
          [&] {
            uint64_t sum = 0;
            for (size_t i = 0; i < r.tracker_down.size(); ++i) {
              if (i != r.outage_rack) sum += r.tracker_down[i];
            }
            return sum;
          }()),
      r.outage_isolated ? "isolated to its rack" : "NOT ISOLATED");
  std::printf("wall %.0f ms, %.2f Mev/s\n", r.wall_ms,
              r.wall_ms > 0 ? r.engine_events / r.wall_ms / 1000.0 : 0.0);

  if (!WriteText(options.out, FullJson(options, r))) {
    std::fprintf(stderr, "failed to write %s\n", options.out.c_str());
    return 1;
  }
  std::printf("report written to %s\n", options.out.c_str());
  if (!options.sim_out.empty()) {
    if (!WriteText(options.sim_out, SimJson(options, r))) {
      std::fprintf(stderr, "failed to write %s\n", options.sim_out.c_str());
      return 1;
    }
    std::printf("sim snapshot written to %s\n", options.sim_out.c_str());
  }
  WriteObsOutputs(obs_options);
  return r.ok ? 0 : 1;
}
