// shardcheck: the dynamic half of the shard-safety analysis (see DESIGN.md
// "Static analysis"). Runs a workload shape under the engine's instrumented
// access-set mode (Engine::RecordAccessSets) and reports every event pair
// the sharded schedule's lookahead rule could reorder that shares
// non-sanctioned state — i.e. the within-window causality breaks the
// rack-sharded schedule would have.
//
// Shapes:
//   chaos       the chaos integration test's testbed (8 nodes / 2 racks,
//               gray failures + crashes + replication + speculation) over a
//               seed sweep — the densest fault-path coverage per second.
//   datacenter  the 512-node bench_datacenter topology (16 racks x 32
//               nodes) replaying trace-synthesized spill tasks through the
//               full allocation cascade with a mid-run tracker-shard
//               outage.
//   recovery    bench_recovery's write / crash / read-back-with-failover
//               loop: fail-stop crashes land between spill and read-back,
//               so repair and failover run under the recorder.
//
// Usage: shardcheck --shape=chaos|datacenter|recovery [--out=FILE]
//                   [--seeds=N] [--jobs=N] [--engine=legacy|seq]
//
// --engine=seq reruns the shape on the rack-sharded serial schedule with
// the recorder in lane mode: every access is stamped with its lane and
// window, and any same-window cross-lane conflict the sequential census
// did not predict fails the run.
//
// Output: a deterministic JSON census (events, accesses, split points,
// sanctioned global objects with their reasons, and the conflict list).
// Exit status: 0 when no unexplained conflicts, 1 when any, 2 on usage
// errors. tools/shardcheck.sh runs all shapes under both engines and
// merges the artifacts.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/random.h"
#include "mapred/job.h"
#include "sim/access.h"
#include "sim/parallel.h"
#include "sponge/failure.h"
#include "sponge/sponge_file.h"
#include "workload/testbed.h"
#include "workload/trace.h"

using namespace spongefiles;

namespace {

struct Options {
  std::string shape;
  std::string out;
  int seeds = 3;     // chaos: number of injected fault schedules
  size_t jobs = 96;  // datacenter / recovery: replayed trace jobs
  std::string engine = "legacy";  // legacy | seq (see header comment)
};

// Set from --engine before any shape runs.
bool g_sharded = false;

// Rack-projection plan for `num_racks` racks of `nodes_per_rack` nodes.
// Lookahead = the minimum cross-rack message latency.
sim::ShardPlan PlanFor(size_t num_racks, size_t nodes_per_rack,
                       const cluster::NetworkConfig& network) {
  std::vector<size_t> rack_of;
  rack_of.reserve(num_racks * nodes_per_rack);
  for (size_t i = 0; i < num_racks * nodes_per_rack; ++i) {
    rack_of.push_back(i / nodes_per_rack);
  }
  return sim::RackShardPlan(rack_of, num_racks,
                            network.latency + network.cross_rack_latency);
}

// One instrumented run's result: the census JSON plus the go/no-go count.
struct RunReport {
  std::string name;
  std::string census_json;
  size_t unexplained = 0;
  uint64_t events = 0;
};

std::vector<size_t> RackTable(cluster::Cluster& cluster) {
  std::vector<size_t> racks(cluster.size());
  for (size_t n = 0; n < cluster.size(); ++n) racks[n] = cluster.rack_of(n);
  return racks;
}

// ---- chaos shape ----------------------------------------------------------
// Mirrors tests/sponge_chaos_test.cc RunChaosJob: small two-rack testbed,
// tiny pools forcing the remote path, a randomized gray-failure schedule,
// then a settle + GC sweep so the reclamation paths run instrumented too.
RunReport RunChaosShape(uint64_t seed, bool inject) {
  workload::TestbedConfig bed_config;
  bed_config.num_nodes = 8;
  bed_config.nodes_per_rack = 4;
  bed_config.oversubscription = 4.0;
  bed_config.sponge.allow_cross_rack = true;
  bed_config.sponge_memory = MiB(64);
  bed_config.sponge.rpc.hedge_reads = true;
  bed_config.sponge.replication.enabled = true;
  if (g_sharded) {
    bed_config.shards =
        PlanFor(bed_config.num_nodes / bed_config.nodes_per_rack,
                bed_config.nodes_per_rack, cluster::NetworkConfig{});
  }
  workload::Testbed bed(bed_config);

  sim::AccessRecorder recorder;
  recorder.SetRacks(RackTable(bed.cluster()));
  bed.engine().RecordAccessSets(&recorder);

  workload::NumbersDatasetConfig data;
  data.count = 50001;
  workload::NumbersDataset numbers(&bed.dfs(), "nums", data);

  const SimTime fault_horizon = Seconds(90);
  sponge::FailureInjector injector(&bed.env(), seed);
  if (inject) {
    sponge::ChaosOptions chaos;
    chaos.start = Seconds(2);
    chaos.horizon = fault_horizon;
    chaos.num_faults = 10;
    chaos.fail_stop_crashes = true;
    injector.ScheduleChaos(chaos);
  }

  auto job = workload::MakeMedianJob(&numbers, mapred::SpillMode::kSponge);
  job.speculation.enabled = true;
  job.speculation.check_period = Seconds(1);
  job.speculation.min_attempt_age = Seconds(3);
  auto result = bed.RunJob(std::move(job));
  if (!result.ok()) {
    std::fprintf(stderr, "chaos seed %llu: job failed: %s\n",
                 static_cast<unsigned long long>(seed),
                 result.status().ToString().c_str());
  }

  // Let faults fire and clear, then sweep every server under the recorder.
  SimTime settle = std::max(bed.engine().now(), fault_horizon) + Seconds(10);
  bed.engine().RunUntil(settle);
  auto sweep = [](workload::Testbed* tb) -> sim::Task<> {
    for (size_t n = 0; n < tb->cluster().size(); ++n) {
      (void)co_await tb->env().server(n).GcSweep();
    }
  };
  bed.engine().Spawn(sweep(&bed));
  bed.engine().RunUntil(bed.engine().now() + Seconds(10));

  recorder.Finish();
  bed.engine().RecordAccessSets(nullptr);
  RunReport report;
  report.name =
      (inject ? "chaos-seed" : "fault-free-seed") + std::to_string(seed);
  report.census_json = recorder.CensusJson();
  report.unexplained = recorder.unexplained_conflicts();
  report.events = recorder.census().events;
  return report;
}

// ---- datacenter shape -----------------------------------------------------
// bench_datacenter's 512-node topology and replay loop (trace-synthesized
// per-task spill demands, jobs homed per rack, mid-run tracker-shard
// outage), at a job count sized for a check rather than a benchmark.
sim::Task<> RunSpillTask(sponge::SpongeEnv* env, sim::Semaphore* slot,
                         size_t* done, std::string name, size_t node,
                         uint64_t bytes) {
  co_await slot->Acquire();
  sponge::TaskContext task = env->StartTask(node);
  sponge::SpongeFile file(env, &task, std::move(name));
  ByteRuns data;
  data.AppendZeros(bytes);
  Status status = co_await file.Append(std::move(data));
  if (status.ok()) status = co_await file.Close();
  co_await file.Delete();
  env->EndTask(task);
  slot->Release();
  ++*done;
}

RunReport RunDatacenterShape(size_t num_jobs) {
  cluster::TopologyConfig topo;
  topo.num_racks = 16;
  topo.nodes_per_rack = 32;
  topo.oversubscription = 4.0;
  topo.node.sponge_memory = 8ull * 1024 * 1024;
  const size_t num_nodes = topo.num_racks * topo.nodes_per_rack;

  sim::Engine engine;
  cluster::ClusterConfig cc = cluster::MakeClusterConfig(topo);
  if (g_sharded) {
    engine.ConfigureShards(
        PlanFor(topo.num_racks, topo.nodes_per_rack, cc.network));
  }
  cluster::Cluster cluster(&engine, cc);
  cluster::Dfs dfs(&cluster);
  sponge::SpongeConfig sponge_config;
  sponge_config.allow_cross_rack = true;
  sponge::SpongeEnv env(&cluster, &dfs, sponge_config);

  sim::AccessRecorder recorder;
  recorder.SetRacks(RackTable(cluster));
  engine.RecordAccessSets(&recorder);

  env.tracker().Start();
  env.StartServices();

  workload::TraceConfig trace_config;
  trace_config.num_jobs = num_jobs;
  trace_config.seed = 14;
  std::vector<workload::TraceJob> jobs =
      workload::TraceSynthesizer(trace_config).Generate();
  Rng placement_rng(14 * 2654435761ull + 1);

  sponge::FailureInjector injector(&env, 14);
  injector.ScheduleTrackerShardOutage(topo.num_racks / 2, Seconds(25),
                                      Seconds(30));

  std::vector<std::unique_ptr<sim::Semaphore>> slots;
  slots.reserve(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    slots.push_back(std::make_unique<sim::Semaphore>(&engine, 2));
  }

  size_t planned = 0, done = 0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    size_t home_rack = placement_rng.Uniform(topo.num_racks);
    SimTime arrival = Seconds(2) + static_cast<SimTime>(placement_rng.Uniform(
                                       static_cast<uint64_t>(Seconds(60))));
    size_t num_tasks = std::min<size_t>(jobs[j].reduce_input_bytes.size(), 50);
    for (size_t t = 0; t < num_tasks; ++t) {
      uint64_t bytes =
          std::clamp<uint64_t>(jobs[j].reduce_input_bytes[t] / 8, 256 * 1024,
                               32ull * 1024 * 1024);
      size_t node = home_rack * topo.nodes_per_rack + (t % topo.nodes_per_rack);
      engine.SpawnAt(arrival,
                     RunSpillTask(&env, slots[node].get(), &done,
                                  "dc.j" + std::to_string(j) + ".t" +
                                      std::to_string(t),
                                  node, bytes));
      ++planned;
    }
  }

  const SimTime deadline = Minutes(24 * 60.0);
  while (done < planned && engine.now() < deadline) {
    engine.RunUntil(engine.now() + Seconds(10));
  }
  if (done < planned) {
    std::fprintf(stderr, "datacenter: %zu of %zu tasks unfinished\n",
                 planned - done, planned);
  }

  recorder.Finish();
  engine.RecordAccessSets(nullptr);
  RunReport report;
  report.name = "datacenter-512n-" + std::to_string(num_jobs) + "j";
  report.census_json = recorder.CensusJson();
  report.unexplained = recorder.unexplained_conflicts();
  report.events = recorder.census().events;
  return report;
}

// ---- recovery shape -------------------------------------------------------
// bench_recovery's loop at check scale: tasks spill, sit exposed, read
// back with failover; fail-stop crashes land inside the exposure window so
// replica reads and the repair service run instrumented.
sim::Task<> RunRecoveryTask(sim::Engine* engine, sponge::SpongeEnv* env,
                            sim::Semaphore* slot, size_t* done, size_t job,
                            size_t node, uint64_t bytes) {
  co_await slot->Acquire();
  for (int attempt = 1; attempt <= 4; ++attempt) {
    sponge::TaskContext task = env->StartTask(node);
    sponge::SpongeFile file(env, &task,
                            "rc.j" + std::to_string(job) + ".a" +
                                std::to_string(attempt));
    ByteRuns payload;
    payload.AppendZeros(bytes);
    Status status = co_await file.Append(std::move(payload));
    if (status.ok()) status = co_await file.Close();
    if (status.ok()) co_await engine->Delay(Seconds(20));
    while (status.ok()) {
      Result<ByteRuns> chunk = co_await file.ReadNext();
      if (!chunk.ok()) {
        status = chunk.status();
        break;
      }
      if (chunk->empty()) break;
    }
    co_await file.Delete();
    env->EndTask(task);
    if (status.ok()) break;
  }
  slot->Release();
  ++*done;
}

RunReport RunRecoveryShape(size_t num_jobs) {
  cluster::TopologyConfig topo;
  topo.num_racks = 2;
  topo.nodes_per_rack = 8;
  topo.oversubscription = 4.0;
  topo.node.sponge_memory = 8ull * 1024 * 1024;
  const size_t num_nodes = topo.num_racks * topo.nodes_per_rack;

  sim::Engine engine;
  cluster::ClusterConfig cc = cluster::MakeClusterConfig(topo);
  if (g_sharded) {
    engine.ConfigureShards(
        PlanFor(topo.num_racks, topo.nodes_per_rack, cc.network));
  }
  cluster::Cluster cluster(&engine, cc);
  cluster::Dfs dfs(&cluster);
  sponge::SpongeConfig sponge_config;
  sponge_config.allow_cross_rack = true;
  sponge_config.replication.enabled = true;
  sponge_config.replication.min_free_fraction = 0.05;
  sponge::SpongeEnv env(&cluster, &dfs, sponge_config);

  sim::AccessRecorder recorder;
  recorder.SetRacks(RackTable(cluster));
  engine.RecordAccessSets(&recorder);

  env.tracker().Start();
  env.StartServices();

  sponge::FailureInjector injector(&env, 7);
  for (size_t i = 0; i < 3; ++i) {
    injector.ScheduleCrash(topo.nodes_per_rack + i, Seconds(30), Seconds(40));
  }

  std::vector<std::unique_ptr<sim::Semaphore>> slots;
  slots.reserve(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    slots.push_back(std::make_unique<sim::Semaphore>(&engine, 2));
  }

  Rng plan_rng(7);
  size_t done = 0;
  for (size_t j = 0; j < num_jobs; ++j) {
    uint64_t bytes = 256 * 1024 + plan_rng.Uniform(4ull * 1024 * 1024);
    SimTime arrival = Seconds(2) + static_cast<SimTime>(
                                       plan_rng.Uniform(
                                           static_cast<uint64_t>(Seconds(20))));
    engine.SpawnAt(arrival, RunRecoveryTask(&engine, &env,
                                            slots[j % num_nodes].get(), &done,
                                            j, j % num_nodes, bytes));
  }

  const SimTime deadline = Minutes(60.0);
  while (done < num_jobs && engine.now() < deadline) {
    engine.RunUntil(engine.now() + Seconds(10));
  }
  if (done < num_jobs) {
    std::fprintf(stderr, "recovery: %zu of %zu tasks unfinished\n",
                 num_jobs - done, num_jobs);
  }

  recorder.Finish();
  engine.RecordAccessSets(nullptr);
  RunReport report;
  report.name = "recovery-16n-" + std::to_string(num_jobs) + "j";
  report.census_json = recorder.CensusJson();
  report.unexplained = recorder.unexplained_conflicts();
  report.events = recorder.census().events;
  return report;
}

// ---------------------------------------------------------------------------

// Indents an embedded census JSON so the merged artifact stays readable.
std::string Indent(const std::string& json, const std::string& pad) {
  std::string out;
  for (size_t i = 0; i < json.size(); ++i) {
    out.push_back(json[i]);
    if (json[i] == '\n' && i + 1 < json.size()) out += pad;
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: shardcheck --shape=chaos|datacenter|recovery "
               "[--out=FILE] [--seeds=N] [--jobs=N] "
               "[--engine=legacy|seq]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    const char* v = nullptr;
    if ((v = value("--shape="))) {
      options.shape = v;
    } else if ((v = value("--out="))) {
      options.out = v;
    } else if ((v = value("--seeds="))) {
      options.seeds = std::atoi(v);
      if (options.seeds < 1) options.seeds = 1;
    } else if ((v = value("--jobs="))) {
      options.jobs = static_cast<size_t>(std::atoll(v));
      if (options.jobs < 1) options.jobs = 1;
    } else if ((v = value("--engine="))) {
      options.engine = v;
    } else {
      return Usage();
    }
  }
  if (options.engine != "legacy" && options.engine != "seq") return Usage();
  g_sharded = options.engine == "seq";

  std::vector<RunReport> reports;
  if (options.shape == "chaos") {
    reports.push_back(RunChaosShape(0, /*inject=*/false));
    for (int seed = 1; seed <= options.seeds; ++seed) {
      reports.push_back(
          RunChaosShape(static_cast<uint64_t>(seed), /*inject=*/true));
    }
  } else if (options.shape == "datacenter") {
    reports.push_back(RunDatacenterShape(options.jobs));
  } else if (options.shape == "recovery") {
    reports.push_back(RunRecoveryShape(options.jobs));
  } else {
    return Usage();
  }

  size_t total_unexplained = 0;
  for (const RunReport& report : reports) total_unexplained += report.unexplained;

  std::string out = "{\n";
  out += "  \"shape\": \"" + options.shape + "\",\n";
  out += "  \"engine\": \"" + options.engine + "\",\n";
  out += "  \"unexplained_conflicts\": " + std::to_string(total_unexplained) +
         ",\n";
  out += "  \"runs\": [";
  for (size_t i = 0; i < reports.size(); ++i) {
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\n      \"name\": \"" + reports[i].name + "\",\n";
    out += "      \"census\": " + Indent(reports[i].census_json, "      ");
    out += "\n    }";
  }
  out += "\n  ]\n}\n";

  if (options.out.empty()) {
    std::fputs(out.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(options.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "shardcheck: cannot open %s\n",
                   options.out.c_str());
      return 2;
    }
    std::fputs(out.c_str(), f);
    std::fclose(f);
  }
  for (const RunReport& report : reports) {
    std::fprintf(stderr,
                 "shardcheck %-24s engine=%s events=%llu unexplained=%zu\n",
                 report.name.c_str(), options.engine.c_str(),
                 static_cast<unsigned long long>(report.events),
                 report.unexplained);
  }
  return total_unexplained == 0 ? 0 : 1;
}
