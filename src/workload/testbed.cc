#include "workload/testbed.h"

#include "common/logging.h"

namespace spongefiles::workload {

Testbed::Testbed(const TestbedConfig& config) {
  cluster::ClusterConfig cc;
  cc.num_nodes = config.num_nodes;
  cc.nodes_per_rack = config.nodes_per_rack;
  if (config.oversubscription > 0) {
    cc.network.cross_rack_bandwidth =
        static_cast<double>(config.nodes_per_rack) * cc.network.bandwidth /
        config.oversubscription;
  }
  cc.node.physical_memory = config.node_memory;
  cc.node.map_slots = 2;
  cc.node.reduce_slots = 1;
  cc.node.heap_per_slot = config.heap_per_slot;
  cc.node.sponge_memory = config.sponge_memory;
  cc.node.pinned_memory = config.pinned_memory;
  cc.node.ssd = config.ssd;
  // Before anything is scheduled: the per-lane state in SpongeEnv is sized
  // off lane_count().
  engine_.ConfigureShards(config.shards);
  cluster_ = std::make_unique<cluster::Cluster>(&engine_, cc);
  dfs_ = std::make_unique<cluster::Dfs>(cluster_.get());
  env_ = std::make_unique<sponge::SpongeEnv>(cluster_.get(), dfs_.get(),
                                             config.sponge, config.pool);
  tracker_ = std::make_unique<mapred::JobTracker>(env_.get(), dfs_.get());
  // One tracker poll so the free list exists before any job runs, then
  // keep the services alive for the duration.
  env_->tracker().Start();
  env_->StartServices();
  engine_.RunUntil(engine_.now() + Millis(10));
}

Testbed::~Testbed() {
  // Reclaim the service loops (tracker polls, GC sweeps) and any frames
  // parked on hung servers while the cluster objects they reference are
  // still alive; the engine member itself is destroyed last.
  engine_.DrainDetached();
}

Result<mapred::JobResult> Testbed::RunJob(
    mapred::JobConfig config, std::optional<mapred::JobConfig> background,
    std::vector<mapred::TaskStats>* background_tasks) {
  Result<mapred::JobResult> result = mapred::JobResult{};
  bool main_done = false;
  bool background_done = !background.has_value();

  std::shared_ptr<bool> background_cancel;
  if (background.has_value()) {
    if (!background->cancel) {
      background->cancel = std::make_shared<bool>(false);
    }
    background_cancel = background->cancel;
  }

  auto run_main = [](Testbed* bed, mapred::JobConfig job,
                     Result<mapred::JobResult>* out, bool* done,
                     std::shared_ptr<bool> cancel_background) -> sim::Task<> {
    *out = co_await bed->tracker().Run(std::move(job));
    *done = true;
    if (cancel_background != nullptr) *cancel_background = true;
  };
  auto run_background = [](Testbed* bed, mapred::JobConfig job,
                           std::vector<mapred::TaskStats>* tasks,
                           bool* done) -> sim::Task<> {
    auto finished = co_await bed->tracker().Run(std::move(job));
    if (finished.ok() && tasks != nullptr) {
      for (auto& stats : finished->map_tasks) {
        if (stats.completed) tasks->push_back(stats);
      }
    }
    *done = true;
  };

  engine_.Spawn(run_main(this, std::move(config), &result, &main_done,
                         background_cancel));
  if (background.has_value()) {
    // Submitted right after the measured job, so its tasks fill whatever
    // slots the measured job leaves idle.
    engine_.Spawn(run_background(this, std::move(*background),
                                 background_tasks, &background_done));
  }
  // The sponge services (tracker polls, GC sweeps) run forever, so the
  // event queue never drains; advance time until both jobs finish.
  const SimTime deadline = engine_.now() + Minutes(24 * 60.0);
  while (!(main_done && background_done)) {
    SPONGE_CHECK(engine_.now() < deadline) << "job exceeded one day";
    engine_.RunUntil(engine_.now() + Seconds(10));
  }
  return result;
}

}  // namespace spongefiles::workload
