#include "sim/parallel.h"

#include <unistd.h>

#include <utility>

#include "common/logging.h"

namespace spongefiles::sim {

ShardPlan RackShardPlan(const std::vector<size_t>& rack_of_node,
                        size_t num_racks, Duration lookahead) {
  ShardPlan plan;
  plan.lanes = static_cast<uint32_t>(num_racks) + 1;
  plan.lookahead = lookahead;
  plan.lane_of_node.resize(rack_of_node.size());
  for (size_t i = 0; i < rack_of_node.size(); ++i) {
    SPONGE_CHECK(rack_of_node[i] < num_racks);
    plan.lane_of_node[i] = static_cast<uint32_t>(rack_of_node[i]) + 1;
  }
  return plan;
}

unsigned HostCores() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n < 1 ? 1 : static_cast<unsigned>(n);
}

Sharding::Sharding(Engine* engine, ShardPlan plan, unsigned threads) {
  SPONGE_CHECK(threads == 0) << "the sharded schedule runs on one thread";
  engine->ConfigureShards(std::move(plan));
}

}  // namespace spongefiles::sim
