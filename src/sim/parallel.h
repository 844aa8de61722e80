#ifndef SPONGEFILES_SIM_PARALLEL_H_
#define SPONGEFILES_SIM_PARALLEL_H_

#include <cstddef>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"

namespace spongefiles::sim {

// Rack-sharded serial schedule (see DESIGN.md "Sharded serial schedule"):
// the plan builder and the switch that puts an engine on it. Everything
// runs on one host thread; worker-lane metric and trace updates apply
// inline, in the order the lanes run.

// Builds the rack-projection plan from a node -> rack map: rack r is owned
// by lane r + 1; lane 0 remains the global lane. `lookahead` is the minimum
// cross-rack message latency (latency + cross_rack_latency on a metered
// topology).
ShardPlan RackShardPlan(const std::vector<size_t>& rack_of_node,
                        size_t num_racks, Duration lookahead);

// Online host processors (never 0), reported next to host-time numbers.
unsigned HostCores();

// Configures `engine`'s lanes from `plan` (Engine::ConfigureShards). A plan
// with lanes == 1 leaves the engine on the legacy single-queue path, so
// call sites stay uniform. `threads` must be 0: the schedule is serial.
class Sharding {
 public:
  Sharding(Engine* engine, ShardPlan plan, unsigned threads = 0);

  Sharding(const Sharding&) = delete;
  Sharding& operator=(const Sharding&) = delete;
};

}  // namespace spongefiles::sim

#endif  // SPONGEFILES_SIM_PARALLEL_H_
