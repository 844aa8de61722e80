// Shard-runtime tests for the rack-sharded serial schedule (DESIGN.md
// §13): cross-shard messages land exactly on the lookahead horizon, ring
// hand-offs inside one shard stay zero-latency, DrainDetached keeps its
// spawn-order guarantee across lanes, the lane-partitioned registries
// round-trip ids, and worker-lane metric and trace updates fold in lane
// order.

#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sponge/rpc_client.h"
#include "sponge/task_registry.h"

namespace spongefiles {
namespace {

using sim::Engine;
using sim::Sharding;

constexpr Duration kLookahead = Micros(100);

// Two worker lanes: node 0 on rack 0 (lane 1), node 1 on rack 1 (lane 2).
sim::ShardPlan TwoLanePlan() {
  return sim::RackShardPlan({0, 1}, 2, kLookahead);
}

// ---- window mechanics ------------------------------------------------------

sim::Task<> HopAfter(Engine* engine, Duration wait, uint32_t lane,
                     std::vector<SimTime>* arrivals) {
  co_await engine->Delay(wait);
  co_await engine->HopToLane(lane);
  arrivals->push_back(engine->now());
}

TEST(ParallelEngineTest, CrossShardHopArrivesAtWindowBoundary) {
  Engine engine;
  Sharding sharding(&engine, TwoLanePlan());
  std::vector<SimTime> arrivals;
  // Emitted mid-window (t = 30 inside [0, 100)): the hop is buffered in
  // the outbox and clamped to the window edge — it cannot arrive before
  // the horizon, because lane 0 may already have run past 30.
  engine.SpawnOnShard(1, 0, HopAfter(&engine, Micros(30), 0, &arrivals));
  engine.Run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], kLookahead);
}

TEST(ParallelEngineTest, HopAtExactHorizonPaysOneMoreWindow) {
  Engine engine;
  Sharding sharding(&engine, TwoLanePlan());
  std::vector<SimTime> arrivals;
  // Emitted exactly at the horizon (the first event of window [100, 200)):
  // delivery clamps to *that* window's edge, so the message costs a full
  // further lookahead. This is the quantization every cross-shard
  // interaction pays; the lookahead is a lower bound on real latency, so
  // the result is conservative, never early.
  engine.SpawnOnShard(1, 0, HopAfter(&engine, kLookahead, 0, &arrivals));
  engine.Run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 2 * kLookahead);
}

TEST(ParallelEngineTest, WorkerToWorkerHopAlsoClampsToHorizon) {
  Engine engine;
  Sharding sharding(&engine, TwoLanePlan());
  std::vector<SimTime> arrivals;
  engine.SpawnOnShard(1, 0, HopAfter(&engine, Micros(70), 2, &arrivals));
  engine.Run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], kLookahead);
}

sim::Task<> YieldStorm(Engine* engine, int yields, int* count,
                       SimTime* finished_at) {
  for (int i = 0; i < yields; ++i) {
    co_await engine->Delay(0);
    ++*count;
  }
  *finished_at = engine->now();
}

TEST(ParallelEngineTest, SameShardZeroDelayHandoffsStayAtOneInstant) {
  Engine engine;
  Sharding sharding(&engine, TwoLanePlan());
  int count = 0;
  SimTime a = -1, b = -1;
  // Two coroutines ping-ponging through lane 1's ring: all 2 * 1000
  // hand-offs complete inside the first window without simulated time
  // moving at all — sharding must not tax the zero-delay fast path.
  engine.SpawnOnShard(1, 0, YieldStorm(&engine, 1000, &count, &a));
  engine.SpawnOnShard(1, 0, YieldStorm(&engine, 1000, &count, &b));
  engine.Run();
  EXPECT_EQ(count, 2000);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 0);
  EXPECT_EQ(engine.lane_events(2), 0u);  // lane 2 never had work
}

// ---- DrainDetached ordering ------------------------------------------------

struct DtorNote {
  std::vector<int>* log;
  int id;
  ~DtorNote() { log->push_back(id); }
};

sim::Task<> ParkForever(Engine* engine, std::vector<int>* log, int id) {
  DtorNote note{log, id};
  co_await engine->Delay(Minutes(600.0));
}

TEST(ParallelEngineTest, DrainDetachedDestroysLaneZeroFirstThenLaneOrder) {
  std::vector<int> log;
  {
    Engine engine;
    Sharding sharding(&engine, TwoLanePlan());
    // Interleaved spawn order across lanes; ids name lane * 10 + seq.
    engine.SpawnOnShard(2, 0, ParkForever(&engine, &log, 20));
    engine.SpawnOnShard(0, 0, ParkForever(&engine, &log, 0));
    engine.SpawnOnShard(1, 0, ParkForever(&engine, &log, 10));
    engine.SpawnOnShard(1, 0, ParkForever(&engine, &log, 11));
    engine.SpawnOnShard(2, 0, ParkForever(&engine, &log, 21));
    // One bounded run so every frame starts and parks on its long delay.
    engine.RunUntil(Micros(1));
    EXPECT_EQ(engine.detached_live(), 5u);
    EXPECT_EQ(engine.DrainDetached(), 5u);
  }
  // Global lane first, then each worker lane; spawn order within a lane.
  EXPECT_EQ(log, std::vector<int>({0, 10, 11, 20, 21}));
}

// ---- lane-partitioned registries -------------------------------------------

sim::Task<> MintTask(sponge::TaskRegistry* registry, size_t node,
                     uint64_t* id) {
  *id = registry->Register(node);
  co_return;
}

sim::Task<> MintReplica(sponge::ReplicaDirectory* directory, uint64_t owner,
                        size_t node, uint64_t* id) {
  *id = directory->Register(owner, /*size=*/100, /*checksum=*/42);
  sponge::ReplicaLocation location;
  location.node = node;
  directory->AddLocation(*id, location);
  co_return;
}

TEST(ParallelEngineTest, RegistryIdsEncodeMintingLaneAndRoundTrip) {
  Engine engine;
  Sharding sharding(&engine, TwoLanePlan());
  sponge::TaskRegistry registry;
  registry.AttachEngine(&engine);

  uint64_t id0 = 0, id1 = 0, id2 = 0;
  engine.SpawnOnShard(0, 0, MintTask(&registry, 0, &id0));
  engine.SpawnOnShard(1, 0, MintTask(&registry, 0, &id1));
  engine.SpawnOnShard(2, 0, MintTask(&registry, 1, &id2));
  engine.Run();

  // Lane 0 mints legacy plain-sequence ids; worker lanes tag the top bits.
  EXPECT_LT(id0, uint64_t(1) << 40);
  EXPECT_EQ(id1 >> 40, 1u);
  EXPECT_EQ(id2 >> 40, 2u);

  // Lookups route by id to the minting partition (driver context here —
  // the global lane may read every partition).
  EXPECT_TRUE(registry.IsAlive(id0));
  EXPECT_TRUE(registry.IsAlive(id1));
  EXPECT_TRUE(registry.IsAliveOn(id2, 1));
  EXPECT_FALSE(registry.IsAliveOn(id2, 0));
  EXPECT_EQ(registry.live_count(), 3u);
  ASSERT_TRUE(registry.NodeOf(id1).ok());
  EXPECT_EQ(*registry.NodeOf(id1), 0u);

  // An id no partition could have minted is simply unknown.
  EXPECT_FALSE(registry.IsAlive((uint64_t(7) << 40) | 1));

  registry.Deregister(id1);
  EXPECT_FALSE(registry.IsAlive(id1));
  EXPECT_EQ(registry.live_count(), 2u);
}

TEST(ParallelEngineTest, ReplicaDirectoryScansEveryPartitionInLaneOrder) {
  Engine engine;
  Sharding sharding(&engine, TwoLanePlan());
  sponge::TaskRegistry registry;
  registry.AttachEngine(&engine);
  sponge::ReplicaDirectory& directory = registry.replicas();

  uint64_t rid0 = 0, rid1 = 0, rid2 = 0;
  engine.SpawnOnShard(0, 0, MintReplica(&directory, 1, /*node=*/1, &rid0));
  engine.SpawnOnShard(1, 0, MintReplica(&directory, 2, /*node=*/1, &rid1));
  engine.SpawnOnShard(2, 0, MintReplica(&directory, 3, /*node=*/0, &rid2));
  engine.Run();

  EXPECT_EQ(directory.size(), 3u);
  ASSERT_NE(directory.Find(rid1), nullptr);
  EXPECT_EQ(directory.Find(rid1)->owner_task, 2u);

  // The dead-server scan walks partitions in lane order: lane 0's entry
  // precedes lane 1's even though ids no longer sort globally.
  std::vector<uint64_t> on_node1 = directory.ChunksOn(1);
  ASSERT_EQ(on_node1.size(), 2u);
  EXPECT_EQ(on_node1[0], rid0);
  EXPECT_EQ(on_node1[1], rid1);

  directory.Forget(rid1);
  EXPECT_EQ(directory.Find(rid1), nullptr);
  EXPECT_EQ(directory.size(), 2u);
}

// ---- observability fold order ---------------------------------------------

sim::Task<> ObsWork(Engine* engine, Duration at, obs::Counter* counter,
                    obs::Gauge* gauge, obs::Tracer* tracer, uint64_t pid,
                    int64_t value) {
  co_await engine->Delay(at);
  if (counter != nullptr) counter->Increment(static_cast<uint64_t>(value));
  if (gauge != nullptr) gauge->Set(value);
  tracer->InstantEvent(engine->now(), pid, 0, "sim", "work");
}

TEST(ParallelEngineTest, WorkerLaneObsUpdatesFoldInLaneOrder) {
  Engine engine;
  Sharding sharding(&engine, TwoLanePlan());
  obs::Registry registry;
  obs::Counter* counter = registry.counter("test.fold.count");
  obs::Gauge* gauge = registry.gauge("test.fold.gauge");
  obs::Tracer tracer;
  tracer.set_enabled(true);
  // All three updates land in the first window [0, 100), in the reverse of
  // lane order by simulated time: the fold follows lane order (phase A runs
  // lane 1 then lane 2, phase B the global lane), not timestamps.
  engine.SpawnOnShard(2, 0, ObsWork(&engine, Micros(10), counter, gauge,
                                    &tracer, /*pid=*/2, /*value=*/22));
  engine.SpawnOnShard(1, 0, ObsWork(&engine, Micros(50), counter, gauge,
                                    &tracer, /*pid=*/1, /*value=*/11));
  engine.SpawnOnShard(0, 0, ObsWork(&engine, Micros(5), nullptr, nullptr,
                                    &tracer, /*pid=*/0, /*value=*/0));
  engine.Run();

  EXPECT_EQ(counter->value(), 33u);
  EXPECT_EQ(gauge->value(), 22);  // lane 2 set it last
  EXPECT_EQ(gauge->max(), 22);
  // args.seq runs lane 1, lane 2, then lane 0.
  const std::string json = tracer.ToJson();
  const size_t lane1 = json.find("\"pid\":1,\"tid\":0,\"args\":{\"seq\":0}");
  const size_t lane2 = json.find("\"pid\":2,\"tid\":0,\"args\":{\"seq\":1}");
  const size_t lane0 = json.find("\"pid\":0,\"tid\":0,\"args\":{\"seq\":2}");
  ASSERT_NE(lane1, std::string::npos) << json;
  ASSERT_NE(lane2, std::string::npos) << json;
  ASSERT_NE(lane0, std::string::npos) << json;
  EXPECT_LT(lane1, lane2);
  EXPECT_LT(lane2, lane0);
}

// The hedge trigger reads one read-latency histogram per server, shared by
// every lane's HealthBoard. A worker lane's samples are published at the
// window barrier: no lane sees them, its own included, before the next
// window.
sim::Task<> RecordThenProbe(Engine* engine, sponge::HealthBoard* board,
                            size_t node, std::vector<Duration>* delays) {
  co_await engine->Delay(Micros(10));
  for (int i = 0; i < 8; ++i) board->RecordReadLatency(node, Millis(50));
  delays->push_back(board->HedgeDelay(node));
  co_await engine->Delay(kLookahead);
  delays->push_back(board->HedgeDelay(node));
}

TEST(ParallelEngineTest, ReadLatencySamplesPublishAtTheWindowBarrier) {
  Engine engine;
  Sharding sharding(&engine, TwoLanePlan());
  sponge::RpcPolicy policy;
  sponge::HealthBoard board(&engine, &policy);
  const size_t node = 4242;  // a histogram no other test touches
  std::vector<Duration> delays;
  engine.SpawnOnShard(1, 0, RecordThenProbe(&engine, &board, node, &delays));
  engine.Run();
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_EQ(delays[0], policy.hedge_min_delay);  // same window: cold start
  EXPECT_GT(delays[1], Millis(45));              // next window: published
}

}  // namespace
}  // namespace spongefiles
