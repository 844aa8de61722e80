#ifndef SPONGEFILES_SIM_ENGINE_H_
#define SPONGEFILES_SIM_ENGINE_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"
#include "sim/task.h"

namespace spongefiles::sim {

// A deterministic discrete-event engine. Simulated activities are
// coroutines (Task<T>); they advance simulated time by awaiting Delay and
// the synchronization primitives in sim/sync.h.
//
// Determinism: events scheduled for the same instant fire in schedule
// order (FIFO by a monotonically increasing sequence number).
//
// Fast path (see DESIGN.md "Performance engineering"): timed events live in
// a pooled 4-ary min-heap ordered by (time, seq); events scheduled for the
// *current* instant — zero-delay yields, symmetric hand-offs — skip the
// heap entirely and go through a FIFO ring, making the dominant event class
// O(1). The two structures together preserve exact seq order: every heap
// event at time T was scheduled before now() reached T, so it precedes
// every ring event (all enqueued at now() == T). Both structures recycle
// their slabs — steady-state scheduling allocates nothing.
//
// Sharded mode (see DESIGN.md "Sharded serial schedule"): ConfigureShards
// splits the engine into N lanes, each running the same heap+ring fast path
// over its own queue. Lane 0 is the *global* lane (services, coordinators,
// any state not owned by one shard); lanes 1..N-1 are worker lanes holding
// the events of the nodes mapped to them. Execution proceeds in
// conservative windows of width `lookahead` (the minimum cross-shard
// message latency): within a window, worker lanes run one after another in
// lane order (phase A), then the global lane runs (phase B), then
// cross-lane messages buffered in per-lane outboxes are delivered in
// (source lane, emission order) into the target heaps, clamped to the
// window boundary. Worker lanes may only touch their own state; the global
// lane may touch any lane's. Everything runs on the caller's thread.
class AccessRecorder;  // sim/access.h

// Maps simulation state to lanes. lane_of_node[i] is the lane that owns
// node i's events (0 = the global lane); lookahead is the conservative
// window width — no cross-lane interaction can take effect sooner.
struct ShardPlan {
  uint32_t lanes = 1;  // total, including lane 0 (the global lane)
  Duration lookahead = 0;  // required > 0 when lanes > 1
  std::vector<uint32_t> lane_of_node;  // node -> lane; empty = all lane 0
};

class Engine {
 private:
  struct Event {
    SimTime at;
    uint64_t seq;
    std::coroutine_handle<> handle;
  };

  // A cross-lane wake buffered during a window, delivered at the barrier.
  struct Outbound {
    uint32_t lane;
    SimTime at;
    std::coroutine_handle<> handle;
  };

  // Spawn wrappers still in flight. Slots are recycled through a free list
  // (O(1) register/release, no hashing); each slot keeps the monotonically
  // increasing spawn id so DrainDetached can destroy frames in spawn order
  // even after slot reuse has shuffled the vector.
  struct DetachedSlot {
    uint64_t id = 0;
    std::coroutine_handle<> handle;  // null when the slot is free
  };

  // One shard context: the complete single-threaded engine state, per
  // lane. An unsharded engine is exactly one lane.
  struct Lane {
    uint32_t index = 0;
    SimTime now = 0;
    uint64_t next_seq = 0;
    uint64_t next_detached_id = 0;
    uint64_t events_processed = 0;

    std::vector<Event> heap;  // 4-ary min-heap by (at, seq)

    // Power-of-two circular buffer of handles resuming at `now`.
    std::vector<std::coroutine_handle<>> ring;
    size_t ring_head = 0;
    size_t ring_tail = 0;

    std::vector<DetachedSlot> detached_slots;
    std::vector<uint32_t> detached_free;
    size_t detached_live = 0;

    // Cross-lane traffic and deferred barrier work, filled while this lane
    // runs, drained by the driver at the window barrier.
    std::vector<Outbound> outbox;
    std::vector<std::function<void()>> deferred;
  };

 public:
  Engine() : lanes_(1), main_(&lanes_[0]) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine() { DrainDetached(); }

  // Simulated time as seen by the calling context: the current lane's
  // clock while a worker lane runs, the global lane's otherwise.
  SimTime now() const {
    return current_ != nullptr ? current_->now : main_->now;
  }

  // ---- sharding ----------------------------------------------------------

  // Splits the engine into `plan.lanes` shard contexts. Must be called
  // before anything is spawned or run; irreversible for the engine's
  // lifetime. With plan.lanes == 1 the engine stays on the legacy
  // single-queue path, byte-identical to an unconfigured engine.
  void ConfigureShards(ShardPlan plan);

  uint32_t lane_count() const { return lane_count_; }
  Duration lookahead() const { return lookahead_; }

  // Lane of the calling context (0 outside worker-lane execution).
  uint32_t current_lane() const {
    return current_ != nullptr ? current_->index : 0;
  }

  uint32_t lane_of_node(size_t node) const {
    return node < lane_of_node_.size() ? lane_of_node_[node] : 0;
  }

  // Whether node `node`'s state is owned by a lane other than the calling
  // one — the RPC layer's cue to hop to the global lane.
  bool OnForeignLane(size_t node) const {
    return lane_count_ > 1 && current_lane() != lane_of_node(node);
  }

  // Awaitable: migrates the awaiting coroutine to `lane`. Same-lane hops
  // complete without suspending; cross-lane hops are delivered at the next
  // window barrier (so they cost up to one lookahead of simulated time —
  // the quantization every cross-shard interaction pays in sharded mode).
  auto HopToLane(uint32_t lane) {
    struct Awaiter {
      Engine* engine;
      uint32_t lane;
      bool await_ready() const { return engine->current_lane() == lane; }
      void await_suspend(std::coroutine_handle<> h) {
        engine->ScheduleHandleOnLane(engine->now(), h, lane);
      }
      void await_resume() const {}
    };
    return Awaiter{this, lane};
  }

  // Runs `fn` at the next window barrier (unsharded: at once). For
  // cross-lane bookkeeping, and updates to state other lanes read, that
  // must not land mid-window.
  void DeferToBarrier(std::function<void()> fn);

  // ---- spawning ----------------------------------------------------------

  // Detaches `task` and schedules it to start at the current time on the
  // calling context's lane. The coroutine frame self-destructs when the
  // task completes.
  void Spawn(Task<> task);

  // Detaches `task` and schedules it to start at absolute time `at`
  // (must be >= the current lane's now()).
  void SpawnAt(SimTime at, Task<> task);

  // Homes `task` on `lane` starting at `at`. Only safe while the target
  // lane is quiescent: before the first Run, or from the global lane.
  void SpawnOnShard(uint32_t lane, SimTime at, Task<> task);

  // ---- running ------------------------------------------------------------

  // Runs until the event queue drains. Returns the number of events
  // processed. Activities blocked on sync primitives with no pending
  // wake-ups simply never resume (e.g. a server loop awaiting a closed-over
  // channel); callers shut such loops down via their own stop mechanisms.
  uint64_t Run();

  // Runs until the event queue drains or simulated time would exceed
  // `deadline`; events after the deadline remain queued. On return every
  // lane's clock reads at least `deadline`.
  uint64_t RunUntil(SimTime deadline);

  // Executes one worker lane's events below `window_end` (phase A of the
  // current window), with now(), current_lane() and the scheduling
  // primitives resolving to that lane meanwhile. Returns events processed.
  uint64_t RunWorkerLane(uint32_t lane, SimTime window_end);

  // ---- scheduling primitives ---------------------------------------------

  // Schedules `h` to resume at absolute simulated time `at` (>= now()) on
  // the calling context's lane. This is the primitive all awaitables build
  // on.
  void ScheduleHandle(SimTime at, std::coroutine_handle<> h);

  // Schedules `h` on `lane`: directly when `lane` is the calling context's
  // own, via the calling lane's outbox otherwise (delivered at the next
  // barrier, clamped to the window boundary). Sync primitives use this to
  // return a waiter to the lane it suspended on.
  void ScheduleHandleOnLane(SimTime at, std::coroutine_handle<> h,
                            uint32_t lane);

  // Teardown pass: destroys every still-live detached coroutine (service
  // loops parked on their next period, RPCs abandoned on a hung server,
  // ...) after discarding the pending event queues, so no frame leaks when
  // the simulation ends mid-flight. Destroying a spawn wrapper cascades
  // down its await chain, reclaiming the whole suspended stack. Frames are
  // destroyed in spawn order: the global lane's first, then each worker
  // lane's in lane order. Returns the number of top-level frames destroyed.
  size_t DrainDetached();

  // Detached frames currently live (diagnostics and tests).
  size_t detached_live() const;

  // Awaitable: suspends the caller for `d` simulated microseconds
  // (d >= 0; a zero delay still yields through the event queue).
  auto Delay(Duration d) {
    struct Awaiter {
      Engine* engine;
      Duration d;
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        engine->ScheduleHandle(engine->now() + d, h);
      }
      void await_resume() const {}
    };
    return Awaiter{this, d < 0 ? 0 : d};
  }

  // Number of events processed so far, all lanes (diagnostics).
  uint64_t events_processed() const;

  // Per-lane event count (sharded diagnostics; lane < lane_count()).
  uint64_t lane_events(uint32_t lane) const {
    return lanes_[lane].events_processed;
  }

  // Opt-in access-set recording (see sim/access.h): when a recorder is
  // attached, the engine announces each event to it before resuming the
  // event's continuation chain, and the SIM_READ/SIM_WRITE hooks in the
  // components feed it. Pass nullptr to detach. Off by default; the only
  // hot-path cost when off is one null check per event and per hook. On
  // a sharded engine the recorder stamps each event with its lane and
  // window for the lane-conflict census.
  void RecordAccessSets(AccessRecorder* recorder) { recorder_ = recorder; }
  AccessRecorder* access_recorder() const { return recorder_; }

 private:
  // ---- per-lane structure helpers ----------------------------------------
  static void HeapPush(Lane& lane, Event ev);
  // Requires a non-empty heap; returns the (time, seq)-least event.
  static Event HeapPop(Lane& lane);
  static void RingPush(Lane& lane, std::coroutine_handle<> h);
  static std::coroutine_handle<> RingPop(Lane& lane);
  static bool RingEmpty(const Lane& lane) {
    return lane.ring_head == lane.ring_tail;
  }

  // The calling context's lane.
  Lane& CurrentLaneRef() { return current_ != nullptr ? *current_ : *main_; }

  // The legacy run loop over one lane: executes events with at <=
  // `deadline` (heap-at-now first, then ring, then advance). Exact
  // schedule order; see ScheduleHandle.
  uint64_t RunLaneEvents(Lane& lane, SimTime deadline);

  // The sharded windowed driver (lane_count_ > 1).
  uint64_t RunWindows(SimTime deadline, bool bounded);

  // Earliest pending event time on `lane`, or kNoEvent.
  static SimTime NextEventTime(const Lane& lane);

  uint32_t ClaimDetachedSlot(Lane& lane);
  void ReleaseDetached(uint32_t lane, uint32_t slot);
  void ScheduleSpawn(Lane& lane, SimTime at, Task<> task);

  friend Task<> RunDetachedWrapper(Engine* engine, uint32_t lane,
                                   uint32_t slot, Task<> task);

  uint32_t lane_count_ = 1;
  Duration lookahead_ = 0;
  std::vector<uint32_t> lane_of_node_;
  std::vector<Lane> lanes_;
  Lane* main_;  // &lanes_[0]
  // The worker lane RunWorkerLane is executing; null otherwise (lane 0).
  Lane* current_ = nullptr;
  AccessRecorder* recorder_ = nullptr;
  uint64_t window_counter_ = 0;
};

}  // namespace spongefiles::sim

#endif  // SPONGEFILES_SIM_ENGINE_H_
