#include "sim/engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "sim/access.h"

namespace spongefiles::sim {

namespace {

constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

// Heap order: earlier time first; FIFO by schedule sequence within an
// instant.
inline bool Before(SimTime a_at, uint64_t a_seq, SimTime b_at,
                   uint64_t b_seq) {
  if (a_at != b_at) return a_at < b_at;
  return a_seq < b_seq;
}

}  // namespace

// Wraps a detached task so the frame marks itself detached before running.
// (The wrapper frame is what Spawn schedules; it awaits the real task.)
// On completion the wrapper returns its registry slot *before*
// final_suspend destroys the frame, so the registry only ever holds
// destroyable frames.
Task<> RunDetachedWrapper(Engine* engine, uint32_t lane, uint32_t slot,
                          Task<> task) {
  co_await task;
  engine->ReleaseDetached(lane, slot);
}

void Engine::ConfigureShards(ShardPlan plan) {
  SPONGE_CHECK(plan.lanes >= 1);
  SPONGE_CHECK(lane_count_ == 1) << "engine already sharded";
  SPONGE_CHECK(main_->heap.empty() && RingEmpty(*main_) &&
               main_->detached_live == 0)
      << "ConfigureShards must precede all scheduling";
  for (uint32_t lane : plan.lane_of_node) SPONGE_CHECK(lane < plan.lanes);
  lane_of_node_ = std::move(plan.lane_of_node);
  if (plan.lanes == 1) return;  // stays on the legacy single-queue path
  SPONGE_CHECK(plan.lookahead > 0)
      << "sharded execution needs a positive lookahead";
  lane_count_ = plan.lanes;
  lookahead_ = plan.lookahead;
  lanes_.resize(lane_count_);
  main_ = &lanes_[0];
  for (uint32_t i = 0; i < lane_count_; ++i) lanes_[i].index = i;
}

void Engine::Spawn(Task<> task) {
  Lane& lane = CurrentLaneRef();
  ScheduleSpawn(lane, lane.now, std::move(task));
}

void Engine::SpawnAt(SimTime at, Task<> task) {
  ScheduleSpawn(CurrentLaneRef(), at, std::move(task));
}

void Engine::SpawnOnShard(uint32_t lane, SimTime at, Task<> task) {
  SPONGE_CHECK(lane < lane_count_);
  ScheduleSpawn(lanes_[lane], at, std::move(task));
}

uint32_t Engine::ClaimDetachedSlot(Lane& lane) {
  if (!lane.detached_free.empty()) {
    uint32_t slot = lane.detached_free.back();
    lane.detached_free.pop_back();
    return slot;
  }
  uint32_t slot = static_cast<uint32_t>(lane.detached_slots.size());
  lane.detached_slots.emplace_back();
  return slot;
}

void Engine::ScheduleSpawn(Lane& lane, SimTime at, Task<> task) {
  SPONGE_CHECK(at >= lane.now)
      << "SpawnAt in the past: " << at << " < " << lane.now;
  // Claim the slot first: the wrapper's frame captures the slot index it
  // will release on completion.
  uint32_t slot = ClaimDetachedSlot(lane);
  Task<> wrapper = RunDetachedWrapper(this, lane.index, slot, std::move(task));
  auto handle = wrapper.Release();
  handle.promise().detached = true;
  lane.detached_slots[slot] = DetachedSlot{lane.next_detached_id++, handle};
  ++lane.detached_live;
  if (&lane == &CurrentLaneRef()) {
    if (at == lane.now) {
      RingPush(lane, handle);
    } else {
      HeapPush(lane, Event{at, lane.next_seq++, handle});
    }
  } else {
    // Homing onto a quiescent foreign lane (pre-run setup, or the global
    // lane placing work during phase B): always through the heap — heap
    // events at an instant precede ring events, and the lane is not at
    // `at` yet anyway.
    HeapPush(lane, Event{at, lane.next_seq++, handle});
  }
}

void Engine::ReleaseDetached(uint32_t lane_index, uint32_t slot) {
  Lane& owner = lanes_[lane_index];
  if (&owner == &CurrentLaneRef()) {
    owner.detached_slots[slot].handle = nullptr;
    owner.detached_free.push_back(slot);
    --owner.detached_live;
    return;
  }
  // The task finished on a foreign lane (it hopped and never returned
  // home); the owner's registry is not ours to touch mid-window.
  DeferToBarrier([this, lane_index, slot] {
    Lane& owner_lane = lanes_[lane_index];
    owner_lane.detached_slots[slot].handle = nullptr;
    owner_lane.detached_free.push_back(slot);
    --owner_lane.detached_live;
  });
}

void Engine::DeferToBarrier(std::function<void()> fn) {
  if (lane_count_ == 1) {
    fn();
    return;
  }
  CurrentLaneRef().deferred.push_back(std::move(fn));
}

size_t Engine::DrainDetached() {
  // Pending barrier work first: it is registry bookkeeping for frames that
  // already destroyed themselves, and must land before the snapshot below
  // treats their slots as live.
  for (Lane& lane : lanes_) {
    std::vector<std::function<void()>> work;
    work.swap(lane.deferred);
    for (auto& fn : work) fn();
  }
  size_t destroyed = 0;
  // Lane order: the global lane's frames first, then each worker lane's —
  // within a lane, spawn order (ids are per-lane monotone).
  for (Lane& lane : lanes_) {
    // Discard pending events first: they reference frames about to be
    // destroyed (and destroying a parent already reclaims any suspended
    // child a queued handle might point into).
    lane.heap.clear();
    lane.ring_head = lane.ring_tail = 0;
    lane.outbox.clear();
    // Snapshot the live frames and reset the registry before destroying,
    // so the loop is immune to destructor side effects (a frame-local
    // destructor must not spawn, but be defensive).
    std::vector<DetachedSlot> live;
    live.reserve(lane.detached_live);
    for (const DetachedSlot& slot : lane.detached_slots) {
      if (slot.handle) live.push_back(slot);
    }
    lane.detached_slots.clear();
    lane.detached_free.clear();
    lane.detached_live = 0;
    std::sort(live.begin(), live.end(),
              [](const DetachedSlot& a, const DetachedSlot& b) {
                return a.id < b.id;
              });
    for (const DetachedSlot& slot : live) slot.handle.destroy();
    destroyed += live.size();
  }
  return destroyed;
}

size_t Engine::detached_live() const {
  size_t n = 0;
  for (const Lane& lane : lanes_) n += lane.detached_live;
  return n;
}

uint64_t Engine::events_processed() const {
  uint64_t n = 0;
  for (const Lane& lane : lanes_) n += lane.events_processed;
  return n;
}

void Engine::ScheduleHandle(SimTime at, std::coroutine_handle<> h) {
  Lane& lane = CurrentLaneRef();
  SPONGE_CHECK(at >= lane.now)
      << "schedule in the past: " << at << " < " << lane.now;
  if (at == lane.now) {
    // Same-instant fast path: no heap sift, no seq needed — the ring is
    // FIFO, and every already-heaped event at this instant was scheduled
    // earlier (smaller seq), so "drain heap@now first, then ring" is exact
    // schedule order.
    RingPush(lane, h);
  } else {
    HeapPush(lane, Event{at, lane.next_seq++, h});
  }
}

void Engine::ScheduleHandleOnLane(SimTime at, std::coroutine_handle<> h,
                                  uint32_t target) {
  Lane& current = CurrentLaneRef();
  if (target == current.index) {
    SPONGE_CHECK(at >= current.now)
        << "schedule in the past: " << at << " < " << current.now;
    if (at == current.now) {
      RingPush(current, h);
    } else {
      HeapPush(current, Event{at, current.next_seq++, h});
    }
    return;
  }
  SPONGE_CHECK(target < lane_count_);
  // Buffered until the window barrier; delivery clamps to the window
  // boundary, so the receiving lane has provably not run past it.
  current.outbox.push_back(Outbound{target, at, h});
}

// ---- timed-event store ----------------------------------------------------

void Engine::HeapPush(Lane& lane, Event ev) {
  auto& heap = lane.heap;
  heap.push_back(ev);
  size_t i = heap.size() - 1;
  while (i > 0) {
    size_t parent = (i - 1) >> 2;
    if (!Before(heap[i].at, heap[i].seq, heap[parent].at, heap[parent].seq)) {
      break;
    }
    std::swap(heap[i], heap[parent]);
    i = parent;
  }
}

Engine::Event Engine::HeapPop(Lane& lane) {
  auto& heap = lane.heap;
  Event top = heap.front();
  Event last = heap.back();
  heap.pop_back();
  if (!heap.empty()) {
    // Percolate the hole down, moving `last` as little as possible: a
    // 4-ary heap halves the tree depth of the binary heap and keeps the
    // children of a node on one cache line pair.
    size_t i = 0;
    const size_t n = heap.size();
    for (;;) {
      size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      size_t end = std::min(first + 4, n);
      for (size_t j = first + 1; j < end; ++j) {
        if (Before(heap[j].at, heap[j].seq, heap[best].at, heap[best].seq)) {
          best = j;
        }
      }
      if (!Before(heap[best].at, heap[best].seq, last.at, last.seq)) break;
      heap[i] = heap[best];
      i = best;
    }
    heap[i] = last;
  }
  return top;
}

// ---- same-instant FIFO ring -----------------------------------------------

void Engine::RingPush(Lane& lane, std::coroutine_handle<> h) {
  auto& ring = lane.ring;
  if (ring.empty()) ring.resize(1024);
  size_t cap = ring.size();
  if (((lane.ring_tail + 1) & (cap - 1)) == lane.ring_head) {
    // Full: double the slab, linearizing the live range to the front.
    std::vector<std::coroutine_handle<>> bigger(cap * 2);
    size_t n = 0;
    for (size_t i = lane.ring_head; i != lane.ring_tail;
         i = (i + 1) & (cap - 1)) {
      bigger[n++] = ring[i];
    }
    ring = std::move(bigger);
    lane.ring_head = 0;
    lane.ring_tail = n;
    cap = ring.size();
  }
  ring[lane.ring_tail] = h;
  lane.ring_tail = (lane.ring_tail + 1) & (cap - 1);
}

std::coroutine_handle<> Engine::RingPop(Lane& lane) {
  std::coroutine_handle<> h = lane.ring[lane.ring_head];
  lane.ring_head = (lane.ring_head + 1) & (lane.ring.size() - 1);
  return h;
}

// ---- run loops ------------------------------------------------------------

uint64_t Engine::RunLaneEvents(Lane& lane, SimTime deadline) {
  uint64_t processed = 0;
  const uint32_t lane_index = lane.index;
  for (;;) {
    std::coroutine_handle<> h;
    if (lane.now <= deadline && !lane.heap.empty() &&
        lane.heap.front().at == lane.now) {
      h = HeapPop(lane).handle;
    } else if (lane.now <= deadline && !RingEmpty(lane)) {
      h = RingPop(lane);
    } else if (!lane.heap.empty() && lane.heap.front().at <= deadline) {
      lane.now = lane.heap.front().at;
      h = HeapPop(lane).handle;
    } else {
      break;
    }
    ++processed;
    ++lane.events_processed;
    if (recorder_ != nullptr) recorder_->BeginEvent(lane.now, lane_index);
    h.resume();
  }
  return processed;
}

uint64_t Engine::RunWorkerLane(uint32_t lane_index, SimTime window_end) {
  Lane& lane = lanes_[lane_index];
  current_ = &lane;
  uint64_t processed = RunLaneEvents(lane, window_end - 1);
  current_ = nullptr;
  return processed;
}

SimTime Engine::NextEventTime(const Lane& lane) {
  // Rings drain fully within a window (their events sit at the lane's
  // current instant, always eligible), so between windows only the heaps —
  // and pre-run ring entries — carry pending work.
  if (!RingEmpty(lane)) return lane.now;
  if (!lane.heap.empty()) return lane.heap.front().at;
  return kNoEvent;
}

uint64_t Engine::RunWindows(SimTime deadline, bool bounded) {
  const uint64_t start_events = events_processed();
  for (;;) {
    SimTime t = kNoEvent;
    for (const Lane& lane : lanes_) {
      t = std::min(t, NextEventTime(lane));
    }
    if (t == kNoEvent || (bounded && t > deadline)) break;
    // The window [t, w): every lane may run its own events below w without
    // hearing from the others, because any cross-lane effect emitted at or
    // after t is delivered no earlier than w.
    SimTime w = t + lookahead_;
    if (bounded && w > deadline) w = deadline + 1;
    ++window_counter_;
    if (recorder_ != nullptr) recorder_->BeginWindow(window_counter_);
    // Phase A: worker lanes, in lane order.
    for (uint32_t l = 1; l < lane_count_; ++l) RunWorkerLane(l, w);
    // Phase B: the global lane — it may touch any lane's state.
    RunLaneEvents(lanes_[0], w - 1);
    // Barrier: deferred bookkeeping, then cross-lane deliveries, in
    // (source lane, emission order); arrivals clamp to the window edge.
    for (uint32_t l = 0; l < lane_count_; ++l) {
      if (lanes_[l].deferred.empty()) continue;
      std::vector<std::function<void()>> work;
      work.swap(lanes_[l].deferred);
      for (auto& fn : work) fn();
    }
    for (uint32_t l = 0; l < lane_count_; ++l) {
      Lane& source = lanes_[l];
      for (const Outbound& ob : source.outbox) {
        Lane& target = lanes_[ob.lane];
        SimTime at = ob.at < w ? w : ob.at;
        HeapPush(target, Event{at, target.next_seq++, ob.handle});
      }
      source.outbox.clear();
    }
  }
  if (bounded) {
    for (Lane& lane : lanes_) {
      if (lane.now < deadline) lane.now = deadline;
    }
  }
  return events_processed() - start_events;
}

uint64_t Engine::Run() {
  if (lane_count_ == 1) return RunLaneEvents(*main_, kNoEvent);
  return RunWindows(kNoEvent - 1, /*bounded=*/false);
}

uint64_t Engine::RunUntil(SimTime deadline) {
  if (lane_count_ == 1) {
    uint64_t processed = RunLaneEvents(*main_, deadline);
    if (main_->now < deadline) main_->now = deadline;
    return processed;
  }
  return RunWindows(deadline, /*bounded=*/true);
}

}  // namespace spongefiles::sim
