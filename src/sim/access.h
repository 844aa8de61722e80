#ifndef SPONGEFILES_SIM_ACCESS_H_
#define SPONGEFILES_SIM_ACCESS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"

namespace spongefiles::sim {

// ---------------------------------------------------------------------------
// Access-set recording: a detector for ordering hazards of the sharded
// schedule.
//
// The rack-sharded schedule (DESIGN.md §13) runs each shard up to a
// conservative lookahead — the minimum latency of any message that could
// still arrive from another shard. Under that rule, two events on
// different shards whose timestamps are within one lookahead of each other
// run in lane order, not timestamp order; any state they share is then
// touched out of causal order.
//
// The sequential engine, in an opt-in instrumented mode
// (Engine::RecordAccessSets), tells the recorder when each event begins;
// components log (object, field-group, read/write) touches via the
// SIM_READ/SIM_WRITE macros below. The recorder derives each event's home
// shard from the first node- or rack-homed object it touches, keeps a
// sliding window of recent accesses per (object, group), and reports every
// read-write or write-write pair that (a) comes from two events with
// different homes and (b) falls within the lookahead window — i.e. every
// pair the sharded schedule could actually reorder. Objects declared
// global-with-reason are the sanctioned shared state (failure-detector
// flags, central services); their touches are censused but never
// conflicts.
//
// Causally-ordered cross-shard work is excluded automatically: a message
// from shard A to shard B pays at least the minimum link latency, which
// is at least the lookahead, so the receive event sits outside the
// window. Only shared-memory shortcuts — state touched from two homes
// within a lookahead, with no message in between — surface.
// ---------------------------------------------------------------------------

class AccessRecorder {
 public:
  struct Config {
    // Lookahead of the node-sharded engine: the minimum one-way network
    // latency (any cross-node message pays at least this much).
    Duration node_lookahead = Micros(300);
    // Lookahead of the rack-sharded engine: latency + cross-rack penalty.
    Duration rack_lookahead = Micros(500);
  };

  // Where an object lives in the sharded design.
  enum class Home : uint8_t {
    kNode,    // owned by one node's shard
    kRack,    // owned by one rack's shard (e.g. a tracker shard)
    kGlobal,  // deliberately shared; must carry a reason
  };

  struct Domain {
    Home home;
    size_t node = 0;  // kNode only
    size_t rack = 0;  // kRack only (kNode racks resolve via SetRacks)
    const char* reason = "";  // kGlobal only
  };

  static Domain NodeDomain(size_t node) {
    return Domain{Home::kNode, node, 0, ""};
  }
  static Domain RackDomain(size_t rack) {
    return Domain{Home::kRack, 0, rack, ""};
  }
  static Domain GlobalDomain(const char* reason) {
    return Domain{Home::kGlobal, 0, 0, reason};
  }

  // One confirmed conflicting pair under one projection.
  struct Conflict {
    std::string object;      // "SpongeServer@node3"
    std::string group;       // field group, e.g. "pool"
    std::string projection;  // "node" or "rack"
    uint64_t event_a = 0, event_b = 0;
    SimTime time_a = 0, time_b = 0;
    std::string home_a, home_b;  // "node3" / "rack1"
    bool write_a = false, write_b = false;
  };

  struct Census {
    uint64_t events = 0;           // instrumented events seen
    uint64_t touched_events = 0;   // events with at least one access
    uint64_t accesses = 0;         // raw Record calls
    uint64_t global_accesses = 0;  // touches of global-with-reason objects
    uint64_t split_events = 0;     // events spanning >1 node home (these
                                   // are the message-split points a
                                   // parallel port must cut at)
    std::vector<Conflict> conflicts;
    // Global objects touched, with their declared reasons.
    std::map<std::string, std::string> global_objects;
  };

  AccessRecorder() : config_(Config()) {}
  explicit AccessRecorder(Config config) : config_(config) {}

  // Node -> rack mapping so node-homed objects resolve their rack for the
  // rack projection; unset (or out of range) means rack 0.
  void SetRacks(std::vector<size_t> rack_of_node) {
    rack_of_node_ = std::move(rack_of_node);
  }

  // Called by the engine before resuming each scheduled event. `lane` is
  // the shard lane executing the event (0 on an unsharded engine and on
  // the global lane).
  void BeginEvent(SimTime now, uint32_t lane = 0);

  // Called by the sharded serial driver at each conservative window start.
  // Once windows are announced, the recorder additionally reports a "lane"
  // projection conflict for every (object, group) touched from two
  // distinct *worker* lanes inside one window with at least one write —
  // the accesses the schedule orders by lane rather than by time. A
  // clean sequential census predicts zero of these; any hit is a shard
  // assignment the static analysis missed.
  void BeginWindow(uint64_t id);

  // Called by components via SIM_READ / SIM_WRITE. `object_name` and
  // `group` must be literals (or otherwise outlive the recorder). The
  // domain is bound to `obj` on first touch; later touches reuse it.
  void Record(const void* obj, const char* object_name, const char* group,
              bool write, Domain domain);

  // Flushes the final in-flight event into the census.
  void Finish();

  const Census& census() const { return census_; }

  // Conflicts whose object is NOT global (global ones never enter
  // `conflicts` in the first place) — the go/no-go number.
  size_t unexplained_conflicts() const { return census_.conflicts.size(); }

  // The full census as deterministic JSON (stable ordering).
  std::string CensusJson() const;

 private:
  struct ObjectInfo {
    std::string label;  // "SpongeServer@node3"
    Domain domain;
    size_t rack = 0;  // resolved rack (all homes)
  };

  // One deduplicated access by the event being processed.
  struct EventAccess {
    const void* obj;
    const char* group;
    bool write;
  };

  // A window entry: one (event, object, group) access, strongest kind.
  struct WindowEntry {
    SimTime time;
    uint64_t event_id;
    bool write;
    bool has_node;   // anchored event had a node home (node projection)
    size_t node;     // anchor node (when has_node)
    size_t rack;     // anchor rack (always)
    uint32_t lane;   // executing shard lane (sharded runs; 0 otherwise)
    uint64_t window; // conservative window id (0 = no window announced)
  };

  void FlushEvent();
  size_t RackOf(size_t node) const {
    return node < rack_of_node_.size() ? rack_of_node_[node] : 0;
  }

  Config config_;
  std::vector<size_t> rack_of_node_;
  Census census_;

  std::map<const void*, ObjectInfo> objects_;
  // Keyed by group *content*, not pointer: the same group literal shows up
  // at different addresses across translation units.
  std::map<std::pair<const void*, std::string>, std::deque<WindowEntry>>
      windows_;
  std::set<std::string> reported_;  // conflict dedup keys

  // Current event state.
  bool in_event_ = false;
  SimTime event_time_ = 0;
  uint64_t event_id_ = 0;
  uint32_t event_lane_ = 0;
  uint64_t window_id_ = 0;  // current conservative window (0 = none)
  std::vector<EventAccess> event_accesses_;
};

}  // namespace spongefiles::sim

// Instrumentation hooks. Compiled in everywhere, but the only cost when
// recording is off (the default) is one pointer load and branch.
#define SIM_ACCESS(engine, obj, object_name, group, write, domain)       \
  do {                                                                   \
    ::spongefiles::sim::AccessRecorder* sim_access_recorder_tmp_ =       \
        (engine)->access_recorder();                                     \
    if (sim_access_recorder_tmp_ != nullptr) {                           \
      sim_access_recorder_tmp_->Record((obj), (object_name), (group),    \
                                       (write), (domain));               \
    }                                                                    \
  } while (0)

#define SIM_READ(engine, obj, object_name, group, domain) \
  SIM_ACCESS(engine, obj, object_name, group, false, domain)
#define SIM_WRITE(engine, obj, object_name, group, domain) \
  SIM_ACCESS(engine, obj, object_name, group, true, domain)

#endif  // SPONGEFILES_SIM_ACCESS_H_
