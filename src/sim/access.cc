#include "sim/access.h"

#include <algorithm>
#include <cstring>

namespace spongefiles::sim {

namespace {

std::string HomeLabel(bool has_node, size_t node, size_t rack,
                      const char* projection) {
  if (std::strcmp(projection, "node") == 0) {
    return "node" + std::to_string(node);
  }
  (void)has_node;
  return "rack" + std::to_string(rack);
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      default: out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

void AccessRecorder::BeginEvent(SimTime now, uint32_t lane) {
  FlushEvent();
  in_event_ = true;
  event_time_ = now;
  event_lane_ = lane;
  ++event_id_;
  ++census_.events;
}

void AccessRecorder::BeginWindow(uint64_t id) {
  FlushEvent();
  window_id_ = id;
}

void AccessRecorder::Record(const void* obj, const char* object_name,
                            const char* group, bool write, Domain domain) {
  ++census_.accesses;
  auto [it, inserted] = objects_.try_emplace(obj);
  if (inserted) {
    ObjectInfo& info = it->second;
    info.domain = domain;
    switch (domain.home) {
      case Home::kNode:
        info.label = std::string(object_name) + "@node" +
                     std::to_string(domain.node);
        info.rack = RackOf(domain.node);
        break;
      case Home::kRack:
        info.label = std::string(object_name) + "@rack" +
                     std::to_string(domain.rack);
        info.rack = domain.rack;
        break;
      case Home::kGlobal:
        info.label = std::string(object_name) + "@global";
        break;
    }
    if (domain.home == Home::kGlobal) {
      census_.global_objects[info.label] = domain.reason;
    }
  }
  if (it->second.domain.home == Home::kGlobal) {
    ++census_.global_accesses;
    return;  // sanctioned shared state: censused, never a conflict
  }
  if (!in_event_) return;  // touch outside any scheduled event (setup code)
  // Within-event dedup: one entry per (obj, group), strongest kind wins.
  // An event is one sequential continuation chain — it cannot race with
  // itself, so only its net footprint matters.
  for (EventAccess& a : event_accesses_) {
    if (a.obj == obj && std::strcmp(a.group, group) == 0) {
      a.write = a.write || write;
      return;
    }
  }
  event_accesses_.push_back(EventAccess{obj, group, write});
}

void AccessRecorder::FlushEvent() {
  if (!in_event_) return;
  in_event_ = false;
  if (event_accesses_.empty()) return;
  ++census_.touched_events;

  // Derive the event's home from the first node-/rack-homed touch, and
  // count node-projection splits (an event touching state homed at two
  // nodes is a point the parallel port must cut with a message).
  bool has_node = false;
  size_t anchor_node = 0, anchor_rack = 0;
  bool anchored = false, split = false;
  for (const EventAccess& a : event_accesses_) {
    const ObjectInfo& info = objects_.at(a.obj);
    if (!anchored) {
      anchored = true;
      has_node = info.domain.home == Home::kNode;
      anchor_node = info.domain.node;
      anchor_rack = info.rack;
    } else if (info.domain.home == Home::kNode &&
               (!has_node || info.domain.node != anchor_node)) {
      split = true;
    } else if (info.domain.home == Home::kRack && has_node) {
      split = true;
    }
  }
  if (split) ++census_.split_events;

  const Duration max_window =
      std::max(config_.node_lookahead, config_.rack_lookahead);
  for (const EventAccess& a : event_accesses_) {
    const ObjectInfo& info = objects_.at(a.obj);
    auto& window = windows_[{a.obj, a.group}];
    while (!window.empty() && event_time_ - window.front().time >= max_window &&
           !(window_id_ != 0 && window.front().window == window_id_)) {
      window.pop_front();
    }
    for (const WindowEntry& e : window) {
      if (!e.write && !a.write) continue;  // read-read never conflicts
      // Lane projection (sharded runs only): two worker lanes touching the
      // same (object, group) inside one conservative window is exactly the
      // pair the schedule orders by lane rather than by time. The global
      // lane (lane 0) runs in its own phase and never conflicts.
      if (window_id_ != 0 && e.window == window_id_ && e.lane != event_lane_ &&
          e.lane >= 1 && event_lane_ >= 1) {
        std::string key = info.label + "/" + std::string(a.group) + "/lane/" +
                          "lane" + std::to_string(e.lane) + "/lane" +
                          std::to_string(event_lane_);
        if (reported_.insert(key).second) {
          Conflict c;
          c.object = info.label;
          c.group = a.group;
          c.projection = "lane";
          c.event_a = e.event_id;
          c.event_b = event_id_;
          c.time_a = e.time;
          c.time_b = event_time_;
          c.home_a = "lane" + std::to_string(e.lane);
          c.home_b = "lane" + std::to_string(event_lane_);
          c.write_a = e.write;
          c.write_b = a.write;
          census_.conflicts.push_back(std::move(c));
        }
      }
      const Duration dt = event_time_ - e.time;
      struct Projection {
        const char* name;
        bool applies;
        bool differs;
        Duration lookahead;
      };
      const Projection projections[] = {
          {"node", e.has_node && has_node,
           e.node != anchor_node, config_.node_lookahead},
          {"rack", true, e.rack != anchor_rack, config_.rack_lookahead},
      };
      for (const Projection& p : projections) {
        if (!p.applies || !p.differs || dt >= p.lookahead) continue;
        std::string key = info.label + "/" + a.group + "/" + p.name + "/" +
                          HomeLabel(e.has_node, e.node, e.rack, p.name) +
                          "/" +
                          HomeLabel(has_node, anchor_node, anchor_rack,
                                    p.name);
        if (!reported_.insert(key).second) continue;
        Conflict c;
        c.object = info.label;
        c.group = a.group;
        c.projection = p.name;
        c.event_a = e.event_id;
        c.event_b = event_id_;
        c.time_a = e.time;
        c.time_b = event_time_;
        c.home_a = HomeLabel(e.has_node, e.node, e.rack, p.name);
        c.home_b = HomeLabel(has_node, anchor_node, anchor_rack, p.name);
        c.write_a = e.write;
        c.write_b = a.write;
        census_.conflicts.push_back(std::move(c));
      }
    }
    window.push_back(WindowEntry{event_time_, event_id_, a.write, has_node,
                                 anchor_node, anchor_rack, event_lane_,
                                 window_id_});
  }
  event_accesses_.clear();
}

void AccessRecorder::Finish() { FlushEvent(); }

std::string AccessRecorder::CensusJson() const {
  std::string out = "{\n";
  out += "  \"events\": " + std::to_string(census_.events) + ",\n";
  out += "  \"touched_events\": " + std::to_string(census_.touched_events) +
         ",\n";
  out += "  \"accesses\": " + std::to_string(census_.accesses) + ",\n";
  out += "  \"global_accesses\": " + std::to_string(census_.global_accesses) +
         ",\n";
  out += "  \"split_events\": " + std::to_string(census_.split_events) + ",\n";
  out += "  \"unexplained_conflicts\": " +
         std::to_string(census_.conflicts.size()) + ",\n";
  out += "  \"global_objects\": {";
  bool first = true;
  for (const auto& [label, reason] : census_.global_objects) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(&out, label);
    out += ": ";
    AppendJsonString(&out, reason);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"conflicts\": [";
  first = true;
  for (const Conflict& c : census_.conflicts) {
    out += first ? "\n    {" : ",\n    {";
    first = false;
    out += "\"object\": ";
    AppendJsonString(&out, c.object);
    out += ", \"group\": ";
    AppendJsonString(&out, c.group);
    out += ", \"projection\": ";
    AppendJsonString(&out, c.projection);
    out += ", \"event_a\": " + std::to_string(c.event_a);
    out += ", \"event_b\": " + std::to_string(c.event_b);
    out += ", \"time_a\": " + std::to_string(c.time_a);
    out += ", \"time_b\": " + std::to_string(c.time_b);
    out += ", \"home_a\": ";
    AppendJsonString(&out, c.home_a);
    out += ", \"home_b\": ";
    AppendJsonString(&out, c.home_b);
    out += ", \"write_a\": ";
    out += c.write_a ? "true" : "false";
    out += ", \"write_b\": ";
    out += c.write_b ? "true" : "false";
    out += "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace spongefiles::sim
