#include "obs/trace.h"

#include <cstdio>

#include "obs/json.h"

namespace spongefiles::obs {

void Tracer::Clear() {
  events_.clear();
  next_seq_ = 0;
}

void Tracer::CompleteEvent(int64_t ts, int64_t dur, uint64_t pid, uint64_t tid,
                           const char* category, std::string name,
                           TraceArgs args) {
  if (!enabled_) return;
  events_.push_back(Event{'X', ts, dur, pid, tid, category, std::move(name),
                          std::move(args), next_seq_++});
}

void Tracer::InstantEvent(int64_t ts, uint64_t pid, uint64_t tid,
                          const char* category, std::string name,
                          TraceArgs args) {
  if (!enabled_) return;
  events_.push_back(Event{'i', ts, 0, pid, tid, category, std::move(name),
                          std::move(args), next_seq_++});
}

std::string Tracer::ToJson() const {
  std::string out;
  out.reserve(events_.size() * 128 + 64);
  out.append("{\"traceEvents\":[\n");
  bool first = true;
  for (const Event& e : events_) {
    if (!first) out.append(",\n");
    first = false;
    out.append("{\"name\":");
    AppendJsonEscaped(&out, e.name);
    out.append(",\"cat\":");
    AppendJsonEscaped(&out, e.category);
    out.append(",\"ph\":\"");
    out.push_back(e.phase);
    out.push_back('"');
    if (e.phase == 'i') out.append(",\"s\":\"t\"");  // thread-scoped instant
    out.append(",\"ts\":");
    AppendJsonInt(&out, e.ts);
    if (e.phase == 'X') {
      out.append(",\"dur\":");
      AppendJsonInt(&out, e.dur);
    }
    out.append(",\"pid\":");
    AppendJsonUint(&out, e.pid);
    out.append(",\"tid\":");
    AppendJsonUint(&out, e.tid);
    out.append(",\"args\":{\"seq\":");
    AppendJsonUint(&out, e.seq);
    for (const TraceArg& arg : e.args) {
      out.push_back(',');
      AppendJsonEscaped(&out, arg.key);
      out.push_back(':');
      if (arg.quoted) {
        AppendJsonEscaped(&out, arg.value);
      } else {
        out.append(arg.value);
      }
    }
    out.append("}}");
  }
  out.append("\n],\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

Status Tracer::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Internal("cannot open " + path);
  std::string json = ToJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) return Internal("short write to " + path);
  return Status::OK();
}

std::vector<std::pair<int64_t, int64_t>> Tracer::SpansNamed(
    const std::string& name) const {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (const Event& e : events_) {
    if (e.name == name) out.emplace_back(e.ts, e.dur);
  }
  return out;
}

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

}  // namespace spongefiles::obs
