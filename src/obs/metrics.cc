#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "obs/json.h"

namespace spongefiles::obs {

namespace {

constexpr uint32_t kSubBuckets = 1u << Histogram::kLinearBits;

// Canonical map key: name + '\0' + k '\0' v '\0' per label.
std::string InstrumentKey(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key.push_back('\0');
    key.append(k);
    key.push_back('\0');
    key.append(v);
  }
  return key;
}

void AppendLabels(std::string* out, const Labels& labels) {
  out->append("\"labels\":{");
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out->push_back(',');
    first = false;
    AppendJsonEscaped(out, k);
    out->push_back(':');
    AppendJsonEscaped(out, v);
  }
  out->push_back('}');
}

}  // namespace

uint32_t Histogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) return static_cast<uint32_t>(value);
  uint32_t msb = 63u - static_cast<uint32_t>(std::countl_zero(value));
  uint32_t octave = msb - kLinearBits + 1;
  uint32_t sub =
      static_cast<uint32_t>(value >> (msb - kLinearBits)) & (kSubBuckets - 1);
  return octave * kSubBuckets + sub;
}

uint64_t Histogram::BucketLowerBound(uint32_t index) {
  uint32_t octave = index / kSubBuckets;
  uint64_t sub = index % kSubBuckets;
  if (octave == 0) return sub;
  return (static_cast<uint64_t>(kSubBuckets) + sub) << (octave - 1);
}

void Histogram::Record(uint64_t value) {
  uint32_t index = BucketIndex(value);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
  ++count_;
  sum_ += value;
  if (count_ == 1) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
}

uint64_t Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0) return min();
  if (q >= 1) return max();
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (uint32_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      uint32_t octave = i / kSubBuckets;
      uint64_t width = octave == 0 ? 1 : (1ull << (octave - 1));
      uint64_t mid = BucketLowerBound(i) + (width >> 1);
      return std::clamp(mid, min(), max());
    }
  }
  return max();
}

std::vector<std::pair<uint64_t, uint64_t>> Histogram::NonEmptyBuckets() const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (uint32_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) out.emplace_back(BucketLowerBound(i), buckets_[i]);
  }
  return out;
}

void Summary::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  sum_ += x;
  ++count_;
}

Registry::Entry* Registry::FindOrCreate(std::string_view name,
                                        const Labels& labels, Kind kind) {
  std::string key = InstrumentKey(name, labels);
  auto it = index_.find(key);
  if (it != index_.end()) {
    SPONGE_CHECK(it->second->kind == kind);
    return it->second;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->labels = labels;
  entry->kind = kind;
  switch (kind) {
    case Kind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
    case Kind::kSummary:
      entry->summary = std::make_unique<Summary>();
      break;
  }
  Entry* raw = entry.get();
  entries_.push_back(std::move(entry));
  index_.emplace(std::move(key), raw);
  return raw;
}

Counter* Registry::counter(std::string_view name, const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kCounter)->counter.get();
}

Gauge* Registry::gauge(std::string_view name, const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kGauge)->gauge.get();
}

Histogram* Registry::histogram(std::string_view name, const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kHistogram)->histogram.get();
}

Summary* Registry::summary(std::string_view name, const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kSummary)->summary.get();
}

size_t Registry::CardinalityOf(std::string_view name) const {
  size_t n = 0;
  for (const auto& entry : entries_) {
    if (entry->name == name) ++n;
  }
  return n;
}

void Registry::ResetValues() {
  for (auto& entry : entries_) {
    switch (entry->kind) {
      case Kind::kCounter:
        entry->counter->value_ = 0;
        break;
      case Kind::kGauge:
        entry->gauge->value_ = 0;
        entry->gauge->max_ = 0;
        break;
      case Kind::kHistogram:
        *entry->histogram = Histogram();
        break;
      case Kind::kSummary:
        *entry->summary = Summary();
        break;
    }
  }
}

std::string Registry::ToJson() const {
  // Sort by (name, labels): the legacy and sharded schedules touch
  // instruments in different orders, and the snapshot must not depend on
  // which code path touched an instrument first.
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const auto& entry : entries_) sorted.push_back(entry.get());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Entry* a, const Entry* b) {
                     if (a->name != b->name) return a->name < b->name;
                     return a->labels < b->labels;
                   });
  std::string out;
  out.reserve(4096);
  auto append_section = [&](const char* section, Kind kind) {
    out.push_back('"');
    out.append(section);
    out.append("\":[");
    bool first = true;
    for (const Entry* entry : sorted) {
      if (entry->kind != kind) continue;
      if (!first) out.push_back(',');
      first = false;
      out.append("{\"name\":");
      AppendJsonEscaped(&out, entry->name);
      out.push_back(',');
      AppendLabels(&out, entry->labels);
      switch (kind) {
        case Kind::kCounter:
          out.append(",\"value\":");
          AppendJsonUint(&out, entry->counter->value());
          break;
        case Kind::kGauge:
          out.append(",\"value\":");
          AppendJsonInt(&out, entry->gauge->value());
          out.append(",\"max\":");
          AppendJsonInt(&out, entry->gauge->max());
          break;
        case Kind::kHistogram: {
          const Histogram& h = *entry->histogram;
          out.append(",\"count\":");
          AppendJsonUint(&out, h.count());
          out.append(",\"sum\":");
          AppendJsonUint(&out, h.sum());
          out.append(",\"min\":");
          AppendJsonUint(&out, h.min());
          out.append(",\"max\":");
          AppendJsonUint(&out, h.max());
          out.append(",\"p50\":");
          AppendJsonUint(&out, h.Quantile(0.50));
          out.append(",\"p90\":");
          AppendJsonUint(&out, h.Quantile(0.90));
          out.append(",\"p99\":");
          AppendJsonUint(&out, h.Quantile(0.99));
          out.append(",\"buckets\":[");
          bool first_bucket = true;
          for (const auto& [lower, count] : h.NonEmptyBuckets()) {
            if (!first_bucket) out.push_back(',');
            first_bucket = false;
            out.push_back('[');
            AppendJsonUint(&out, lower);
            out.push_back(',');
            AppendJsonUint(&out, count);
            out.push_back(']');
          }
          out.push_back(']');
          break;
        }
        case Kind::kSummary: {
          const Summary& s = *entry->summary;
          out.append(",\"count\":");
          AppendJsonUint(&out, s.count());
          out.append(",\"min\":");
          AppendJsonDouble(&out, s.min());
          out.append(",\"max\":");
          AppendJsonDouble(&out, s.max());
          out.append(",\"mean\":");
          AppendJsonDouble(&out, s.mean());
          out.append(",\"sum\":");
          AppendJsonDouble(&out, s.sum());
          break;
        }
      }
      out.push_back('}');
    }
    out.push_back(']');
  };
  out.push_back('{');
  append_section("counters", Kind::kCounter);
  out.push_back(',');
  append_section("gauges", Kind::kGauge);
  out.push_back(',');
  append_section("histograms", Kind::kHistogram);
  out.push_back(',');
  append_section("summaries", Kind::kSummary);
  out.append("}\n");
  return out;
}

Status Registry::WriteJsonFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Internal("cannot open " + path);
  std::string json = ToJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) return Internal("short write to " + path);
  return Status::OK();
}

Registry& Registry::Default() {
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace spongefiles::obs
