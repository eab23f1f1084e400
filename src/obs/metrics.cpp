#include "obs/metrics.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mcf0 {
namespace obs {

namespace internal {
std::atomic<bool> g_runtime_enabled{true};
}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_runtime_enabled.store(enabled, std::memory_order_relaxed);
}

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 200) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) return false;
  }
  const char c0 = name[0];
  return !(c0 >= '0' && c0 <= '9');
}

bool ValidLabelPart(const std::string& text) {
  if (text.empty() || text.size() > 200) return false;
  for (char c : text) {
    // Printable ASCII minus the quote/backslash we would have to escape.
    if (c < 0x20 || c > 0x7E || c == '"' || c == '\\') return false;
  }
  return true;
}

[[noreturn]] void Misuse(const std::string& what) {
  std::fprintf(stderr, "mcf0 obs: %s\n", what.c_str());
  std::abort();
}

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return std::string();
  // Canonical order so {a=..,b=..} and {b=..,a=..} are one metric.
  Labels sorted = labels;
  for (size_t i = 1; i < sorted.size(); ++i) {
    for (size_t j = i; j > 0 && sorted[j].key < sorted[j - 1].key; --j) {
      std::swap(sorted[j], sorted[j - 1]);
    }
  }
  std::string out = "{";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (!ValidLabelPart(sorted[i].key) || !ValidLabelPart(sorted[i].value)) {
      Misuse("invalid label pair");
    }
    if (i > 0) out += ",";
    out += sorted[i].key;
    out += "=\"";
    out += sorted[i].value;
    out += "\"";
  }
  out += "}";
  return out;
}

void AppendU64(std::string* out, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  *out += buf;
}

void AppendI64(std::string* out, int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  *out += buf;
}

/// JSON string escaping for metric keys. Label parts already exclude
/// `"` and `\` (ValidLabelPart), so the only characters to escape are
/// the quotes RenderLabels itself puts around label values.
void AppendJsonKey(std::string* out, const std::string& key) {
  *out += '"';
  for (const char c : key) {
    if (c == '"') *out += '\\';
    *out += c;
  }
  *out += '"';
}

}  // namespace

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::ResetForTest() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

ScopedLatencyUs::ScopedLatencyUs(Histogram* histogram)
    : histogram_(histogram) {
  if (histogram_ == nullptr || !Enabled()) {
    histogram_ = nullptr;
    return;
  }
  start_us_ = NowUs();
}

ScopedLatencyUs::~ScopedLatencyUs() {
  if (histogram_ == nullptr) return;
  const uint64_t now = NowUs();
  histogram_->Observe(now >= start_us_ ? now - start_us_ : 0);
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

Registry::Entry* Registry::FindOrCreate(const std::string& name,
                                        const Labels& labels,
                                        MetricSnapshot::Type type) {
  if (!ValidMetricName(name)) Misuse("invalid metric name: " + name);
  const std::string rendered = RenderLabels(labels);
  const std::string key = name + rendered;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.type != type) {
      Misuse("metric re-registered with a different type: " + key);
    }
    return &it->second;
  }
  Entry entry;
  entry.type = type;
  switch (type) {
    case MetricSnapshot::Type::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricSnapshot::Type::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricSnapshot::Type::kHistogram:
      entry.histogram = std::make_unique<Histogram>();
      break;
  }
  return &entries_.emplace(key, std::move(entry)).first->second;
}

Counter* Registry::GetCounter(const std::string& name, const Labels& labels) {
  return FindOrCreate(name, labels, MetricSnapshot::Type::kCounter)
      ->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const Labels& labels) {
  return FindOrCreate(name, labels, MetricSnapshot::Type::kGauge)->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const Labels& labels) {
  return FindOrCreate(name, labels, MetricSnapshot::Type::kHistogram)
      ->histogram.get();
}

std::vector<MetricSnapshot> Registry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSnapshot snap;
    snap.key = key;
    snap.type = entry.type;
    switch (entry.type) {
      case MetricSnapshot::Type::kCounter:
        snap.counter_value = entry.counter->Value();
        break;
      case MetricSnapshot::Type::kGauge:
        snap.gauge_value = entry.gauge->Value();
        break;
      case MetricSnapshot::Type::kHistogram: {
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          snap.hist_buckets[i] = entry.histogram->BucketCount(i);
          snap.hist_count += snap.hist_buckets[i];
        }
        snap.hist_sum = entry.histogram->Sum();
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::string Registry::SnapshotJson() const {
  const std::vector<MetricSnapshot> snaps = Snapshot();
  std::string out = "{";
  bool first = true;
  for (const MetricSnapshot& snap : snaps) {
    if (!first) out += ",";
    first = false;
    AppendJsonKey(&out, snap.key);
    out += ":";
    switch (snap.type) {
      case MetricSnapshot::Type::kCounter:
        AppendU64(&out, snap.counter_value);
        break;
      case MetricSnapshot::Type::kGauge:
        AppendI64(&out, snap.gauge_value);
        break;
      case MetricSnapshot::Type::kHistogram: {
        out += "{\"count\":";
        AppendU64(&out, snap.hist_count);
        out += ",\"sum\":";
        AppendU64(&out, snap.hist_sum);
        out += ",\"buckets\":[";
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          if (i > 0) out += ",";
          AppendU64(&out, snap.hist_buckets[i]);
        }
        out += "]}";
        break;
      }
    }
  }
  out += "}";
  return out;
}

std::vector<std::pair<std::string, uint64_t>> Registry::FlatEntries() const {
  const std::vector<MetricSnapshot> snaps = Snapshot();
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(snaps.size() + 8);
  for (const MetricSnapshot& snap : snaps) {
    switch (snap.type) {
      case MetricSnapshot::Type::kCounter:
        out.emplace_back(snap.key, snap.counter_value);
        break;
      case MetricSnapshot::Type::kGauge:
        out.emplace_back(snap.key,
                         snap.gauge_value > 0
                             ? static_cast<uint64_t>(snap.gauge_value)
                             : 0);
        break;
      case MetricSnapshot::Type::kHistogram:
        out.emplace_back(snap.key + "_count", snap.hist_count);
        out.emplace_back(snap.key + "_sum", snap.hist_sum);
        break;
    }
  }
  // Snapshot() is key-sorted but the histogram expansion appends two
  // names that may interleave with other keys; restore strict order.
  for (size_t i = 1; i < out.size(); ++i) {
    for (size_t j = i; j > 0 && out[j].first < out[j - 1].first; --j) {
      std::swap(out[j], out[j - 1]);
    }
  }
  return out;
}

void Registry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    (void)key;
    switch (entry.type) {
      case MetricSnapshot::Type::kCounter:
        entry.counter->ResetForTest();
        break;
      case MetricSnapshot::Type::kGauge:
        entry.gauge->ResetForTest();
        break;
      case MetricSnapshot::Type::kHistogram:
        entry.histogram->ResetForTest();
        break;
    }
  }
}

}  // namespace obs
}  // namespace mcf0
