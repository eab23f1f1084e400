/// \file metrics.hpp
/// \brief Process-wide metrics registry: Counter / Gauge / Histogram.
///
/// The hot path is lock-free: every increment/observe is a relaxed
/// atomic RMW on a cell that was resolved once, at registration time,
/// behind the registry mutex. Call sites cache the returned pointer
/// (metric cells are never deallocated), so steady-state cost is one
/// relaxed `fetch_add` — no locks, no lookups.
///
/// Two escape hatches keep the telemetry honest about its own cost:
///  - `SetEnabled(false)` is a runtime kill switch (one extra relaxed
///    bool load per op) used by bench/E19 to measure overhead in-process.
///  - `Registry::ResetForTest()` zeroes every value so e2e tests can
///    assert exact counts against a process-wide registry.
///
/// Naming and label rules live in docs/observability.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mcf0 {
namespace obs {

namespace internal {
extern std::atomic<bool> g_runtime_enabled;
}  // namespace internal

/// Runtime kill switch (default on). Off turns every mutating op into
/// a single relaxed load + branch; values freeze where they were.
/// Bench-only — gauges that mirror live state (queue depth, active
/// sessions) go stale while disabled.
inline bool Enabled() {
  return internal::g_runtime_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool enabled);

/// Monotone event count. Increment is lock-free (relaxed fetch_add).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (queue depth, active sessions). Signed so a
/// transient decrement-before-increment interleaving cannot wrap, but
/// every mcf0 gauge is non-negative at rest.
class Gauge {
 public:
  void Add(int64_t delta) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  void Decrement() { Add(-1); }
  void Set(int64_t value) {
    if (!Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed log2 buckets. Bucket 0 holds v == 0; bucket i (1..26) holds
/// 2^(i-1) <= v < 2^i; the last bucket holds v >= 2^26. With values in
/// microseconds that spans sub-µs up to ~67 s, which covers every
/// latency this process produces. Observe is lock-free; a snapshot
/// taken while writers run sees each cell atomically (count/sum may be
/// mutually torn by in-flight observations — documented, benign).
class Histogram {
 public:
  static constexpr int kNumBuckets = 28;

  static int BucketIndex(uint64_t value) {
    if (value == 0) return 0;
    int width = 0;
    while (value != 0) {
      value >>= 1;
      ++width;
    }
    return width < kNumBuckets ? width : kNumBuckets - 1;
  }

  void Observe(uint64_t value) {
    if (!Enabled()) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t BucketCount(int index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }
  uint64_t Count() const;
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  void ResetForTest();

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

/// RAII microsecond timer into a Histogram. The clock reads are the
/// expensive part, so the runtime switch is checked at construction
/// and both reads are skipped when telemetry is off.
class ScopedLatencyUs {
 public:
  explicit ScopedLatencyUs(Histogram* histogram);
  ~ScopedLatencyUs();

  ScopedLatencyUs(const ScopedLatencyUs&) = delete;
  ScopedLatencyUs& operator=(const ScopedLatencyUs&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_us_ = 0;
};

/// One label key/value pair, rendered into the metric key as {key="value"}.
struct Label {
  std::string key;
  std::string value;
};
using Labels = std::vector<Label>;

/// A point-in-time copy of one metric's value(s).
struct MetricSnapshot {
  enum class Type { kCounter, kGauge, kHistogram };
  std::string key;  ///< name + rendered labels; unique per registry.
  Type type = Type::kCounter;
  uint64_t counter_value = 0;
  int64_t gauge_value = 0;
  uint64_t hist_sum = 0;
  uint64_t hist_count = 0;
  std::array<uint64_t, Histogram::kNumBuckets> hist_buckets{};
};

/// Named registration + exposition. Get* is find-or-create under a
/// mutex and returns a stable pointer; call it once per site and keep
/// the pointer. Requesting an existing key with a different metric
/// type aborts — that is a programming error, not an input error.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide instance every mcf0 layer registers into.
  static Registry& Global();

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  /// Atomic-per-cell copy of every registered metric, sorted by key.
  std::vector<MetricSnapshot> Snapshot() const;

  /// One-line JSON object: {"key":value,...} with histograms as
  /// {"count":..,"sum":..,"buckets":[..]}. Keys sorted.
  std::string SnapshotJson() const;

  /// Flat (name, value) pairs sorted by name — the kStatsReport wire
  /// payload. Counters and gauges report their value (gauges clamped
  /// at zero); histograms contribute <key>_count and <key>_sum.
  std::vector<std::pair<std::string, uint64_t>> FlatEntries() const;

  /// Zeroes every value (registrations survive). Test-only: this
  /// deliberately breaks monotonicity contracts such as
  /// TotalSamplerRowDraws(), so production code must never call it.
  void ResetForTest();

 private:
  struct Entry {
    MetricSnapshot::Type type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, const Labels& labels,
                      MetricSnapshot::Type type);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // keyed by name+labels
};

}  // namespace obs
}  // namespace mcf0
