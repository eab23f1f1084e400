// Tests for the obs telemetry subsystem (src/obs/): registry
// registration and exposition, and lock-free counter/gauge/histogram
// semantics under concurrency (the TSan job runs this binary).
// Exposition goldens pin the exact JSON rendering docs/observability.md
// documents.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.hpp"

namespace mcf0 {
namespace obs {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), uint64_t{kThreads} * kPerThread);
}

TEST(CounterTest, IncrementDeltaAndReset) {
  Counter counter;
  counter.Increment(41);
  counter.Increment();
  EXPECT_EQ(counter.Value(), 42u);
  counter.ResetForTest();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, RuntimeKillSwitchFreezesValues) {
  Counter counter;
  counter.Increment();
  SetEnabled(false);
  counter.Increment(100);
  SetEnabled(true);
  counter.Increment();
  EXPECT_EQ(counter.Value(), 2u);
}

TEST(GaugeTest, AddSetAndNegativeTransients) {
  Gauge gauge;
  gauge.Increment();
  gauge.Increment();
  gauge.Decrement();
  EXPECT_EQ(gauge.Value(), 1);
  // A decrement racing ahead of its increment must not wrap: gauges
  // are signed.
  gauge.Add(-5);
  EXPECT_EQ(gauge.Value(), -4);
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly v == 0; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex((1u << 25)), 26);
  EXPECT_EQ(Histogram::BucketIndex((1u << 26) - 1), 26);
  // Everything from 2^26 up lands in the overflow bucket.
  EXPECT_EQ(Histogram::BucketIndex(1u << 26), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(~0ull), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, ObserveCountsAndSums) {
  Histogram histogram;
  histogram.Observe(0);
  histogram.Observe(1);
  histogram.Observe(3);
  histogram.Observe(3);
  histogram.Observe(1000);
  EXPECT_EQ(histogram.Count(), 5u);
  EXPECT_EQ(histogram.Sum(), 1007u);
  EXPECT_EQ(histogram.BucketCount(0), 1u);
  EXPECT_EQ(histogram.BucketCount(1), 1u);
  EXPECT_EQ(histogram.BucketCount(2), 2u);
  EXPECT_EQ(histogram.BucketCount(Histogram::BucketIndex(1000)), 1u);
}

TEST(RegistryTest, FindOrCreateReturnsStablePointers) {
  Registry registry;
  Counter* a = registry.GetCounter("events_total");
  Counter* b = registry.GetCounter("events_total");
  EXPECT_EQ(a, b);
  // Label order does not matter: one cell per canonical key.
  Gauge* g1 = registry.GetGauge("depth", {{"a", "1"}, {"b", "2"}});
  Gauge* g2 = registry.GetGauge("depth", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(g1, g2);
  // Different label values are different cells.
  Gauge* g3 = registry.GetGauge("depth", {{"a", "1"}, {"b", "3"}});
  EXPECT_NE(g1, g3);
}

TEST(RegistryTest, SnapshotJsonGolden) {
  Registry registry;
  registry.GetCounter("test_events_total")->Increment(3);
  registry.GetGauge("test_depth", {{"shard", "0"}})->Set(2);
  EXPECT_EQ(registry.SnapshotJson(),
            "{\"test_depth{shard=\\\"0\\\"}\":2,\"test_events_total\":3}");
}

TEST(RegistryTest, SnapshotJsonHistogramGolden) {
  Registry registry;
  registry.GetHistogram("lat_us")->Observe(5);
  std::string expected = "{\"lat_us\":{\"count\":1,\"sum\":5,\"buckets\":[";
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    if (i > 0) expected += ",";
    expected += (i == Histogram::BucketIndex(5)) ? "1" : "0";
  }
  expected += "]}}";
  EXPECT_EQ(registry.SnapshotJson(), expected);
}

TEST(RegistryTest, FlatEntriesClampsGaugesAndFlattensHistograms) {
  Registry registry;
  registry.GetCounter("c_total")->Increment(7);
  registry.GetGauge("g_now")->Set(-3);
  registry.GetHistogram("h_us")->Observe(9);
  const auto entries = registry.FlatEntries();
  ASSERT_EQ(entries.size(), 4u);
  // Strictly sorted by name — the kStatsReport wire contract.
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].first, entries[i].first);
  }
  auto find = [&entries](const std::string& name) -> uint64_t {
    for (const auto& [key, value] : entries) {
      if (key == name) return value;
    }
    ADD_FAILURE() << "missing entry " << name;
    return 0;
  };
  EXPECT_EQ(find("c_total"), 7u);
  EXPECT_EQ(find("g_now"), 0u);  // negative gauge clamps to zero
  EXPECT_EQ(find("h_us_count"), 1u);
  EXPECT_EQ(find("h_us_sum"), 9u);
}

TEST(RegistryTest, ResetForTestZeroesValuesKeepsRegistrations) {
  Registry registry;
  Counter* counter = registry.GetCounter("c_total");
  counter->Increment(5);
  registry.ResetForTest();
  EXPECT_EQ(counter->Value(), 0u);
  // Same cell after the reset.
  EXPECT_EQ(registry.GetCounter("c_total"), counter);
}

// Writers hammer cells while the main thread snapshots every way the
// registry can render — the TSan job turns any torn access into a
// failure; single-threaded runs still check the totals afterwards.
TEST(RegistryTest, SnapshotWhileWriting) {
  Registry registry;
  Counter* counter = registry.GetCounter("c_total");
  Gauge* gauge = registry.GetGauge("g_now");
  Histogram* histogram = registry.GetHistogram("h_us");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Add(i % 2 == 0 ? 1 : -1);
        histogram->Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    (void)registry.Snapshot();
    (void)registry.SnapshotJson();
    (void)registry.FlatEntries();
    // Registration is also safe while writers run.
    (void)registry.GetCounter("late_total", {{"round", "0"}});
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(gauge->Value(), 0);
  EXPECT_EQ(histogram->Count(), uint64_t{kThreads} * kPerThread);
}

TEST(ScopedLatencyTest, ObservesOnDestruction) {
  Histogram histogram;
  {
    ScopedLatencyUs timer(&histogram);
  }
  EXPECT_EQ(histogram.Count(), 1u);
}

}  // namespace
}  // namespace obs
}  // namespace mcf0
