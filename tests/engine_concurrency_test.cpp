// Concurrency tests for the generic sharded engine (src/engine): multiple
// producer threads feeding one engine, queries issued while ingestion is
// live, and the cache-invalidation rule of the merge-on-query path.
//
// These tests are the ThreadSanitizer CI job's main target: every
// assertion doubles as a data-race probe, so keep real thread overlap in
// here (producers racing each other and racing queries) rather than
// serializing for convenience. Equality assertions compare
// SketchCodec::Encode() blobs: the encoding is canonical, so byte
// equality is sketch-state equality — and because every merge is an exact
// set union, the merged sketch must be *byte-identical* to a sequential
// single-sketch pass no matter how items were split across producers and
// shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "engine/sharded_engine.hpp"
#include "engine/sketch_codec.hpp"
#include "formula/formula.hpp"
#include "setstream/structured_f0.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {
namespace {

constexpr F0Algorithm kAllAlgorithms[] = {
    F0Algorithm::kBucketing, F0Algorithm::kMinimum, F0Algorithm::kEstimation};

F0Params SmallParams(F0Algorithm algorithm, uint64_t seed = 7) {
  F0Params params;
  params.n = 24;
  params.eps = 0.8;
  params.delta = 0.2;
  params.algorithm = algorithm;
  params.seed = seed;
  params.thresh_override = 20;
  params.rows_override = 5;
  params.s_override = 4;
  return params;
}

std::vector<uint64_t> RandomStream(size_t length, uint64_t support,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> xs(length);
  for (auto& x : xs) x = rng.NextBelow(support);
  return xs;
}

// Deterministic width-3..6 terms over n variables (same shape as the
// structured sketch tests).
std::vector<Term> MakeTerms(int n, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Term> terms;
  while (static_cast<int>(terms.size()) < count) {
    std::vector<Lit> lits;
    const int width = 3 + static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < width; ++i) {
      lits.emplace_back(static_cast<int>(rng.NextBelow(n)),
                        rng.NextBelow(2) == 1);
    }
    auto term = Term::Make(std::move(lits));
    if (term.has_value()) terms.push_back(std::move(*term));
  }
  return terms;
}

// Splits [0, size) into `parts` contiguous slices; producer p ingests
// slice p from its own thread.
std::pair<size_t, size_t> Slice(size_t size, int parts, int p) {
  const size_t begin = size * p / parts;
  const size_t end = size * (p + 1) / parts;
  return {begin, end};
}

// ---- multi-producer determinism -------------------------------------------

TEST(MultiProducerEngineTest, FourProducersFourShardsMatchSequentialExactly) {
  // The acceptance stress: P producer threads race batches into N shards;
  // the merged sketch must be byte-identical to a sequential pass over
  // the concatenated stream — the engine's merge is an exact union, so
  // neither the producer split nor the shard split may leave a trace.
  constexpr int kProducers = 4;
  constexpr int kShards = 4;
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    const F0Params params = SmallParams(algorithm);
    const std::vector<uint64_t> xs = RandomStream(8000, 900, 71);

    F0Estimator sequential(params);
    for (const uint64_t x : xs) sequential.Add(x);

    ShardedF0Engine engine(params, kShards);
    {
      std::vector<std::thread> threads;
      for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&engine, &xs, p] {
          auto producer = engine.MakeProducer();
          const auto [begin, end] = Slice(xs.size(), kProducers, p);
          // Mix the two ingestion paths: some batches, some singles.
          const size_t mid = begin + (end - begin) / 2;
          producer.AddBatch(
              std::span<const uint64_t>(xs.data() + begin, mid - begin));
          for (size_t i = mid; i < end; ++i) producer.Add(xs[i]);
          producer.Flush();
        });
      }
      for (auto& thread : threads) thread.join();
    }
    EXPECT_EQ(engine.elements_ingested(), xs.size());
    F0Estimator merged = engine.MergedSketch();
    EXPECT_EQ(SketchCodec::Encode(merged), SketchCodec::Encode(sequential));
    EXPECT_DOUBLE_EQ(engine.Estimate(), sequential.Estimate());
  }
}

TEST(MultiProducerEngineTest, FlushAndEstimateAreSafeMidStream) {
  // One thread queries (Flush / Estimate / SnapshotEstimate) while the
  // producers are still streaming. The queries' values are moments of a
  // moving stream — only the final, quiescent estimate is pinned — but
  // every intermediate call must be well-defined (and race-free under
  // the TSan job).
  const F0Params params = SmallParams(F0Algorithm::kMinimum);
  const std::vector<uint64_t> xs = RandomStream(20000, 1500, 72);

  F0Estimator sequential(params);
  for (const uint64_t x : xs) sequential.Add(x);

  ShardedF0Engine engine(params, 3);
  std::atomic<bool> done{false};
  std::thread querier([&engine, &done] {
    while (!done.load(std::memory_order_acquire)) {
      engine.Flush();
      const double drained = engine.Estimate();
      const double snapshot = engine.SnapshotEstimate();
      EXPECT_GE(drained, 0.0);
      EXPECT_GE(snapshot, 0.0);
    }
  });
  {
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&engine, &xs, p] {
        auto producer = engine.MakeProducer();
        const auto [begin, end] = Slice(xs.size(), 3, p);
        for (size_t i = begin; i < end; ++i) producer.Add(xs[i]);
        producer.Flush();
      });
    }
    for (auto& thread : producers) thread.join();
  }
  done.store(true, std::memory_order_release);
  querier.join();
  EXPECT_EQ(SketchCodec::Encode(engine.MergedSketch()),
            SketchCodec::Encode(sequential));
}

TEST(MultiProducerEngineTest, ProducerFlushWaitsOnlyForItsOwnBatches) {
  // A producer that flushed observes all of its own items in the next
  // snapshot, whether or not the other producer ever flushes its buffer.
  const F0Params params = SmallParams(F0Algorithm::kBucketing);
  ShardedF0Engine engine(params, 2);

  auto loud = engine.MakeProducer();
  auto quiet = engine.MakeProducer();
  const std::vector<uint64_t> mine = RandomStream(3000, 400, 73);
  for (const uint64_t x : mine) loud.Add(x);
  quiet.Add(1);  // stays in quiet's private buffer: not yet in the stream
  loud.Flush();

  F0Estimator sequential(params);
  for (const uint64_t x : mine) sequential.Add(x);
  EXPECT_EQ(SketchCodec::Encode(engine.SnapshotSketch()),
            SketchCodec::Encode(sequential));
  // Flushing the quiet producer folds its buffered element in.
  quiet.Flush();
  sequential.Add(1);
  EXPECT_EQ(SketchCodec::Encode(engine.SnapshotSketch()),
            SketchCodec::Encode(sequential));
}

// ---- merge-on-query cache -------------------------------------------------

TEST(ShardedEngineCacheTest, RepeatedQueriesFoldTheShardsOnce) {
  // The invalidation rule: the cached union stays valid until the next
  // batch is enqueued. Back-to-back queries with no ingestion in between
  // must not re-merge.
  const F0Params params = SmallParams(F0Algorithm::kMinimum);
  ShardedF0Engine engine(params, 4);
  // Support 15 < thresh 20 keeps every query in the exact regime, so the
  // post-invalidation estimate is pinned to +1.
  engine.AddBatch(RandomStream(2000, 15, 74));

  const double first = engine.Estimate();
  EXPECT_DOUBLE_EQ(first, 15.0);
  ASSERT_EQ(engine.cache_rebuilds(), 1u);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(engine.Estimate(), first);
  EXPECT_EQ(engine.cache_rebuilds(), 1u);  // cache hit: no re-merge

  // MergedSketch() reads the same cache (one extra fold for the returned
  // copy, not a rebuild).
  F0Estimator merged = engine.MergedSketch();
  EXPECT_EQ(engine.cache_rebuilds(), 1u);
  EXPECT_DOUBLE_EQ(merged.Estimate(), first);

  // Ingestion invalidates: the next query re-merges and sees the element.
  // Only one shard absorbed anything new, so the refresh is partial — it
  // folds that one replica, not all four.
  engine.Add(1u << 22);
  EXPECT_DOUBLE_EQ(engine.Estimate(), first + 1.0);  // exact regime
  EXPECT_EQ(engine.cache_rebuilds(), 2u);
  EXPECT_EQ(engine.cache_partial_rebuilds(), 1u);
}

TEST(ShardedEngineCacheTest, SingleShardUpdateTriggersPartialRebuild) {
  // The O(changed) acceptance pin: once the cache is warm, an update that
  // lands on one shard refolds exactly that shard's replica — observable
  // as a rebuild that is also counted partial.
  const F0Params params = SmallParams(F0Algorithm::kMinimum);
  ShardedF0Engine engine(params, 4);
  const std::vector<uint64_t> xs = RandomStream(2048, 15, 78);
  // Eight single-batch dispatches, spread over whichever workers are free.
  for (int i = 0; i < 8; ++i) engine.AddBatch(xs);

  EXPECT_DOUBLE_EQ(engine.Estimate(), 15.0);
  ASSERT_EQ(engine.cache_rebuilds(), 1u);
  EXPECT_EQ(engine.cache_partial_rebuilds(), 0u);  // initial build: not partial

  engine.Add(1u << 22);  // one batch, one shard
  EXPECT_DOUBLE_EQ(engine.Estimate(), 16.0);
  EXPECT_EQ(engine.cache_rebuilds(), 2u);
  EXPECT_EQ(engine.cache_partial_rebuilds(), 1u);

  // And back to pure hits.
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(engine.Estimate(), 16.0);
  EXPECT_EQ(engine.cache_rebuilds(), 2u);
}

// ---- cache validity under in-flight batches -------------------------------

// A test-only sketch whose absorbs block while a shared gate is closed,
// so the test can hold batches in flight (queued, or popped and stuck
// mid-absorb — either way not yet completed) while it polls the query
// path. Instantiates the generic engine through the same ADL hooks the
// real sketches use; ADL finds these in the anonymous namespace.
struct AbsorbGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = true;
  uint64_t gated_from = 0;  // smaller items pass even while closed
  int parked = 0;           // absorbs currently blocked at the gate

  void Set(bool value) {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = value;
    }
    cv.notify_all();
  }
  void Await(uint64_t x) {
    std::unique_lock<std::mutex> lock(mu);
    if (x < gated_from) return;
    ++parked;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
    --parked;
  }
  void AwaitParked() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return parked > 0; });
  }
};

struct GatedSketch {
  AbsorbGate* gate = nullptr;
  std::vector<uint64_t> seen;  // may hold duplicates: refolds repeat values

  double Estimate() const {
    return static_cast<double>(
        std::set<uint64_t>(seen.begin(), seen.end()).size());
  }
};

void AbsorbItem(GatedSketch& sketch, uint64_t x) {
  sketch.gate->Await(x);
  sketch.seen.push_back(x);
}

Status Merge(GatedSketch& into, const GatedSketch& from) {
  into.seen.insert(into.seen.end(), from.seen.begin(), from.seen.end());
  return Status::Ok();
}

TEST(ShardedEngineCacheTest, QueuedBatchesDoNotThrashTheCache) {
  // The PR 8 regression pin. The old validity rule compared the cache
  // stamp (absorbed counts) against TotalEnqueued(), so any in-flight
  // batch forced a full N-shard refold on every poll — and the snapshot
  // path bypassed the cache entirely. Pin the fix: with batches in
  // flight but absorbs quiescent, repeated SnapshotEstimate() polls
  // perform zero rebuilds.
  AbsorbGate gate;
  ShardedEngineOptions options;
  options.batch_size = 4;
  ShardedEngine<GatedSketch, uint64_t> engine(
      [&gate] {
        GatedSketch sketch;
        sketch.gate = &gate;
        return sketch;
      },
      2, options);
  auto producer = engine.MakeProducer();
  for (uint64_t x = 0; x < 8; ++x) producer.Add(x);  // two full batches
  producer.Flush();

  EXPECT_DOUBLE_EQ(engine.SnapshotEstimate(), 8.0);
  ASSERT_EQ(engine.cache_rebuilds(), 1u);

  // Close the gate and dispatch four more batches: workers pick them up
  // and block inside AbsorbItem (or leave them queued), so absorbs are
  // quiescent while queued_batches() stays nonzero.
  gate.Set(false);
  for (uint64_t x = 8; x < 24; ++x) producer.Add(x);
  ASSERT_GT(engine.queued_batches(), 0u);

  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(engine.SnapshotEstimate(), 8.0);
  }
  EXPECT_EQ(engine.cache_rebuilds(), 1u);  // zero rebuilds: pure cache hits
  EXPECT_GT(engine.queued_batches(), 0u);

  // Reopen: the queued batches land, and exactly one refresh folds them.
  gate.Set(true);
  producer.Flush();
  EXPECT_DOUBLE_EQ(engine.SnapshotEstimate(), 24.0);
  EXPECT_EQ(engine.cache_rebuilds(), 2u);
}

// ---- flush exactness under in-flight batches ------------------------------

TEST(MultiProducerEngineTest, ProducerFlushIgnoresLaterInFlightBatch) {
  // Tickets come from one engine-wide sequence: a producer's Flush()
  // waits for batches ticketed up to its own last one, never for a later
  // batch of another producer — not even one stuck mid-absorb.
  AbsorbGate gate;
  gate.gated_from = 2;  // only b's item parks at the gate
  ShardedEngine<GatedSketch, uint64_t> engine(
      [&gate] {
        GatedSketch sketch;
        sketch.gate = &gate;
        return sketch;
      },
      2);
  auto a = engine.MakeProducer();
  auto b = engine.MakeProducer();
  gate.Set(false);
  const uint64_t mine = 1;
  const uint64_t later = 2;
  ASSERT_TRUE(a.AddBatch({&mine, 1}).ok());
  ASSERT_TRUE(b.AddBatch({&later, 1}).ok());
  gate.AwaitParked();  // b's batch has left the queue and is absorbing

  auto flushed = std::async(std::launch::async, [&a] { a.Flush(); });
  const bool returned = flushed.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  gate.Set(true);  // release b either way, so a failure cannot hang
  flushed.get();
  EXPECT_TRUE(returned) << "a.Flush() waited on b's later batch";

  b.Flush();
  EXPECT_DOUBLE_EQ(engine.SnapshotEstimate(), 2.0);
}

// ---- skewed replicas on the shared queue ----------------------------------

// An F0Estimator wrapper whose first-built replica absorbs slowly — the
// deterministic skewed-replica scenario. The slowness lives in the test
// type, not the engine, so the shared queue is exercised against the
// unchanged union guarantee. The factory is called once per shard in
// construction order (then once per merge target), so tagging the first
// call slows exactly shard 0. `slow_items` counts what that replica
// absorbed; Merge keeps the max, so cache refolds leave it exact.
struct SlowShardSketch {
  F0Estimator inner;
  bool slow = false;
  uint64_t slow_items = 0;
};

void AbsorbItem(SlowShardSketch& sketch, uint64_t x) {
  if (sketch.slow) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    ++sketch.slow_items;
  }
  sketch.inner.Add(x);
}

Status Merge(SlowShardSketch& into, const SlowShardSketch& from) {
  into.slow_items = std::max(into.slow_items, from.slow_items);
  return Merge(into.inner, from.inner);
}

ShardedEngine<SlowShardSketch, uint64_t>::ReplicaFactory SlowShardFactory(
    const F0Params& params, std::shared_ptr<std::atomic<int>> built) {
  return [params, built] {
    SlowShardSketch sketch{F0Estimator(params)};
    sketch.slow = built->fetch_add(1) == 0;
    return sketch;
  };
}

// Four producers stream `xs` in batches of 16 into four shards, the first
// of them slow; returns the merged sketch.
SlowShardSketch IngestWithSlowShard(const F0Params& params,
                                    const std::vector<uint64_t>& xs) {
  auto built = std::make_shared<std::atomic<int>>(0);
  ShardedEngineOptions options;
  options.batch_size = 16;
  ShardedEngine<SlowShardSketch, uint64_t> engine(
      SlowShardFactory(params, built), 4, options);
  std::vector<std::thread> threads;
  for (int p = 0; p < 4; ++p) {
    threads.emplace_back([&engine, &xs, p] {
      auto producer = engine.MakeProducer();
      const auto [begin, end] = Slice(xs.size(), 4, p);
      for (size_t i = begin; i < end; ++i) producer.Add(xs[i]);
      producer.Flush();
    });
  }
  for (auto& thread : threads) thread.join();
  return engine.MergedSketch();
}

TEST(SkewedReplicaTest, SkewedShardStaysByteIdentical) {
  // Whichever worker absorbs a batch, the merged sketch must be
  // byte-identical to a sequential pass: any split of the stream merges
  // to the same union.
  const F0Params params = SmallParams(F0Algorithm::kMinimum);
  const std::vector<uint64_t> xs = RandomStream(6400, 900, 83);

  F0Estimator sequential(params);
  for (const uint64_t x : xs) sequential.Add(x);

  const SlowShardSketch merged = IngestWithSlowShard(params, xs);
  EXPECT_EQ(SketchCodec::Encode(merged.inner), SketchCodec::Encode(sequential));
}

TEST(SkewedReplicaTest, SlowReplicaTakesLessThanItsShare) {
  // Fixed placement would hand the slow replica a quarter of the stream;
  // on the shared queue the fast workers take the batches it is too slow
  // to reach.
  const F0Params params = SmallParams(F0Algorithm::kMinimum);
  const std::vector<uint64_t> xs = RandomStream(6400, 900, 83);
  const SlowShardSketch merged = IngestWithSlowShard(params, xs);
  EXPECT_LT(merged.slow_items, xs.size() / 4);
}

TEST(SkewedReplicaTest, FlushCoversExactlyOwnBatches) {
  // Per-producer Flush isolation with a slow replica in play: a flushed
  // producer observes all of its own items, whichever workers absorbed
  // them — and none of another producer's unflushed buffer.
  const F0Params params = SmallParams(F0Algorithm::kBucketing);
  auto built = std::make_shared<std::atomic<int>>(0);
  ShardedEngineOptions options;
  options.batch_size = 16;
  ShardedEngine<SlowShardSketch, uint64_t> engine(
      SlowShardFactory(params, built), 3, options);

  auto loud = engine.MakeProducer();
  auto quiet = engine.MakeProducer();
  const std::vector<uint64_t> mine = RandomStream(1600, 400, 84);
  for (const uint64_t x : mine) loud.Add(x);
  quiet.Add(1);  // stays in quiet's private buffer: not yet in the stream
  loud.Flush();  // must cover batches the slow replica is still absorbing

  F0Estimator sequential(params);
  for (const uint64_t x : mine) sequential.Add(x);
  EXPECT_EQ(SketchCodec::Encode(engine.SnapshotSketch().inner),
            SketchCodec::Encode(sequential));

  quiet.Flush();
  sequential.Add(1);
  EXPECT_EQ(SketchCodec::Encode(engine.SnapshotSketch().inner),
            SketchCodec::Encode(sequential));
}

TEST(SkewedReplicaTest, BatchedAbsorbsStayByteIdenticalAndFlushExact) {
  // The worker absorb site hands whole queue batches to AbsorbBatch — for
  // F0Estimator that is the span-Add fast path through the gf2k batch
  // kernels. Small batches, four producers, three workers: the merged
  // sketch must stay byte-identical to a scalar item-by-item sequential
  // pass for every algorithm, and a producer's Flush() must still cover
  // exactly its own batches and nothing buffered elsewhere.
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    const F0Params params = SmallParams(algorithm, 11);
    const std::vector<uint64_t> xs = RandomStream(6000, 800, 85);

    F0Estimator sequential(params);
    for (const uint64_t x : xs) sequential.Add(x);

    ShardedEngineOptions options;
    options.batch_size = 32;
    ShardedEngine<F0Estimator, uint64_t> engine(
        [params] { return F0Estimator(params); }, 3, options);
    {
      std::vector<std::thread> threads;
      for (int p = 0; p < 4; ++p) {
        threads.emplace_back([&engine, &xs, p] {
          auto producer = engine.MakeProducer();
          const auto [begin, end] = Slice(xs.size(), 4, p);
          // Uneven bulk chunks: each AddBatch call becomes one queue
          // batch absorbed through the span path.
          size_t i = begin;
          size_t chunk = 17;
          while (i < end) {
            const size_t len = std::min(chunk, end - i);
            producer.AddBatch(std::span<const uint64_t>(xs.data() + i, len));
            i += len;
            chunk = chunk * 2 + 1;
          }
          producer.Flush();
        });
      }
      for (auto& thread : threads) thread.join();
    }
    EXPECT_EQ(engine.items_ingested(), xs.size());

    // Flush exactness: another handle's buffered item is not in the
    // stream until that handle flushes.
    auto quiet = engine.MakeProducer();
    quiet.Add(3);
    EXPECT_EQ(SketchCodec::Encode(engine.SnapshotSketch()),
              SketchCodec::Encode(sequential));
    quiet.Flush();
    sequential.Add(3);
    EXPECT_EQ(SketchCodec::Encode(engine.MergedSketch()),
              SketchCodec::Encode(sequential));
  }
}

// The structured analogue: a slow StructuredF0 replica, byte-identity
// for §5 set-stream items.
struct SlowStructuredSketch {
  StructuredF0 inner;
  bool slow = false;
};

void AbsorbItem(SlowStructuredSketch& sketch, const StructuredItem& item) {
  if (sketch.slow) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  AbsorbItem(sketch.inner, item);
}

Status Merge(SlowStructuredSketch& into, const SlowStructuredSketch& from) {
  return Merge(into.inner, from.inner);
}

TEST(SkewedReplicaTest, StructuredStreamStaysByteIdentical) {
  StructuredF0Params params;
  params.n = 12;
  params.eps = 0.8;
  params.delta = 0.2;
  params.seed = 7;
  params.algorithm = StructuredF0Algorithm::kMinimum;
  params.thresh_override = 16;
  params.rows_override = 5;
  const std::vector<Term> terms = MakeTerms(12, 80, 85);

  StructuredF0 single(params);
  for (const Term& t : terms) single.AddTerms({t});

  auto built = std::make_shared<std::atomic<int>>(0);
  ShardedEngineOptions options;
  options.batch_size = 1;  // one item per batch: maximal queue traffic
  ShardedEngine<SlowStructuredSketch, StructuredItem> engine(
      [params, built] {
        SlowStructuredSketch sketch{StructuredF0(params)};
        sketch.slow = built->fetch_add(1) == 0;
        return sketch;
      },
      3, options);
  {
    std::vector<std::thread> threads;
    for (int p = 0; p < 2; ++p) {
      threads.emplace_back([&engine, &terms, p] {
        auto producer = engine.MakeProducer();
        for (size_t i = p; i < terms.size(); i += 2) {
          producer.Add(StructuredItem(std::vector<Term>{terms[i]}));
        }
        producer.Flush();
      });
    }
    for (auto& thread : threads) thread.join();
  }
  SlowStructuredSketch merged = engine.MergedSketch();
  EXPECT_EQ(SketchCodec::Encode(merged.inner), SketchCodec::Encode(single));
}

// ---- structured engine ----------------------------------------------------

TEST(ShardedStructuredEngineTest, TermShardedDnfMatchesSinglePassExactly) {
  // The §5 acceptance: terms sharded across same-seed StructuredF0
  // replicas merge to a sketch byte-identical (post encode) to a
  // single-pass StructuredF0 over the same formula, for both variants.
  for (const StructuredF0Algorithm algorithm :
       {StructuredF0Algorithm::kMinimum, StructuredF0Algorithm::kBucketing}) {
    StructuredF0Params params;
    params.n = 12;
    params.eps = 0.8;
    params.delta = 0.2;
    params.seed = 7;
    params.algorithm = algorithm;
    params.thresh_override = 16;
    params.rows_override = 5;
    const std::vector<Term> terms = MakeTerms(12, 40, 75);

    StructuredF0 single(params);
    for (const Term& t : terms) single.AddTerms({t});

    ShardedStructuredEngine engine(params, 3);
    {
      std::vector<std::thread> threads;
      for (int p = 0; p < 2; ++p) {
        threads.emplace_back([&engine, &terms, p] {
          auto producer = engine.MakeProducer();
          for (size_t i = p; i < terms.size(); i += 2) {
            producer.Add(StructuredItem(std::vector<Term>{terms[i]}));
          }
          producer.Flush();
        });
      }
      for (auto& thread : threads) thread.join();
    }
    EXPECT_EQ(engine.items_ingested(), terms.size());
    StructuredF0 merged = engine.MergedSketch();
    EXPECT_EQ(SketchCodec::Encode(merged), SketchCodec::Encode(single));
    EXPECT_DOUBLE_EQ(engine.Estimate(), single.Estimate());
    EXPECT_TRUE(merged.hashes_canonical());
  }
}

TEST(ShardedStructuredEngineTest, MixedItemKindsMatchSinglePass) {
  // Every arm of the StructuredItem alphabet through the engine — terms,
  // a range, an affine space, a singleton — against the equivalent
  // direct calls on one sketch.
  StructuredF0Params params;
  params.n = 8;
  params.eps = 0.8;
  params.delta = 0.2;
  params.seed = 9;
  params.algorithm = StructuredF0Algorithm::kBucketing;
  params.thresh_override = 16;
  params.rows_override = 5;

  MultiDimRange range(2, 4);
  range.SetDim(0, DimRange{1, 6, 0});
  range.SetDim(1, DimRange{0, 3, 0});
  Gf2Matrix a(2, 8);
  a.Set(0, 0, true);
  a.Set(1, 1, true);
  BitVec b(2);
  b.Set(0, true);
  const std::vector<Term> terms = MakeTerms(8, 6, 76);

  StructuredF0 single(params);
  single.AddTerms(terms);
  single.AddRange(range);
  single.AddAffine(a, b);
  single.AddElement(BitVec::FromU64(200, 8));

  ShardedStructuredEngine engine(params, 2);
  engine.AddTerms(terms);
  engine.AddRange(range);
  engine.AddAffine(a, b);
  engine.AddElement(BitVec::FromU64(200, 8));

  EXPECT_EQ(SketchCodec::Encode(engine.MergedSketch()),
            SketchCodec::Encode(single));
}

TEST(ShardedStructuredEngineTest, SnapshotDuringIngestionConverges) {
  // Snapshots during live structured ingestion are race-free (TSan) and
  // the final drained state matches a single pass.
  StructuredF0Params params;
  params.n = 12;
  params.eps = 0.8;
  params.delta = 0.2;
  params.seed = 11;
  params.algorithm = StructuredF0Algorithm::kMinimum;
  params.thresh_override = 16;
  params.rows_override = 5;
  const std::vector<Term> terms = MakeTerms(12, 60, 77);

  StructuredF0 single(params);
  for (const Term& t : terms) single.AddTerms({t});

  ShardedStructuredEngine engine(params, 3);
  std::atomic<bool> done{false};
  std::thread querier([&engine, &done] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_GE(engine.SnapshotEstimate(), 0.0);
    }
  });
  auto producer = engine.MakeProducer();
  for (const Term& t : terms) {
    producer.Add(StructuredItem(std::vector<Term>{t}));
  }
  producer.Flush();
  done.store(true, std::memory_order_release);
  querier.join();
  EXPECT_EQ(SketchCodec::Encode(engine.MergedSketch()),
            SketchCodec::Encode(single));
}

}  // namespace
}  // namespace mcf0
