// E17 — sketch engine throughput: the generic sharded engine vs a
// single-threaded sketch over the same stream, in three tables:
//
//   1. raw sharded ingestion (ShardedF0Engine), per algorithm and shard
//      count — the original E17 — with a batched-vs-scalar absorb
//      column: the `span` row feeds the same stream through the
//      span Add() (the batched-hash path the engine's workers use), so
//      the kernel-level speedup is visible next to the sharding one;
//   2. raw multi-producer ingestion: P producer threads feeding one
//      4-shard engine through private Producer handles (no global
//      producer lock on the hot path);
//   3. structured (§5) term streams through ShardedStructuredEngine —
//      DNF terms sharded as *items* across same-seed StructuredF0
//      replicas, per variant and shard count;
//   4. a skewed-replica row: one shard's replica absorbs ~10x slower
//      while every worker drains the one shared queue, printed beside the
//      unskewed 4-shard x 4-producer Bucketing rate, so what the slow
//      replica costs is visible.
//
// The multi-producer table also reports mid-stream estimate-poll latency:
// a thread hammering SnapshotEstimate() while producers saturate the
// queues, which the incremental merge cache keeps O(changed shards) per
// poll. A final gate pins that rule: polling with a batch in flight must
// perform a partial (never a full) rebuild once it lands.
//
// Because the engine's replicas share hash state and merge is an exact
// union, every parallel estimate must equal the serial estimate
// bit-for-bit (and for structured, the encoded sketches must be
// byte-identical); the tables print both so the equivalence is visible
// next to the speedup, and any mismatch exits 1. `--smoke` runs a
// one-iteration miniature of all the tables (used by CI under ASan to
// keep the engine's threading exercised and gate scaling regressions).
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "engine/sharded_engine.hpp"
#include "engine/sketch_codec.hpp"
#include "formula/formula.hpp"
#include "setstream/structured_f0.hpp"
#include "streaming/f0_sketch.hpp"

namespace {

using namespace mcf0;
using namespace mcf0::bench;

constexpr size_t kBatch = 4096;

/// Batch size for the skewed-replica row: small enough that the stream
/// spans many batches at bench lengths, so the fast workers can take the
/// ones the slow replica does not reach.
constexpr size_t kSkewBatch = 256;

const char* Name(F0Algorithm alg) {
  switch (alg) {
    case F0Algorithm::kBucketing: return "Bucketing";
    case F0Algorithm::kMinimum: return "Minimum";
    case F0Algorithm::kEstimation: return "Estimation";
  }
  return "?";
}

const char* Name(StructuredF0Algorithm alg) {
  return alg == StructuredF0Algorithm::kMinimum ? "Minimum" : "Bucketing";
}

F0Params BenchParams(F0Algorithm alg) {
  F0Params params;
  params.n = 32;
  params.eps = 0.8;
  params.delta = 0.2;
  params.algorithm = alg;
  params.seed = 9;
  params.rows_override = 13;  // reduced rows: keeps the table fast (cf. E1)
  if (alg == F0Algorithm::kEstimation) {
    params.thresh_override = 38;
    params.s_override = 5;
  }
  return params;
}

std::vector<uint64_t> MakeStream(size_t length, uint64_t support) {
  Rng rng(4242);
  std::vector<uint64_t> xs(length);
  for (auto& x : xs) x = rng.NextBelow(support);
  return xs;
}

struct Measured {
  double elems_per_sec = 0.0;
  double estimate = 0.0;
  double poll_avg_us = 0.0;  // mid-stream SnapshotEstimate() latency
  uint64_t polls = 0;
};

Measured RunSerial(const F0Params& params, const std::vector<uint64_t>& xs) {
  F0Estimator est(params);  // hash sampling excluded from the timed window
  WallTimer timer;
  for (const uint64_t x : xs) est.Add(x);
  const double secs = timer.Seconds();
  return {static_cast<double>(xs.size()) / secs, est.Estimate()};
}

// The batched-absorb baseline: the same serial stream, fed through the
// span Add() in engine-sized chunks. Same sketch bytes as item-at-a-time
// (gated below); the rate difference is the batched hash path alone.
Measured RunSerialBatched(const F0Params& params,
                          const std::vector<uint64_t>& xs) {
  F0Estimator est(params);
  WallTimer timer;
  for (size_t off = 0; off < xs.size(); off += kBatch) {
    const size_t len = std::min(kBatch, xs.size() - off);
    est.Add(std::span<const uint64_t>(xs.data() + off, len));
  }
  const double secs = timer.Seconds();
  return {static_cast<double>(xs.size()) / secs, est.Estimate()};
}

Measured RunSharded(const F0Params& params, const std::vector<uint64_t>& xs,
                    int shards) {
  ShardedF0Engine engine(params, shards);
  WallTimer timer;
  for (size_t off = 0; off < xs.size(); off += kBatch) {
    const size_t len = std::min(kBatch, xs.size() - off);
    engine.AddBatch(std::span<const uint64_t>(xs.data() + off, len));
  }
  engine.Flush();  // the timed window covers ingestion through absorption
  const double secs = timer.Seconds();
  return {static_cast<double>(xs.size()) / secs, engine.Estimate()};
}

Measured RunMultiProducer(const F0Params& params,
                          const std::vector<uint64_t>& xs, int shards,
                          int producers) {
  ShardedF0Engine engine(params, shards);
  // A dashboard polling SnapshotEstimate() mid-stream: with the
  // incremental cache each poll folds only the shards that absorbed
  // since the previous one, so latency stays flat while the producers
  // saturate the queues.
  std::atomic<bool> done{false};
  double poll_total_us = 0.0;
  uint64_t polls = 0;
  std::thread poller([&engine, &done, &poll_total_us, &polls] {
    while (!done.load(std::memory_order_acquire)) {
      WallTimer poll_timer;
      (void)engine.SnapshotEstimate();
      poll_total_us += poll_timer.Seconds() * 1e6;
      ++polls;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&engine, &xs, p, producers] {
      auto producer = engine.MakeProducer();
      // Producer p ingests the batches with index == p (mod producers).
      for (size_t off = static_cast<size_t>(p) * kBatch; off < xs.size();
           off += static_cast<size_t>(producers) * kBatch) {
        const size_t len = std::min(kBatch, xs.size() - off);
        producer.AddBatch(std::span<const uint64_t>(xs.data() + off, len));
      }
      producer.Flush();
    });
  }
  for (auto& thread : threads) thread.join();
  const double secs = timer.Seconds();
  done.store(true, std::memory_order_release);
  poller.join();
  return {static_cast<double>(xs.size()) / secs, engine.Estimate(),
          polls > 0 ? poll_total_us / static_cast<double>(polls) : 0.0, polls};
}

// ---- skewed replica -------------------------------------------------------

// An F0Estimator wrapper whose first-built replica absorbs ~10x slower —
// a hot replica or a noisy core. The factory is called once per shard in
// construction order, so the first call tags exactly shard 0 (merge
// targets built later stay fast).
struct SlowShardSketch {
  F0Estimator inner;
  bool slow = false;
};

void AbsorbItem(SlowShardSketch& sketch, uint64_t x) {
  if (sketch.slow) {
    // A synthetic per-item stall roughly 10x a Bucketing absorb
    // (~6us/item); compute rather than sleep, so the skew is CPU-shaped
    // and survives scheduler jitter.
    for (volatile int spin = 0; spin < 70000; ++spin) {
    }
  }
  sketch.inner.Add(x);
}

Status Merge(SlowShardSketch& into, const SlowShardSketch& from) {
  return Merge(into.inner, from.inner);
}

struct SkewMeasured {
  double elems_per_sec = 0.0;
  std::string bytes;  // encoded inner sketch: the byte-identity gate
};

SkewMeasured RunSkewed(const F0Params& params, const std::vector<uint64_t>& xs,
                       int shards, int producers) {
  auto built = std::make_shared<std::atomic<int>>(0);
  ShardedEngineOptions options;
  options.batch_size = kSkewBatch;
  ShardedEngine<SlowShardSketch, uint64_t> engine(
      [params, built] {
        SlowShardSketch sketch{F0Estimator(params)};
        sketch.slow = built->fetch_add(1) == 0;
        return sketch;
      },
      shards, options);
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&engine, &xs, p, producers] {
      auto producer = engine.MakeProducer();
      for (size_t off = static_cast<size_t>(p) * kSkewBatch; off < xs.size();
           off += static_cast<size_t>(producers) * kSkewBatch) {
        const size_t len = std::min(kSkewBatch, xs.size() - off);
        producer.AddBatch(std::span<const uint64_t>(xs.data() + off, len));
      }
      producer.Flush();
    });
  }
  for (auto& thread : threads) thread.join();
  const double secs = timer.Seconds();
  SlowShardSketch merged = engine.MergedSketch();
  return {static_cast<double>(xs.size()) / secs,
          SketchCodec::Encode(merged.inner)};
}

// Deterministic random DNF terms over n variables (the §5 item stream).
std::vector<Term> MakeTerms(int n, int count) {
  Rng rng(777);
  std::vector<Term> terms;
  while (static_cast<int>(terms.size()) < count) {
    std::vector<Lit> lits;
    const int width = 4 + static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < width; ++i) {
      lits.emplace_back(static_cast<int>(rng.NextBelow(n)),
                        rng.NextBelow(2) == 1);
    }
    auto term = Term::Make(std::move(lits));
    if (term.has_value()) terms.push_back(std::move(*term));
  }
  return terms;
}

StructuredF0Params StructuredBenchParams(StructuredF0Algorithm alg, int n) {
  StructuredF0Params params;
  params.n = n;
  params.eps = 0.8;
  params.delta = 0.2;
  params.algorithm = alg;
  params.seed = 9;
  params.thresh_override = 64;
  params.rows_override = 9;  // reduced rows: per-item work is heavy
  return params;
}

struct StructuredMeasured {
  double items_per_sec = 0.0;
  double estimate = 0.0;
  std::string bytes;  // encoded sketch: the byte-identity gate
};

StructuredMeasured RunStructuredSerial(const StructuredF0Params& params,
                                       const std::vector<Term>& terms) {
  StructuredF0 sketch(params);
  WallTimer timer;
  for (const Term& t : terms) sketch.AddTerms({t});
  const double secs = timer.Seconds();
  return {static_cast<double>(terms.size()) / secs, sketch.Estimate(),
          SketchCodec::Encode(sketch)};
}

StructuredMeasured RunStructuredSharded(const StructuredF0Params& params,
                                        const std::vector<Term>& terms,
                                        int shards) {
  ShardedStructuredEngine engine(params, shards);
  WallTimer timer;
  for (const Term& t : terms) engine.AddTerms({t});
  engine.Flush();
  const double secs = timer.Seconds();
  StructuredF0 merged = engine.MergedSketch();
  return {static_cast<double>(terms.size()) / secs, merged.Estimate(),
          SketchCodec::Encode(merged)};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  Banner("E17: sketch engine throughput (sharded parallel ingestion)",
         "replicas with shared hash state merge to exactly the serial "
         "sketch, so ingestion parallelizes without an accuracy tax — for "
         "raw element streams, multi-producer front ends, and structured "
         "(§5) item streams alike");
  const size_t length = smoke ? 5000 : 300000;
  const uint64_t support = smoke ? 2000 : 50000;
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  const std::vector<uint64_t> xs = MakeStream(length, support);

  // Headline rates for the Bucketing / Minimum reference rows, written
  // to BENCH_e17_engine.json at the end (same schema family as E19).
  double json_serial = 0.0;
  double json_serial_batched = 0.0;
  double json_sharded = 0.0;
  double json_multi_producer = 0.0;
  double json_poll_us = 0.0;
  double json_skew = 0.0;
  double json_structured_serial = 0.0;
  double json_structured_sharded = 0.0;

  std::printf("-- raw element streams, single producer --\n");
  std::printf("%-11s %7s %9s %12s %9s %14s\n", "algorithm", "shards",
              "elements", "elems/s", "speedup", "estimate");
  for (const auto alg : {F0Algorithm::kBucketing, F0Algorithm::kMinimum,
                         F0Algorithm::kEstimation}) {
    const F0Params params = BenchParams(alg);
    const Measured serial = RunSerial(params, xs);
    if (alg == F0Algorithm::kBucketing) json_serial = serial.elems_per_sec;
    std::printf("%-11s %7s %9zu %12.0f %9s %14.1f\n", Name(alg), "serial",
                xs.size(), serial.elems_per_sec, "1.00x", serial.estimate);
    const Measured serial_batched = RunSerialBatched(params, xs);
    if (alg == F0Algorithm::kBucketing) {
      json_serial_batched = serial_batched.elems_per_sec;
    }
    char span_speedup[16];
    std::snprintf(span_speedup, sizeof(span_speedup), "%.2fx",
                  serial.elems_per_sec > 0
                      ? serial_batched.elems_per_sec / serial.elems_per_sec
                      : 0.0);
    std::printf("%-11s %7s %9zu %12.0f %9s %14.1f\n", Name(alg), "span",
                xs.size(), serial_batched.elems_per_sec, span_speedup,
                serial_batched.estimate);
    if (serial_batched.estimate != serial.estimate) {
      std::printf(
          "  ^ MISMATCH: span-absorb estimate diverged from serial!\n");
      return 1;
    }
    double base_rate = 0.0;
    for (const int shards : shard_counts) {
      const Measured sharded = RunSharded(params, xs, shards);
      if (shards == 1) base_rate = sharded.elems_per_sec;
      if (alg == F0Algorithm::kBucketing && shards == shard_counts.back()) {
        json_sharded = sharded.elems_per_sec;
      }
      char speedup[16];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    base_rate > 0 ? sharded.elems_per_sec / base_rate : 0.0);
      std::printf("%-11s %7d %9zu %12.0f %9s %14.1f\n", Name(alg), shards,
                  xs.size(), sharded.elems_per_sec, speedup,
                  sharded.estimate);
      if (sharded.estimate != serial.estimate) {
        std::printf("  ^ MISMATCH: sharded estimate diverged from serial!\n");
        return 1;
      }
    }
  }

  std::printf("\n-- raw element streams, multi-producer (4 shards) --\n");
  std::printf("%-11s %9s %9s %12s %9s %9s %14s\n", "algorithm", "producers",
              "elements", "elems/s", "speedup", "poll us", "estimate");
  const std::vector<int> producer_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4};
  for (const auto alg : {F0Algorithm::kBucketing, F0Algorithm::kMinimum}) {
    const F0Params params = BenchParams(alg);
    const Measured serial = RunSerial(params, xs);
    double base_rate = 0.0;
    for (const int producers : producer_counts) {
      const Measured measured = RunMultiProducer(params, xs, 4, producers);
      if (producers == 1) base_rate = measured.elems_per_sec;
      if (alg == F0Algorithm::kBucketing &&
          producers == producer_counts.back()) {
        json_multi_producer = measured.elems_per_sec;
        json_poll_us = measured.poll_avg_us;
      }
      char speedup[16];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    base_rate > 0 ? measured.elems_per_sec / base_rate : 0.0);
      std::printf("%-11s %9d %9zu %12.0f %9s %9.1f %14.1f\n", Name(alg),
                  producers, xs.size(), measured.elems_per_sec, speedup,
                  measured.poll_avg_us, measured.estimate);
      if (measured.estimate != serial.estimate) {
        std::printf(
            "  ^ MISMATCH: multi-producer estimate diverged from serial!\n");
        return 1;
      }
    }
  }

  std::printf(
      "\n-- skewed replica: shard 0 ~10x slower (4 shards, 4 producers) --\n");
  std::printf("%-11s %9s %12s %14s %9s\n", "algorithm", "elements",
              "elems/s", "unskewed e/s", "ratio");
  {
    const F0Params params = BenchParams(F0Algorithm::kBucketing);
    F0Estimator serial_sketch(params);
    for (const uint64_t x : xs) serial_sketch.Add(x);
    const SkewMeasured measured = RunSkewed(params, xs, 4, 4);
    json_skew = measured.elems_per_sec;
    char ratio[16];
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  json_multi_producer > 0
                      ? measured.elems_per_sec / json_multi_producer
                      : 0.0);
    std::printf("%-11s %9zu %12.0f %14.0f %9s\n", "Bucketing", xs.size(),
                measured.elems_per_sec, json_multi_producer, ratio);
    if (measured.bytes != SketchCodec::Encode(serial_sketch)) {
      std::printf("  ^ MISMATCH: skewed sketch bytes diverged from "
                  "serial!\n");
      return 1;
    }
  }

  std::printf("\n-- structured (§5) term streams, items sharded --\n");
  std::printf("%-11s %7s %9s %12s %9s %14s\n", "variant", "shards", "items",
              "items/s", "speedup", "estimate");
  const int n = 24;
  const std::vector<Term> terms = MakeTerms(n, smoke ? 64 : 1500);
  for (const auto alg : {StructuredF0Algorithm::kMinimum,
                         StructuredF0Algorithm::kBucketing}) {
    const StructuredF0Params params = StructuredBenchParams(alg, n);
    const StructuredMeasured serial = RunStructuredSerial(params, terms);
    if (alg == StructuredF0Algorithm::kMinimum) {
      json_structured_serial = serial.items_per_sec;
    }
    std::printf("%-11s %7s %9zu %12.0f %9s %14.1f\n", Name(alg), "serial",
                terms.size(), serial.items_per_sec, "1.00x", serial.estimate);
    double base_rate = 0.0;
    for (const int shards : shard_counts) {
      const StructuredMeasured sharded =
          RunStructuredSharded(params, terms, shards);
      if (shards == 1) base_rate = sharded.items_per_sec;
      if (alg == StructuredF0Algorithm::kMinimum &&
          shards == shard_counts.back()) {
        json_structured_sharded = sharded.items_per_sec;
      }
      char speedup[16];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    base_rate > 0 ? sharded.items_per_sec / base_rate : 0.0);
      std::printf("%-11s %7d %9zu %12.0f %9s %14.1f\n", Name(alg), shards,
                  terms.size(), sharded.items_per_sec, speedup,
                  sharded.estimate);
      if (sharded.bytes != serial.bytes) {
        std::printf(
            "  ^ MISMATCH: sharded structured sketch bytes diverged!\n");
        return 1;
      }
    }
  }

  std::printf("\n(speedups are relative to the 1-shard / 1-producer engine; "
              "the serial rows are the no-engine baseline; the skew row's "
              "ratio is relative to the unskewed 4-producer Bucketing "
              "rate)\n\n");

  // Cache-refresh gate: estimate polls racing an in-flight batch must
  // perform a partial — never a full — rebuild once it lands. This is
  // the O(changed shards) rule the serve estimate path depends on
  // (docs/engine.md); a full refold here is the thrash regression.
  {
    const F0Params params = BenchParams(F0Algorithm::kMinimum);
    ShardedF0Engine engine(params, 4);
    const size_t warm = std::min<size_t>(256, xs.size());
    for (int i = 0; i < 8; ++i) {
      engine.AddBatch(std::span<const uint64_t>(xs.data(), warm));
    }
    (void)engine.Estimate();  // the one allowed full build
    engine.Add(1);            // one buffered element -> one shard's batch
    std::thread flusher([&engine] { engine.Flush(); });
    for (int i = 0; i < 2000 && engine.cache_partial_rebuilds() == 0; ++i) {
      (void)engine.SnapshotEstimate();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    flusher.join();
    (void)engine.Estimate();
    const uint64_t full =
        engine.cache_rebuilds() - engine.cache_partial_rebuilds();
    if (engine.cache_partial_rebuilds() == 0 || full != 1) {
      std::printf("cache gate FAILED: %llu rebuilds, %llu partial — polling "
                  "an in-flight batch must refold only the dirty shard\n",
                  static_cast<unsigned long long>(engine.cache_rebuilds()),
                  static_cast<unsigned long long>(
                      engine.cache_partial_rebuilds()));
      return 1;
    }
    std::printf("cache gate ok: in-flight polls led to partial rebuilds only "
                "(%llu rebuilds, %llu partial)\n\n",
                static_cast<unsigned long long>(engine.cache_rebuilds()),
                static_cast<unsigned long long>(
                    engine.cache_partial_rebuilds()));
  }

  // Machine-readable summary, same schema family as BENCH_e19_serve.json:
  // the Bucketing / Minimum reference rows at the largest shard and
  // producer counts. Reaching this line means every equality gate above
  // held, so estimates_match is by construction.
  std::ofstream json("BENCH_e17_engine.json");
  json << "{\n"
       << "  \"experiment\": \"e17_engine_throughput\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"elements\": " << xs.size() << ",\n"
       << "  \"shards\": " << shard_counts.back() << ",\n"
       << "  \"serial_items_per_sec\": " << json_serial << ",\n"
       << "  \"serial_batched_items_per_sec\": " << json_serial_batched
       << ",\n"
       << "  \"sharded_items_per_sec\": " << json_sharded << ",\n"
       << "  \"multi_producer_items_per_sec\": " << json_multi_producer
       << ",\n"
       << "  \"midstream_poll_us\": " << json_poll_us << ",\n"
       << "  \"skew_items_per_sec\": " << json_skew << ",\n"
       << "  \"partial_rebuild_gate\": true,\n"
       << "  \"structured_serial_items_per_sec\": " << json_structured_serial
       << ",\n"
       << "  \"structured_sharded_items_per_sec\": "
       << json_structured_sharded << ",\n"
       << "  \"estimates_match\": true\n"
       << "}\n";
  std::printf("wrote BENCH_e17_engine.json\n");
  return 0;
}
