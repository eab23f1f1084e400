// The reference build and the traced pass: the workload's own inputs
// replayed in-process through each layer's public calls, one span per
// call, single-threaded except for the reference engine's own workers.
#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "engine/sharded_engine.hpp"
#include "engine/sketch_codec.hpp"
#include "engine/sketch_merge.hpp"
#include "gf2/affine_image.hpp"
#include "harness.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "oracle/find_min.hpp"
#include "setstream/range_to_dnf.hpp"

namespace mcf0::bench {
namespace {

/// The reference engine's shard count: one worker per core here.
constexpr int kReferenceShards = 4;
/// Points replayed through the hash and row layers per round.
constexpr size_t kSamplePoints = 1024;
/// Ranges replayed through the §5 layers per round.
constexpr size_t kSampleRanges = 2;

/// Keeps replayed results observable so no call is optimized away.
volatile uint64_t g_sink = 0;

F0Algorithm RawAlgorithm(const WorkloadSpec& spec) {
  switch (spec.kind) {
    case WorkloadKind::kServeBucketingMixed:
      return F0Algorithm::kBucketing;
    case WorkloadKind::kMapReduceEstimation:
      return F0Algorithm::kEstimation;
    default:
      return F0Algorithm::kMinimum;
  }
}

/// The mcf0 CLI defaults (n = 32, eps 0.8, delta 0.2, hash seed 1) at
/// the workload's algorithm; the range workload's rows are Minimum rows.
F0Params RawParams(const WorkloadSpec& spec) {
  F0Params params;
  params.algorithm = RawAlgorithm(spec);
  return params;
}

StructuredF0Params RangeParams() {
  StructuredF0Params params;
  params.n = kRangeDims * kRangeBits;
  return params;
}

std::vector<StructuredItem> StructuredItems(const Inputs& inputs) {
  return {inputs.ranges.begin(), inputs.ranges.end()};
}

/// Feeds `items` through one Producer handle, `batch` items per
/// AddBatch, and returns the encoded merged sketch. The engine stays
/// alive for the cache replays.
template <typename Engine, typename Item>
std::string Feed(Engine& engine, std::span<const Item> items, size_t batch,
                 Tracer* tracer) {
  {
    auto producer = engine.MakeProducer();
    for (size_t i = 0; i < items.size(); i += batch) {
      Tracer::Scope span(tracer, "engine.add_batch");
      const Status status =
          producer.AddBatch(items.subspan(i, std::min(batch, items.size() - i)));
      MCF0_CHECK(status.ok());
    }
    Tracer::Scope span(tracer, "engine.flush");
    producer.Flush();
  }
  const auto merged = [&] {
    Tracer::Scope span(tracer, "engine.merged_sketch");
    return engine.MergedSketch();
  }();
  Tracer::Scope span(tracer, "engine.encode");
  return SketchCodec::Encode(merged);
}

/// Per-round values of each layer metric; the reported value is the
/// median over rounds.
using Samples = std::map<std::string, std::vector<double>>;

/// The engine-layer replays on a reference engine already holding the
/// whole round: cache hit and refresh, snapshot encode, decode, and the
/// 8-way streaming merge. Every snapshot must still equal the reference
/// (the refresh batches only repeat items the engine already holds).
template <typename Engine, typename Item>
void EngineReplay(Engine& engine, std::span<const Item> refresh_batch,
                  const std::string& reference, int reps, Tracer& tracer,
                  Samples& samples, Report& report) {
  (void)engine.SnapshotEstimate();  // warm: the cache holds every shard
  std::vector<double> hit_us;
  for (int i = 0; i < 7 * reps; ++i) {
    const int id = tracer.Begin("engine.cache_hit");
    g_sink = g_sink + static_cast<uint64_t>(engine.SnapshotEstimate());
    tracer.End(id);
    hit_us.push_back(1e6 * tracer.Seconds(id));
  }
  samples["engine.cache_hit_us"].push_back(MedianOf(hit_us));

  std::vector<double> refresh_us;
  auto producer = engine.MakeProducer();
  for (int i = 0; i < reps; ++i) {
    {
      Tracer::Scope span(&tracer, "engine.refresh_absorb");
      MCF0_CHECK(producer.AddBatch(refresh_batch).ok());
      producer.Flush();  // one shard absorbed one batch
    }
    const int id = tracer.Begin("engine.cache_refresh");
    g_sink = g_sink + static_cast<uint64_t>(engine.SnapshotEstimate());
    tracer.End(id);
    refresh_us.push_back(1e6 * tracer.Seconds(id));
  }
  samples["engine.cache_refresh_us"].push_back(MedianOf(refresh_us));

  std::vector<double> encode_us;
  for (int i = 0; i < reps; ++i) {
    const int id = tracer.Begin("engine.snapshot_encode");
    const std::string bytes = SketchCodec::Encode(engine.SnapshotSketch());
    tracer.End(id);
    encode_us.push_back(1e6 * tracer.Seconds(id));
    report.Check(bytes == reference, "snapshot differs from the reference");
  }
  samples["engine.snapshot_encode_us"].push_back(MedianOf(encode_us));

  std::vector<double> decode_us;
  for (int i = 0; i < reps; ++i) {
    const int id = tracer.Begin("engine.decode");
    const Result<SketchVariant> decoded = SketchVariant::Decode(reference);
    tracer.End(id);
    decode_us.push_back(1e6 * tracer.Seconds(id));
    report.Check(decoded.ok(), "reference sketch does not decode");
  }
  samples["engine.decode_us"].push_back(MedianOf(decode_us));

  // Eight map outputs of the same shape: the reducer's decode-and-fold
  // work is the same as for eight distinct shards, and the union of
  // identical sketches must reproduce the reference bytes exactly.
  const std::vector<std::string_view> inputs(kMapSplits, reference);
  std::stringstream merged;
  const int id = tracer.Begin("engine.merge_streams");
  const Result<SketchStreamMergeStats> stats =
      MergeSketchStreams(inputs, SketchCodec::kDefaultFormatVersion, merged);
  tracer.End(id);
  samples["engine.merge_streams_ms"].push_back(1e3 * tracer.Seconds(id));
  report.Check(stats.ok() && merged.str() == reference,
               "8-way streaming merge differs from the reference");
}

/// Frame encode/decode of every item in the round, in batches of the
/// size serve accepts.
void NetReplay(const WorkloadSpec& spec, const Inputs& inputs,
               Tracer& tracer, Samples& samples, Report& report) {
  const size_t items =
      IsRaw(spec) ? inputs.elements.size() : inputs.ranges.size();
  double encode_s = 0.0;
  double decode_s = 0.0;
  double bytes = 0.0;
  bool round_trip = true;
  for (size_t begin = 0; begin < items; begin += kRawBatchItems) {
    const size_t end = std::min(items, begin + kRawBatchItems);
    std::string frame;
    int id = 0;
    if (IsRaw(spec)) {
      net::RawBatchFrame batch;
      batch.seq = 1;
      batch.items.assign(inputs.elements.begin() + static_cast<ptrdiff_t>(begin),
                         inputs.elements.begin() + static_cast<ptrdiff_t>(end));
      id = tracer.Begin("net.encode");
      frame = net::WrapMessage(net::FrameType::kBatch, net::EncodeRawBatch(batch));
    } else {
      net::StructuredBatchFrame batch;
      batch.seq = 1;
      batch.items.assign(inputs.ranges.begin() + static_cast<ptrdiff_t>(begin),
                         inputs.ranges.begin() + static_cast<ptrdiff_t>(end));
      id = tracer.Begin("net.encode");
      frame = net::WrapMessage(net::FrameType::kBatch,
                               net::EncodeStructuredBatch(batch));
    }
    tracer.End(id);
    encode_s += tracer.Seconds(id);
    bytes += static_cast<double>(frame.size());

    net::FrameBuffer buffer;
    net::Message message;
    Status status = Status::Ok();
    net::RawBatchFrame raw;
    net::StructuredBatchFrame structured;
    id = tracer.Begin("net.decode");
    buffer.Append(frame);
    bool ok = buffer.Next(&message, &status);
    if (ok) {
      status = IsRaw(spec)
                   ? net::DecodeRawBatch(message.payload, kRawBatchItems, &raw)
                   : net::DecodeStructuredBatch(message.payload,
                                                kRangeDims * kRangeBits,
                                                kRawBatchItems, &structured);
    }
    tracer.End(id);
    decode_s += tracer.Seconds(id);
    ok = ok && status.ok() &&
         (IsRaw(spec) ? raw.items.size() : structured.items.size()) ==
             end - begin;
    if (ok && IsRaw(spec)) {
      ok = std::equal(raw.items.begin(), raw.items.end(),
                      inputs.elements.begin() + static_cast<ptrdiff_t>(begin));
    }
    round_trip &= ok;
  }
  report.Check(round_trip, "batch frames do not round-trip");
  const double n = static_cast<double>(items);
  samples["net.frame_encode_ns_per_item"].push_back(1e9 * encode_s / n);
  samples["net.frame_decode_ns_per_item"].push_back(1e9 * decode_s / n);
  samples["net.frame_bytes_per_item"].push_back(bytes / n);
}

/// Replays fixed sample points through the three hash families' rows
/// (at the CLI defaults) and the workload's own absorb and row-update
/// paths.
class PointReplay {
 public:
  PointReplay(const WorkloadSpec& spec, std::vector<uint64_t> points)
      : spec_(spec),
        points_(std::move(points)),
        minimum_(WithAlgorithm(F0Algorithm::kMinimum)),
        bucketing_(WithAlgorithm(F0Algorithm::kBucketing)),
        estimation_(WithAlgorithm(F0Algorithm::kEstimation)) {
    bucketing_.Add(points_);  // rows escalate to the sample's levels
  }

  void Round(Tracer& tracer, Samples& samples) {
    const double n = static_cast<double>(points_.size());
    const double rows = static_cast<double>(minimum_.minimum_rows().size());

    int id = tracer.Begin("hash.toeplitz");
    for (const MinimumSketchRow& row : minimum_.minimum_rows()) {
      for (const uint64_t x : points_) {
        g_sink = g_sink + row.hash().Eval(BitVec::FromU64(x, 32)).Get(0);
      }
    }
    tracer.End(id);
    samples["hash.toeplitz_eval_ns"].push_back(1e9 * tracer.Seconds(id) /
                                               (n * rows));

    id = tracer.Begin("hash.prefix");
    for (const BucketingSketchRow& row : bucketing_.bucketing_rows()) {
      for (const uint64_t x : points_) {
        g_sink = g_sink + row.InCell(x, row.level());
      }
    }
    tracer.End(id);
    const double prefix_ns = 1e9 * tracer.Seconds(id) / (n * rows);
    samples["hash.prefix_eval_ns"].push_back(prefix_ns);

    std::vector<uint64_t> out(256);
    double columns = 0.0;
    id = tracer.Begin("hash.poly_batch");
    for (const EstimationSketchRow& row : estimation_.estimation_rows()) {
      columns += static_cast<double>(row.hashes().size());
      for (const PolynomialHash& h : row.hashes()) {
        for (size_t b = 0; b < points_.size(); b += out.size()) {
          const size_t len = std::min(out.size(), points_.size() - b);
          h.EvalBatch(std::span<const uint64_t>(points_).subspan(b, len),
                      std::span<uint64_t>(out).first(len));
          g_sink = g_sink + out[0];
        }
      }
    }
    tracer.End(id);
    const double poly_ns = 1e9 * tracer.Seconds(id) / (n * columns);
    samples["hash.poly_eval_ns"].push_back(poly_ns);

    id = tracer.Begin("hash.poly_scalar");
    for (const EstimationSketchRow& row : estimation_.estimation_rows()) {
      for (const PolynomialHash& h : row.hashes()) {
        for (const uint64_t x : points_) g_sink = g_sink + h.Eval(x);
      }
    }
    tracer.End(id);
    samples["hash.poly_eval_scalar_ns"].push_back(1e9 * tracer.Seconds(id) /
                                                  (n * columns));

    // The workload's own sketch: construction, span and scalar absorb.
    const F0Params params = RawParams(spec_);
    id = tracer.Begin("streaming.construct");
    if (spec_.kind == WorkloadKind::kBuildRangeMinimum) {
      const StructuredF0 structured(RangeParams());
      g_sink = g_sink + structured.thresh();
    } else {
      const F0Estimator fresh(params);
      g_sink = g_sink + fresh.params().n;
    }
    tracer.End(id);
    samples["streaming.construct_ms"].push_back(1e3 * tracer.Seconds(id));

    F0Estimator span_sketch(params);
    id = tracer.Begin("streaming.absorb");
    span_sketch.Add(points_);
    tracer.End(id);
    const double absorb_ns = 1e9 * tracer.Seconds(id) / n;
    samples["streaming.absorb_ns_per_item"].push_back(absorb_ns);

    F0Estimator scalar_sketch(params);
    id = tracer.Begin("streaming.absorb_scalar");
    for (const uint64_t x : points_) scalar_sketch.Add(x);
    tracer.End(id);
    samples["streaming.absorb_scalar_ns_per_item"].push_back(
        1e9 * tracer.Seconds(id) / n);

    // Row update alone: the KMV insert on precomputed hash values for
    // Minimum; for the other algorithms, absorb minus hash per row
    // (derived, not timed directly).
    double row_ns = 0.0;
    if (params.algorithm == F0Algorithm::kMinimum) {
      std::vector<MinimumSketchRow> fresh_rows;
      std::vector<std::vector<BitVec>> hashed;
      for (const MinimumSketchRow& row : minimum_.minimum_rows()) {
        fresh_rows.emplace_back(row.hash(), row.thresh());
        hashed.emplace_back();
        for (const uint64_t x : points_) {
          hashed.back().push_back(row.hash().Eval(BitVec::FromU64(x, 32)));
        }
      }
      id = tracer.Begin("streaming.row_update");
      for (size_t r = 0; r < fresh_rows.size(); ++r) {
        for (const BitVec& v : hashed[r]) fresh_rows[r].AddHashed(v);
      }
      tracer.End(id);
      row_ns = 1e9 * tracer.Seconds(id) / (n * rows);
    } else if (params.algorithm == F0Algorithm::kBucketing) {
      row_ns = absorb_ns / rows - prefix_ns;
    } else {
      row_ns = absorb_ns / rows - poly_ns * columns / rows;
    }
    samples["streaming.row_update_ns"].push_back(row_ns);
  }

 private:
  static F0Params WithAlgorithm(F0Algorithm algorithm) {
    F0Params params;
    params.algorithm = algorithm;
    return params;
  }

  const WorkloadSpec& spec_;
  std::vector<uint64_t> points_;
  F0Estimator minimum_;
  F0Estimator bucketing_;
  F0Estimator estimation_;
};

/// The §5 range path split into its four steps, per sample range:
/// Lemma 4 terms, one affine image per (term, row), the lexicographic
/// union enumeration up to Thresh, and the KMV insert — checked against
/// StructuredF0::AddRange on the same ranges, row for row.
void RangeReplay(const std::vector<MultiDimRange>& ranges, Tracer& tracer,
                 Samples& samples, Report& report) {
  const StructuredF0Params params = RangeParams();
  StructuredF0 whole(params);
  double add_range_s = 0.0;
  for (const MultiDimRange& range : ranges) {
    const int id = tracer.Begin("setstream.add_range");
    whole.AddRange(range);
    tracer.End(id);
    add_range_s += tracer.Seconds(id);
  }

  const uint64_t thresh = StructuredF0Thresh(params);
  const StructuredF0 empty(params);
  std::vector<MinimumSketchRow> rows;
  for (const MinimumSketchRow& row : empty.minimum_rows()) {
    rows.emplace_back(row.hash(), thresh);
  }
  double terms_s = 0.0;
  double image_s = 0.0;
  double enum_s = 0.0;
  double insert_s = 0.0;
  double terms = 0.0;
  double values = 0.0;
  for (const MultiDimRange& range : ranges) {
    int id = tracer.Begin("setstream.range_terms");
    const std::vector<Term> range_terms = RangeTermEnumerator(range).AllTerms();
    tracer.End(id);
    terms_s += tracer.Seconds(id);
    terms += static_cast<double>(range_terms.size());
    for (MinimumSketchRow& row : rows) {
      id = tracer.Begin("oracle.term_image");
      std::vector<AffineImage> images;
      images.reserve(range_terms.size());
      for (const Term& t : range_terms) {
        images.push_back(TermImageUnderHash(t, params.n, row.hash()));
      }
      tracer.End(id);
      image_s += tracer.Seconds(id);

      id = tracer.Begin("gf2.union_enum");
      UnionLexEnumerator merge(std::move(images));
      std::vector<BitVec> smallest;
      for (uint64_t i = 0; i < thresh; ++i) {
        std::optional<BitVec> v = merge.Next();
        if (!v) break;
        smallest.push_back(std::move(*v));
      }
      tracer.End(id);
      enum_s += tracer.Seconds(id);
      values += static_cast<double>(smallest.size());

      id = tracer.Begin("streaming.kmv_insert");
      for (const BitVec& v : smallest) row.AddHashed(v);
      tracer.End(id);
      insert_s += tracer.Seconds(id);
    }
  }
  bool same = true;
  for (size_t r = 0; r < rows.size(); ++r) {
    same &= rows[r].values() == whole.minimum_rows()[r].values();
  }
  report.Check(same, "the range-path replay differs from AddRange");
  const double items = static_cast<double>(ranges.size());
  const double row_count = static_cast<double>(rows.size());
  samples["setstream.terms_per_item"].push_back(terms / items);
  samples["setstream.range_terms_us"].push_back(1e6 * terms_s / items);
  samples["oracle.term_image_us"].push_back(1e6 * image_s / (terms * row_count));
  samples["gf2.union_enum_us"].push_back(1e6 * enum_s / (items * row_count));
  samples["streaming.kmv_insert_ns"].push_back(1e9 * insert_s / values);
  samples["setstream.add_range_ms"].push_back(1e3 * add_range_s / items);
  samples["setstream.unattributed_share"].push_back(
      1.0 - (terms_s + image_s + enum_s + insert_s) / add_range_s);
}

/// Recording cost of one span, for bench.trace_overhead_pct.
double SpanCostSeconds() {
  Tracer scratch;
  constexpr int kSpans = 10'000;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    Tracer::Scope span(&scratch, "bench.span_cost");
  }
  return SecondsSince(start) / kSpans;
}

uint64_t AbsorbUsSum() {
  return obs::Registry::Global()
      .GetHistogram("mcf0_engine_absorb_batch_us")
      ->Sum();
}

uint64_t ItemsAbsorbed() {
  return obs::Registry::Global()
      .GetCounter("mcf0_engine_items_absorbed_total")
      ->Value();
}

/// The traced pass on one engine type: the reference build through one
/// Producer, then replay rounds until `seconds` are spent.
template <typename Engine, typename Item>
void TracedPass(Engine& engine, std::span<const Item> items, size_t batch,
                size_t refresh_items, const WorkloadSpec& spec,
                const Inputs& inputs, uint64_t seed, double seconds, bool smoke,
                Tracer& tracer, Report& report) {
  const double span_cost_s = SpanCostSeconds();
  const Clock::time_point start = Clock::now();
  const int root = tracer.Begin("trace_pass");
  Samples samples;

  // The reference build feeds the byte-identity checks and the engine
  // spans; the engine then stays up for the cache and snapshot replays.
  const uint64_t absorb_us = AbsorbUsSum();
  const uint64_t absorbed = ItemsAbsorbed();
  const int build = tracer.Begin("reference_build");
  const std::string reference = Feed(engine, items, batch, &tracer);
  tracer.End(build);
  const double absorb_ns =
      1e3 * static_cast<double>(AbsorbUsSum() - absorb_us) /
      static_cast<double>(std::max<uint64_t>(ItemsAbsorbed() - absorbed, 1));
  const Result<SketchVariant> decoded = SketchVariant::Decode(reference);
  report.Check(
      decoded.ok() && WithinBand(decoded.value().Estimate(), inputs.exact_f0),
      "reference estimate outside the (1+eps) band");

  PointReplay points(
      spec, SamplePoints(spec, inputs, smoke ? 64 : kSamplePoints, seed));
  const std::vector<MultiDimRange> sample_ranges(
      inputs.ranges.begin(),
      inputs.ranges.begin() +
          static_cast<ptrdiff_t>(std::min(inputs.ranges.size(),
                                          smoke ? size_t{1} : kSampleRanges)));
  size_t rounds = 0;
  do {
    EngineReplay(engine, items.first(std::min(items.size(), refresh_items)),
                 reference, smoke ? 1 : 3, tracer, samples, report);
    NetReplay(spec, inputs, tracer, samples, report);
    points.Round(tracer, samples);
    if (!sample_ranges.empty()) {
      RangeReplay(sample_ranges, tracer, samples, report);
    }
    ++rounds;
  } while (!smoke && report.correct && SecondsSince(start) < seconds);
  tracer.End(root);

  const auto median = [&samples](const char* name) {
    return MedianOf(samples[name]);
  };
  const double n = static_cast<double>(items.size());
  report.layers = {
      {"net.frame_encode_ns_per_item", median("net.frame_encode_ns_per_item"), "ns"},
      {"net.frame_decode_ns_per_item", median("net.frame_decode_ns_per_item"), "ns"},
      {"net.frame_bytes_per_item", median("net.frame_bytes_per_item"), "bytes"},
      {"engine.dispatch_ns_per_item",
       1e9 * tracer.SecondsIn("engine.add_batch", build) / n, "ns"},
      {"engine.absorb_ns_per_item", absorb_ns, "ns"},
      {"engine.cache_hit_us", median("engine.cache_hit_us"), "us"},
      {"engine.cache_refresh_us", median("engine.cache_refresh_us"), "us"},
      {"engine.snapshot_encode_us", median("engine.snapshot_encode_us"), "us"},
      {"engine.decode_us", median("engine.decode_us"), "us"},
      {"engine.merge_streams_ms", median("engine.merge_streams_ms"), "ms"},
      {"hash.toeplitz_eval_ns", median("hash.toeplitz_eval_ns"), "ns"},
      {"hash.prefix_eval_ns", median("hash.prefix_eval_ns"), "ns"},
      {"hash.poly_eval_ns", median("hash.poly_eval_ns"), "ns"},
      {"hash.poly_eval_scalar_ns", median("hash.poly_eval_scalar_ns"), "ns"},
      {"streaming.absorb_ns_per_item", median("streaming.absorb_ns_per_item"), "ns"},
      {"streaming.absorb_scalar_ns_per_item",
       median("streaming.absorb_scalar_ns_per_item"), "ns"},
      {"streaming.row_update_ns", median("streaming.row_update_ns"), "ns"},
      {"streaming.construct_ms", median("streaming.construct_ms"), "ms"},
      {"bench.trace_coverage", tracer.LeafCoverage(root), "ratio"},
      {"bench.trace_overhead_pct",
       100.0 * static_cast<double>(tracer.spans().size()) * span_cost_s /
           tracer.Seconds(root),
       "%"},
  };
  // Counts that read the same on every run of a workload, or are 0 on
  // most: reported, but not per-layer timings.
  const double batches = std::ceil(n / static_cast<double>(batch));
  report.details = {
      {"trace_rounds", static_cast<double>(rounds), "count"},
      {"engine.encoded_bytes", static_cast<double>(reference.size()), "bytes"},
      {"engine.batches_stolen_share",
       static_cast<double>(engine.batches_stolen()) / batches, "ratio"},
  };
  if (!sample_ranges.empty()) {
    const std::pair<const char*, const char*> kRangeLayers[] = {
        {"setstream.terms_per_item", "count"},
        {"setstream.range_terms_us", "us"},
        {"oracle.term_image_us", "us"},
        {"gf2.union_enum_us", "us"},
        {"streaming.kmv_insert_ns", "ns"},
        {"setstream.add_range_ms", "ms"},
        {"setstream.unattributed_share", "ratio"},
    };
    for (const auto& [name, unit] : kRangeLayers) {
      report.details.push_back({name, median(name), unit});
    }
  }
}

}  // namespace

std::string BuildReference(const WorkloadSpec& spec, const Inputs& inputs) {
  if (IsRaw(spec)) {
    ShardedF0Engine engine(RawParams(spec), kReferenceShards);
    return Feed(engine, std::span<const uint64_t>(inputs.elements),
                kRawBatchItems, nullptr);
  }
  ShardedStructuredEngine engine(RangeParams(), kReferenceShards);
  const std::vector<StructuredItem> items = StructuredItems(inputs);
  return Feed(engine, std::span<const StructuredItem>(items),
              kStructuredBatchItems, nullptr);
}

void RunTracedPass(const WorkloadSpec& spec, const Inputs& inputs,
                   uint64_t seed, double seconds, bool smoke, Tracer& tracer,
                   Report& report) {
  // Cache-refresh batches repeat items the engine already holds: 256
  // elements, or one range (a whole range is already a large batch).
  if (IsRaw(spec)) {
    ShardedF0Engine engine(RawParams(spec), kReferenceShards);
    TracedPass(engine, std::span<const uint64_t>(inputs.elements),
               kRawBatchItems, 256, spec, inputs, seed, seconds, smoke, tracer,
               report);
  } else {
    ShardedStructuredEngine engine(RangeParams(), kReferenceShards);
    const std::vector<StructuredItem> items = StructuredItems(inputs);
    TracedPass(engine, std::span<const StructuredItem>(items),
               kStructuredBatchItems, 1, spec, inputs, seed, seconds, smoke,
               tracer, report);
  }
}

}  // namespace mcf0::bench
