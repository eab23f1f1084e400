// Sealed-sketch-API tests: the unified surface over raw and structured
// sketches. Covers the StructuredF0 engine treatment (codec round trips,
// streaming reader, split-then-merge, hostile-input fuzz), the
// SketchVariant dispatch, the hashes_canonical attestation, and the
// O(1)-canonical-encode contract (zero sampler draws, pinned via the
// process-wide draw counter).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "engine/sharded_engine.hpp"
#include "engine/sketch_codec.hpp"
#include "engine/sketch_merge.hpp"
#include "engine/wire.hpp"
#include "formula/formula.hpp"
#include "setstream/structured_f0.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {
namespace {

constexpr StructuredF0Algorithm kBothAlgorithms[] = {
    StructuredF0Algorithm::kMinimum, StructuredF0Algorithm::kBucketing};

// Small overrides keep every test fast while still saturating rows.
StructuredF0Params SmallParams(StructuredF0Algorithm algorithm,
                               uint64_t seed = 7) {
  StructuredF0Params params;
  params.n = 12;
  params.eps = 0.8;
  params.delta = 0.2;
  params.algorithm = algorithm;
  params.seed = seed;
  params.thresh_override = 16;
  params.rows_override = 5;
  return params;
}

// Deterministic width-k terms over n variables; distinct seeds give
// distinct (but overlapping) solution sets.
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

StructuredF0 BuildSketch(const StructuredF0Params& params,
                         const std::vector<Term>& terms) {
  StructuredF0 sketch(params);
  for (const Term& t : terms) sketch.AddTerms({t});
  return sketch;
}

// Sketch files hold whole sketches only, so row-level cases run the
// payload codec directly: v2 bytes with the row's hash embedded, decoded
// back with the payload consumed exactly.
std::string RowBytes(const StructuredBucketRow& row) {
  wire::ByteWriter w;
  wire::EncodeStructuredBucketPayload(w, row, /*embed_hash=*/true);
  return w.Take();
}

Result<StructuredBucketRow> DecodeRowBytes(std::string_view bytes) {
  wire::ByteReader r(bytes);
  std::optional<StructuredBucketRow> row;
  Status status = wire::DecodeStructuredBucketPayload(
      r, SketchCodec::kFormatV2, nullptr, &row);
  if (!status.ok()) return status;
  if (!r.Done()) return Status::ParseError("trailing bytes after row");
  return *std::move(row);
}

// ---- codec round trips ----------------------------------------------------

TEST(StructuredSketchCodecTest, RoundTripsBothAlgorithms) {
  for (const StructuredF0Algorithm algorithm : kBothAlgorithms) {
    const StructuredF0Params params = SmallParams(algorithm);
    StructuredF0 original = BuildSketch(params, MakeTerms(12, 20, 3));

    const std::string blob = SketchCodec::Encode(original);
    Result<StructuredF0> decoded = SketchCodec::DecodeStructuredF0(blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(decoded.value().params() == params);
    EXPECT_DOUBLE_EQ(decoded.value().Estimate(), original.Estimate());
    EXPECT_EQ(decoded.value().SpaceBits(), original.SpaceBits());
    // Canonical: re-encoding the decoded sketch is byte-identical.
    EXPECT_EQ(SketchCodec::Encode(decoded.value()), blob);

    // The decoded sketch is live, not a snapshot: it keeps absorbing
    // items in lockstep with the original.
    StructuredF0 revived = std::move(decoded).value();
    for (const Term& t : MakeTerms(12, 6, 4)) {
      original.AddTerms({t});
      revived.AddTerms({t});
    }
    EXPECT_EQ(SketchCodec::Encode(revived), SketchCodec::Encode(original));
  }
}

TEST(StructuredSketchCodecTest, HandAssembledStateEmbedsHashesAndRoundTrips) {
  // Rows assembled out of order no longer match the canonical sampler
  // replay: the encoder must embed hash state (costing real bytes) and
  // still round-trip exactly.
  const StructuredF0Params params =
      SmallParams(StructuredF0Algorithm::kMinimum);
  const std::vector<Term> terms = MakeTerms(12, 15, 5);
  StructuredF0 built = BuildSketch(params, terms);
  const std::string canonical = SketchCodec::Encode(built);

  StructuredF0::Parts parts = std::move(built).ReleaseParts();
  std::swap(parts.minimum[0], parts.minimum[1]);
  parts.hashes_canonical = false;  // hand-shuffled hashes void the attestation
  const StructuredF0 shuffled = StructuredF0::FromParts(std::move(parts));
  EXPECT_FALSE(shuffled.hashes_canonical());

  const std::string embedded = SketchCodec::Encode(shuffled);
  EXPECT_GT(embedded.size(), canonical.size());
  Result<StructuredF0> decoded = SketchCodec::DecodeStructuredF0(embedded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded.value().hashes_canonical());
  EXPECT_EQ(SketchCodec::Encode(decoded.value()), embedded);
  EXPECT_DOUBLE_EQ(decoded.value().Estimate(), shuffled.Estimate());
}

TEST(StructuredSketchCodecTest, WideUniverseBeyond64BitsRoundTrips) {
  // Structured universes are not word-capped. n = 80 forces the explicit
  // KMV value encoding (no u64 preimages) and wide bucket elements.
  for (const StructuredF0Algorithm algorithm : kBothAlgorithms) {
    StructuredF0Params params = SmallParams(algorithm);
    params.n = 80;
    StructuredF0 sketch(params);
    Rng rng(11);
    for (int i = 0; i < 60; ++i) {
      sketch.AddElement(BitVec::Random(80, rng));
    }
    const std::string blob = SketchCodec::Encode(sketch);
    Result<StructuredF0> decoded = SketchCodec::DecodeStructuredF0(blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_DOUBLE_EQ(decoded.value().Estimate(), sketch.Estimate());
    EXPECT_EQ(SketchCodec::Encode(decoded.value()), blob);
  }
}

TEST(StructuredSketchCodecTest, StandaloneStructuredBucketRowRoundTrips) {
  Rng rng(13);
  StructuredBucketRow row(AffineHash::SampleToeplitz(10, 10, rng), 6);
  for (int i = 0; i < 200; ++i) row.AddElement(BitVec::Random(10, rng));
  EXPECT_GT(row.level(), 0);
  const std::string blob = RowBytes(row);
  Result<StructuredBucketRow> decoded = DecodeRowBytes(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().level(), row.level());
  EXPECT_EQ(decoded.value().bucket(), row.bucket());
  EXPECT_EQ(RowBytes(decoded.value()), blob);
}

TEST(StructuredSketchCodecTest, RejectsStructurallyInvalidRowState) {
  Rng rng(17);
  StructuredBucketRow honest(AffineHash::SampleToeplitz(10, 10, rng), 4);
  for (int i = 0; i < 200; ++i) honest.AddElement(BitVec::Random(10, rng));
  ASSERT_GT(honest.level(), 0);

  // An element outside the cell at the row's level: the from-parts
  // constructor accepts it (the codec is the validation boundary), the
  // decoder must not.
  std::set<BitVec> bucket = honest.bucket();
  ASSERT_FALSE(bucket.empty());
  bucket.erase(bucket.begin());
  BitVec outside(10);
  while (honest.InCell(outside, honest.level())) {
    ASSERT_TRUE(outside.Increment());
  }
  bucket.insert(outside);
  const StructuredBucketRow tampered(honest.hash(), honest.thresh(),
                                     honest.level(), std::move(bucket));
  EXPECT_FALSE(DecodeRowBytes(RowBytes(tampered)).ok());

  // An over-full bucket below the deepest level is unreachable state too.
  std::set<BitVec> oversized;
  BitVec x(10);
  while (oversized.size() <= honest.thresh()) {
    if (honest.InCell(x, honest.level())) oversized.insert(x);
    if (!x.Increment()) break;
  }
  ASSERT_GT(oversized.size(), honest.thresh());
  const StructuredBucketRow overfull(honest.hash(), honest.thresh(),
                                     honest.level(), std::move(oversized));
  EXPECT_FALSE(DecodeRowBytes(RowBytes(overfull)).ok());
}

// ---- fuzz -----------------------------------------------------------------

TEST(StructuredSketchCodecTest, RejectsTruncationAtEveryPrefixLength) {
  for (const StructuredF0Algorithm algorithm : kBothAlgorithms) {
    const StructuredF0 sketch =
        BuildSketch(SmallParams(algorithm), MakeTerms(12, 12, 19));
    const std::string blob = SketchCodec::Encode(sketch);
    for (size_t len = 0; len < blob.size(); ++len) {
      EXPECT_FALSE(SketchCodec::DecodeStructuredF0(
                       std::string_view(blob).substr(0, len))
                       .ok())
          << "prefix of length " << len << " decoded";
    }
  }
}

TEST(StructuredSketchCodecTest, RejectsCorruptedBytes) {
  for (const StructuredF0Algorithm algorithm : kBothAlgorithms) {
    // Embedded-hash frames too: flips inside serialized hash state must
    // be caught (by the checksum) exactly like flips in row state. Rows
    // are shuffled so the encoder genuinely embeds.
    StructuredF0 built = BuildSketch(SmallParams(algorithm),
                                     MakeTerms(12, 12, 23));
    StructuredF0::Parts parts = std::move(built).ReleaseParts();
    if (algorithm == StructuredF0Algorithm::kMinimum) {
      std::swap(parts.minimum[0], parts.minimum[1]);
    } else {
      std::swap(parts.bucketing[0], parts.bucketing[1]);
    }
    parts.hashes_canonical = false;
    const StructuredF0 embedded = StructuredF0::FromParts(std::move(parts));
    for (const bool use_embedded : {false, true}) {
      const StructuredF0& sketch =
          use_embedded ? embedded
                       : BuildSketch(SmallParams(algorithm),
                                     MakeTerms(12, 12, 23));
      const std::string blob = SketchCodec::Encode(sketch);
      for (size_t pos = 0; pos < blob.size(); pos += 7) {
        std::string corrupt = blob;
        corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x2a);
        EXPECT_FALSE(SketchCodec::DecodeStructuredF0(corrupt).ok())
            << "flip at byte " << pos << " decoded";
      }
      EXPECT_FALSE(SketchCodec::DecodeStructuredF0(blob + "x").ok());
    }
  }
}

TEST(StructuredSketchCodecTest, RejectsHostileParameterBlocks) {
  // Patch a genuine structured frame's params bytes and re-wrap with a
  // fresh checksum; validation must refuse each mutation cleanly.
  const StructuredF0 sketch = BuildSketch(
      SmallParams(StructuredF0Algorithm::kMinimum), MakeTerms(12, 6, 29));
  const std::string blob = SketchCodec::Encode(sketch);
  const std::string payload(std::string_view(blob).substr(24));
  // Structured params layout: u8 algorithm, varint n (one byte here),
  // f64 eps, f64 delta, u64 seed, varint thresh_override, varint
  // rows_override.
  {
    std::string evil = payload;
    evil[0] = 9;  // unknown algorithm
    EXPECT_FALSE(SketchCodec::DecodeStructuredF0(
                     wire::WrapFrame(SketchFrameKind::kStructuredF0,
                                     SketchCodec::kFormatV2, evil))
                     .ok());
  }
  {
    std::string evil = payload;
    evil[1] = 0;  // n = 0
    EXPECT_FALSE(SketchCodec::DecodeStructuredF0(
                     wire::WrapFrame(SketchFrameKind::kStructuredF0,
                                     SketchCodec::kFormatV2, evil))
                     .ok());
  }
  {
    // v1-tagged structured frames do not exist.
    EXPECT_FALSE(SketchCodec::DecodeStructuredF0(
                     wire::WrapFrame(SketchFrameKind::kStructuredF0,
                                     SketchCodec::kFormatV1, payload))
                     .ok());
  }
}

// ---- streaming merge -------------------------------------------------------

TEST(StructuredSketchMergeTest, SplitDnfThenMergeEqualsSinglePass) {
  // Theorem 5 under map-reduce: split a DNF's terms across shards, merge
  // the shard sketches, and the result equals (byte for byte) the sketch
  // of a single pass over every term — in memory and through the
  // streaming reducer alike.
  for (const StructuredF0Algorithm algorithm : kBothAlgorithms) {
    const StructuredF0Params params = SmallParams(algorithm);
    const std::vector<Term> terms = MakeTerms(12, 24, 37);

    const StructuredF0 single = BuildSketch(params, terms);

    constexpr int kShards = 8;
    std::vector<std::string> blobs;
    StructuredF0 merged(params);
    for (int s = 0; s < kShards; ++s) {
      StructuredF0 shard(params);
      for (size_t i = s; i < terms.size(); i += kShards) {
        shard.AddTerms({terms[i]});
      }
      blobs.push_back(SketchCodec::Encode(shard));
      ASSERT_TRUE(Merge(merged, shard).ok());
    }
    EXPECT_EQ(SketchCodec::Encode(merged), SketchCodec::Encode(single));
    EXPECT_DOUBLE_EQ(merged.Estimate(), single.Estimate());
    EXPECT_TRUE(merged.hashes_canonical());  // merging preserves the flag

    std::stringstream out;
    std::vector<LabeledSource> sources;
    for (const std::string& blob : blobs) sources.push_back({"", blob});
    auto stats = MergeSketchStreams(sources, out);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(out.str(), SketchCodec::Encode(single));
  }
}

TEST(StructuredSketchMergeTest, ShardedEngineEqualsSinglePassBytes) {
  // The in-process twin of the map-reduce test above: the same term
  // stream through ShardedStructuredEngine (items sharded across
  // same-seed replicas, merged on query) must produce the same bytes as
  // the single-pass sketch — for both algorithm variants.
  for (const StructuredF0Algorithm algorithm : kBothAlgorithms) {
    const StructuredF0Params params = SmallParams(algorithm);
    const std::vector<Term> terms = MakeTerms(12, 24, 37);
    const StructuredF0 single = BuildSketch(params, terms);

    ShardedStructuredEngine engine(params, 4);
    {
      ShardedStructuredEngine::Producer producer = engine.MakeProducer();
      for (const Term& t : terms) {
        producer.Add(StructuredItem(std::vector<Term>{t}));
      }
    }
    StructuredF0 merged = engine.MergedSketch();
    EXPECT_EQ(SketchCodec::Encode(merged), SketchCodec::Encode(single));
    EXPECT_TRUE(merged.hashes_canonical());
    EXPECT_DOUBLE_EQ(engine.Estimate(), single.Estimate());
  }
}

TEST(StructuredSketchMergeTest, EngineAffineItemsEqualDirectAddAffine) {
  // Theorem 7 items through the engine's StructuredItem path: affine
  // spaces sharded across replicas merge to the direct-AddAffine sketch.
  for (const StructuredF0Algorithm algorithm : kBothAlgorithms) {
    const StructuredF0Params params = SmallParams(algorithm);
    Rng rng(55);
    StructuredF0 single(params);
    ShardedStructuredEngine engine(params, 3);
    ShardedStructuredEngine::Producer producer = engine.MakeProducer();
    for (int i = 0; i < 6; ++i) {
      const Gf2Matrix a = Gf2Matrix::Random(3, params.n, rng);
      const BitVec b = BitVec::Random(3, rng);
      single.AddAffine(a, b);
      producer.Add(StructuredItem(AffineSpaceItem{a, b}));
    }
    producer.Flush();
    EXPECT_EQ(SketchCodec::Encode(engine.MergedSketch()),
              SketchCodec::Encode(single));
  }
}

TEST(StructuredSketchMergeTest, MergeIsCommutativeAndIdempotent) {
  for (const StructuredF0Algorithm algorithm : kBothAlgorithms) {
    const StructuredF0Params params = SmallParams(algorithm);
    const StructuredF0 a = BuildSketch(params, MakeTerms(12, 10, 41));
    const StructuredF0 b = BuildSketch(params, MakeTerms(12, 10, 43));

    auto clone = [](const StructuredF0& sketch) {
      auto decoded =
          SketchCodec::DecodeStructuredF0(SketchCodec::Encode(sketch));
      EXPECT_TRUE(decoded.ok());
      return std::move(decoded).value();
    };
    StructuredF0 ab = clone(a);
    ASSERT_TRUE(Merge(ab, b).ok());
    StructuredF0 ba = clone(b);
    ASSERT_TRUE(Merge(ba, a).ok());
    EXPECT_EQ(SketchCodec::Encode(ab), SketchCodec::Encode(ba));

    StructuredF0 aa = clone(a);
    ASSERT_TRUE(Merge(aa, a).ok());
    EXPECT_EQ(SketchCodec::Encode(aa), SketchCodec::Encode(a));
  }
}

TEST(StructuredSketchMergeTest, SelfMergeIsAnAliasSafeNoOp) {
  // Merge(x, x) must stay the idempotent no-op it always was — the parts
  // exchange consumes `into`, so without the alias short-circuit it would
  // empty `from` mid-merge and spuriously fail.
  const StructuredF0Params params =
      SmallParams(StructuredF0Algorithm::kMinimum);
  StructuredF0 sketch = BuildSketch(params, MakeTerms(12, 8, 71));
  const std::string before = SketchCodec::Encode(sketch);
  ASSERT_TRUE(Merge(sketch, sketch).ok());
  EXPECT_EQ(SketchCodec::Encode(sketch), before);

  F0Params raw_params;
  raw_params.n = 16;
  raw_params.thresh_override = 8;
  raw_params.rows_override = 3;
  F0Estimator est(raw_params);
  for (uint64_t x = 0; x < 40; ++x) est.Add(x * 977);
  const std::string raw_before = SketchCodec::Encode(est);
  ASSERT_TRUE(Merge(est, est).ok());
  EXPECT_EQ(SketchCodec::Encode(est), raw_before);
}

TEST(StructuredSketchMergeTest, RejectsMismatchedSketches) {
  StructuredF0 seed7(SmallParams(StructuredF0Algorithm::kMinimum, 7));
  StructuredF0 seed8(SmallParams(StructuredF0Algorithm::kMinimum, 8));
  EXPECT_FALSE(Merge(seed7, seed8).ok());

  Rng rng(5);
  StructuredBucketRow row_a(AffineHash::SampleToeplitz(10, 10, rng), 4);
  StructuredBucketRow row_b(AffineHash::SampleToeplitz(10, 10, rng), 4);
  EXPECT_FALSE(Merge(row_a, row_b).ok());  // independently sampled hashes
}

TEST(StructuredSketchMergeTest, LabeledSourcesNameTheBadShardInOnePass) {
  const StructuredF0Params params =
      SmallParams(StructuredF0Algorithm::kMinimum);
  const std::vector<Term> terms = MakeTerms(12, 32, 47);
  constexpr int kShards = 32;
  std::vector<std::string> blobs;
  for (int s = 0; s < kShards; ++s) {
    StructuredF0 shard(params);
    shard.AddTerms({terms[s]});
    blobs.push_back(SketchCodec::Encode(shard));
  }
  std::vector<std::string> names;
  for (int s = 0; s < kShards; ++s) {
    names.push_back("shard_" + std::to_string(s) + ".mcf0");
  }
  auto sources = [&] {
    std::vector<LabeledSource> labeled;
    for (int s = 0; s < kShards; ++s) {
      labeled.push_back(LabeledSource{names[s], blobs[s]});
    }
    return labeled;
  };

  // Corrupt shard 13 mid-payload: the error names exactly that file.
  std::string saved = blobs[13];
  blobs[13][40] = static_cast<char>(blobs[13][40] ^ 0x2a);
  {
    std::stringstream out;
    auto stats = MergeSketchStreams(sources(), out);
    ASSERT_FALSE(stats.ok());
    EXPECT_NE(stats.status().message().find("shard_13.mcf0"),
              std::string::npos)
        << stats.status().ToString();
  }
  blobs[13] = std::move(saved);

  // Mismatched parameters are named too, against the baseline shard.
  StructuredF0 other(SmallParams(StructuredF0Algorithm::kMinimum, 99));
  blobs[21] = SketchCodec::Encode(other);
  {
    std::stringstream out;
    auto stats = MergeSketchStreams(sources(), out);
    ASSERT_FALSE(stats.ok());
    EXPECT_NE(stats.status().message().find("shard_21.mcf0"),
              std::string::npos)
        << stats.status().ToString();
    EXPECT_NE(stats.status().message().find("shard_0.mcf0"),
              std::string::npos)
        << stats.status().ToString();
  }
}

// ---- SketchVariant --------------------------------------------------------

TEST(SketchVariantTest, DecodeDispatchesOnFrameKind) {
  F0Params raw_params;
  raw_params.n = 16;
  raw_params.thresh_override = 8;
  raw_params.rows_override = 3;
  F0Estimator raw(raw_params);
  for (uint64_t x = 0; x < 50; ++x) raw.Add(x * 977);
  const StructuredF0 structured = BuildSketch(
      SmallParams(StructuredF0Algorithm::kBucketing), MakeTerms(12, 8, 59));

  auto from_raw = SketchVariant::Decode(SketchCodec::Encode(raw));
  ASSERT_TRUE(from_raw.ok()) << from_raw.status().ToString();
  EXPECT_FALSE(from_raw.value().structured());
  EXPECT_EQ(from_raw.value().kind(), SketchFrameKind::kF0Estimator);
  EXPECT_DOUBLE_EQ(from_raw.value().Estimate(), raw.Estimate());
  EXPECT_EQ(from_raw.value().Encode(), SketchCodec::Encode(raw));

  auto from_structured =
      SketchVariant::Decode(SketchCodec::Encode(structured));
  ASSERT_TRUE(from_structured.ok()) << from_structured.status().ToString();
  EXPECT_TRUE(from_structured.value().structured());
  EXPECT_DOUBLE_EQ(from_structured.value().Estimate(), structured.Estimate());
  EXPECT_EQ(from_structured.value().Encode(), SketchCodec::Encode(structured));

  // Kinds do not merge with each other.
  SketchVariant into = std::move(from_raw).value();
  EXPECT_FALSE(Merge(into, from_structured.value()).ok());

  // The retired row-frame kinds are rejected, not misdecoded.
  Rng rng(61);
  wire::ByteWriter row;
  wire::EncodeMinimumPayload(row, MinimumSketchRow(16, 4, rng),
                             /*embed_hash=*/true);
  const std::string payload = row.Take();
  for (const uint8_t kind : {1, 2, 3, 4, 6}) {
    EXPECT_FALSE(SketchVariant::Decode(
                     wire::WrapFrameRaw(kind, SketchCodec::kFormatV2, payload))
                     .ok())
        << int{kind};
  }
}

TEST(StructuredSketchCodecTest, PackedCellsKeepSparseEstimationFramesValid) {
  // Regression guard for the v2 cell bit-packing: a single-row Estimation
  // frame's packed cell block occupies fewer *bytes* than it has cells,
  // so decoder bounds keyed to one-byte-per-cell would misreport a
  // legitimate frame as truncated. Round-trip the sparsest such shape.
  F0Params params;
  params.n = 24;
  params.algorithm = F0Algorithm::kEstimation;
  params.thresh_override = 100;
  params.rows_override = 1;
  params.s_override = 2;
  F0Estimator est(params);  // empty: all cells zero, maximal packing win
  const std::string blob = SketchCodec::Encode(est);
  Result<F0Estimator> decoded = SketchCodec::DecodeF0Estimator(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(SketchCodec::Encode(decoded.value()), blob);
}

// ---- the O(1) canonical-encode contract -----------------------------------

TEST(CanonicalEncodeTest, FreshAndDecodedSketchesEncodeWithZeroDraws) {
  // The acceptance bar of the sealed API: Encode of a freshly constructed
  // or canonically decoded estimator performs zero F0RowSampler draws —
  // the hashes_canonical attestation replaces the per-encode replay.
  for (const F0Algorithm algorithm :
       {F0Algorithm::kBucketing, F0Algorithm::kMinimum,
        F0Algorithm::kEstimation}) {
    F0Params params;
    params.n = 24;
    params.algorithm = algorithm;
    params.thresh_override = 20;
    params.rows_override = 5;
    params.s_override = 4;
    F0Estimator est(params);  // draws rows (counted)
    EXPECT_TRUE(est.hashes_canonical());
    for (uint64_t x = 0; x < 300; ++x) est.Add(x * 2654435761ull);

    const uint64_t before = TotalSamplerRowDraws();
    const std::string blob = SketchCodec::Encode(est);
    EXPECT_EQ(TotalSamplerRowDraws(), before) << "encode-after-construct "
                                                 "re-ran the sampler";

    // Elided decode re-derives hashes, one draw per row (an Estimation
    // draw yields the row's FM hash too, so nothing is replayed twice),
    // and attests canonicality, so the *re-encode* is draw-free again.
    const uint64_t before_decode = TotalSamplerRowDraws();
    Result<F0Estimator> decoded = SketchCodec::DecodeF0Estimator(blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(decoded.value().hashes_canonical());
    const uint64_t after_decode = TotalSamplerRowDraws();
    EXPECT_EQ(after_decode - before_decode,
              static_cast<uint64_t>(F0Rows(params)));
    EXPECT_EQ(SketchCodec::Encode(decoded.value()), blob);
    EXPECT_EQ(TotalSamplerRowDraws(), after_decode)
        << "encode-after-canonical-decode re-ran the sampler";

    // Without the attestation (stripped through the sealed Parts
    // exchange, as E18 does), the encode takes the slow replay path
    // (draws) and still elides correctly.
    F0Estimator::Parts parts = std::move(est).ReleaseParts();
    parts.hashes_canonical = false;
    const F0Estimator stripped = F0Estimator::FromParts(std::move(parts));
    const uint64_t before_slow = TotalSamplerRowDraws();
    EXPECT_EQ(SketchCodec::Encode(stripped), blob);
    EXPECT_GT(TotalSamplerRowDraws(), before_slow);
  }
}

TEST(CanonicalEncodeTest, StructuredSketchesShareTheContract) {
  for (const StructuredF0Algorithm algorithm : kBothAlgorithms) {
    const StructuredF0 sketch =
        BuildSketch(SmallParams(algorithm), MakeTerms(12, 10, 67));
    EXPECT_TRUE(sketch.hashes_canonical());
    const uint64_t before = TotalSamplerRowDraws();
    const std::string blob = SketchCodec::Encode(sketch);
    EXPECT_EQ(TotalSamplerRowDraws(), before);

    Result<StructuredF0> decoded = SketchCodec::DecodeStructuredF0(blob);
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.value().hashes_canonical());
    const uint64_t after_decode = TotalSamplerRowDraws();
    EXPECT_EQ(SketchCodec::Encode(decoded.value()), blob);
    EXPECT_EQ(TotalSamplerRowDraws(), after_decode);
  }
}

TEST(CanonicalEncodeTest, MergePreservesTheAttestation) {
  const F0Params params = [] {
    F0Params p;
    p.n = 20;
    p.thresh_override = 12;
    p.rows_override = 4;
    return p;
  }();
  F0Estimator a(params);
  F0Estimator b(params);
  for (uint64_t x = 0; x < 200; ++x) (x % 2 ? a : b).Add(x * 7919);
  ASSERT_TRUE(a.hashes_canonical() && b.hashes_canonical());
  ASSERT_TRUE(Merge(a, b).ok());
  EXPECT_TRUE(a.hashes_canonical());
  const uint64_t before = TotalSamplerRowDraws();
  SketchCodec::Encode(a);
  EXPECT_EQ(TotalSamplerRowDraws(), before);
}

}  // namespace
}  // namespace mcf0
