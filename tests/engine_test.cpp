// Engine subsystem tests (src/engine): codec round trips and checked
// decoding on hostile input, the merge algebra (commutative, associative,
// split-then-merge == single stream), and sharded-ingestion equivalence.
//
// Many assertions compare SketchCodec::Encode() blobs directly: the
// encoding is canonical (sorted containers, unique BitVec packing), so
// byte equality is sketch-state equality.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "engine/sharded_engine.hpp"
#include "engine/sketch_codec.hpp"
#include "engine/sketch_merge.hpp"
#include "engine/wire.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {
namespace {

constexpr F0Algorithm kAllAlgorithms[] = {
    F0Algorithm::kBucketing, F0Algorithm::kMinimum, F0Algorithm::kEstimation};

// Small overrides keep every test fast while still exercising the
// saturated regime (thresh 20 << the default 150).
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

F0Estimator Clone(const F0Estimator& est) {
  Result<F0Estimator> decoded =
      SketchCodec::DecodeF0Estimator(SketchCodec::Encode(est));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(decoded).value();
}

// Sketch files hold whole sketches only, so row-level cases run the
// payload codecs directly: v2 bytes with the row's hash embedded.
std::string RowBytes(const BucketingSketchRow& row) {
  wire::ByteWriter w;
  wire::EncodeBucketingPayload(w, row, /*embed_hash=*/true);
  return w.Take();
}
std::string RowBytes(const MinimumSketchRow& row) {
  wire::ByteWriter w;
  wire::EncodeMinimumPayload(w, row, /*embed_hash=*/true);
  return w.Take();
}
std::string RowBytes(const EstimationSketchRow& row) {
  wire::ByteWriter w;
  wire::EncodeEstimationPayload(w, row, /*embed_hash=*/true);
  return w.Take();
}
std::string RowBytes(const FlajoletMartinRow& row) {
  wire::ByteWriter w;
  wire::EncodeFmPayload(w, row, /*embed_hash=*/true);
  return w.Take();
}

// Decodes one RowBytes payload, which must be consumed exactly. `field`
// is needed (and must outlive the row) only for Estimation rows.
template <typename Row>
Result<Row> DecodeRowBytes(std::string_view bytes,
                           const Gf2Field* field = nullptr) {
  constexpr uint16_t kV2 = SketchCodec::kFormatV2;
  wire::ByteReader r(bytes);
  std::optional<Row> row;
  Status status;
  if constexpr (std::is_same_v<Row, BucketingSketchRow>) {
    status = wire::DecodeBucketingPayload(r, kV2, nullptr, &row);
  } else if constexpr (std::is_same_v<Row, MinimumSketchRow>) {
    status = wire::DecodeMinimumPayload(r, kV2, nullptr, &row);
  } else if constexpr (std::is_same_v<Row, EstimationSketchRow>) {
    status = wire::DecodeEstimationPayload(r, kV2, *field, nullptr, &row);
  } else {
    status = wire::DecodeFmPayload(r, kV2, nullptr, &row);
  }
  if (!status.ok()) return status;
  if (!r.Done()) return Status::ParseError("trailing bytes after row");
  return *std::move(row);
}

// ---- codec ----------------------------------------------------------------

TEST(SketchCodecTest, RoundTripsEstimatorForAllAlgorithms) {
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    const F0Params params = SmallParams(algorithm);
    F0Estimator original(params);
    for (const uint64_t x : RandomStream(500, 300, 11)) original.Add(x);

    const std::string blob = SketchCodec::Encode(original);
    Result<F0Estimator> decoded = SketchCodec::DecodeF0Estimator(blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(decoded.value().params() == params);
    EXPECT_DOUBLE_EQ(decoded.value().Estimate(), original.Estimate());
    EXPECT_EQ(decoded.value().SpaceBits(), original.SpaceBits());
    // Canonical: re-encoding the decoded sketch is byte-identical.
    EXPECT_EQ(SketchCodec::Encode(decoded.value()), blob);

    // The decoded sketch is live, not a snapshot: hash state
    // round-tripped, so absorbing more elements tracks the original.
    F0Estimator revived = std::move(decoded).value();
    for (const uint64_t x : RandomStream(200, 600, 12)) {
      original.Add(x);
      revived.Add(x);
    }
    EXPECT_EQ(SketchCodec::Encode(revived), SketchCodec::Encode(original));
  }
}

TEST(SketchCodecTest, RoundTripsIndividualRows) {
  Rng rng(3);
  const std::vector<uint64_t> xs = RandomStream(200, 90, 4);

  BucketingSketchRow bucketing(16, 8, rng);
  for (const uint64_t x : xs) bucketing.Add(x);
  Result<BucketingSketchRow> b =
      DecodeRowBytes<BucketingSketchRow>(RowBytes(bucketing));
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b.value().level(), bucketing.level());
  EXPECT_EQ(RowBytes(b.value()), RowBytes(bucketing));

  MinimumSketchRow minimum(16, 8, rng);
  for (const uint64_t x : xs) minimum.Add(x);
  Result<MinimumSketchRow> m =
      DecodeRowBytes<MinimumSketchRow>(RowBytes(minimum));
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m.value().values(), minimum.values());
  EXPECT_TRUE(m.value().hash() == minimum.hash());

  FlajoletMartinRow fm(16, rng);
  for (const uint64_t x : xs) fm.Add(x);
  Result<FlajoletMartinRow> f = DecodeRowBytes<FlajoletMartinRow>(RowBytes(fm));
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ(f.value().max_trailing_zeros(), fm.max_trailing_zeros());

  const Gf2Field field(16);
  EstimationSketchRow estimation(&field, 6, 3, rng);
  for (const uint64_t x : xs) estimation.Add(x);
  Result<EstimationSketchRow> e =
      DecodeRowBytes<EstimationSketchRow>(RowBytes(estimation), &field);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e.value().cells(), estimation.cells());
  EXPECT_TRUE(e.value().hashes() == estimation.hashes());
}

// The v1 decoder's truncation/corruption sweeps run over the golden v1
// files (codec_compat_test), since nothing encodes v1 any more.
TEST(SketchCodecTest, RejectsTruncationAtEveryPrefixLength) {
  F0Estimator est(SmallParams(F0Algorithm::kMinimum));
  for (const uint64_t x : RandomStream(200, 100, 5)) est.Add(x);
  const std::string blob = SketchCodec::Encode(est);
  for (size_t len = 0; len < blob.size(); ++len) {
    Result<F0Estimator> decoded =
        SketchCodec::DecodeF0Estimator(std::string_view(blob).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(SketchCodecTest, RejectsCorruptedBytes) {
  F0Estimator est(SmallParams(F0Algorithm::kBucketing));
  for (const uint64_t x : RandomStream(300, 200, 6)) est.Add(x);
  const std::string blob = SketchCodec::Encode(est);
  // Every single-byte corruption must be caught — header fields by their
  // own validation, payload bytes by the checksum.
  for (size_t pos = 0; pos < blob.size(); pos += 7) {
    std::string corrupt = blob;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x2a);
    EXPECT_FALSE(SketchCodec::DecodeF0Estimator(corrupt).ok())
        << "flip at byte " << pos << " decoded";
  }
  // Trailing garbage is not silently ignored either.
  EXPECT_FALSE(SketchCodec::DecodeF0Estimator(blob + "x").ok());
}

TEST(SketchCodecTest, RejectsStructurallyInvalidRowState) {
  // Checksum-valid blobs whose *content* violates row invariants must be
  // rejected, not decoded into rows that misbehave later.
  Rng rng(13);

  // A bucket element outside the cell at the row's level: the from-parts
  // constructor accepts it (the codec is the validation boundary), but the
  // decoder must not.
  BucketingSketchRow honest(16, 4, rng);
  for (uint64_t x = 0; x < 300; ++x) honest.Add(x);
  ASSERT_GT(honest.level(), 0);
  std::unordered_set<uint64_t> bucket = honest.bucket();
  ASSERT_FALSE(bucket.empty());
  bucket.erase(bucket.begin());  // keep |bucket| <= thresh: isolate InCell
  uint64_t outside = 0;
  while (honest.InCell(outside, honest.level())) ++outside;
  bucket.insert(outside);
  const BucketingSketchRow tampered(honest.hash(), honest.thresh(),
                                    honest.level(), std::move(bucket));
  EXPECT_FALSE(DecodeRowBytes<BucketingSketchRow>(RowBytes(tampered)).ok());

  // An over-full bucket below the deepest level is unreachable state too.
  std::unordered_set<uint64_t> oversized;
  for (uint64_t x = 0; oversized.size() <= honest.thresh(); ++x) {
    if (honest.InCell(x, honest.level())) oversized.insert(x);
  }
  const BucketingSketchRow overfull(honest.hash(), honest.thresh(),
                                    honest.level(), std::move(oversized));
  EXPECT_FALSE(DecodeRowBytes<BucketingSketchRow>(RowBytes(overfull)).ok());

  // A minimum row whose hash input width exceeds the word universe: Add()
  // on such a row would be undefined, so the decoder refuses it.
  const AffineHash wide = AffineHash::SampleXor(65, 8, rng);
  const MinimumSketchRow wide_row(wide, 4);
  EXPECT_FALSE(DecodeRowBytes<MinimumSketchRow>(RowBytes(wide_row)).ok());

  // An Estimation row without hash functions (the cells-only §3.4/§4
  // shape) never travels: its hash marker is rejected at once.
  const Gf2Field field(16);
  wire::ByteWriter cells_only;
  cells_only.U8(0);      // no hashes
  cells_only.Varint(1);  // one cell
  cells_only.U8(0);      // the packed cell block
  EXPECT_FALSE(
      DecodeRowBytes<EstimationSketchRow>(cells_only.Take(), &field).ok());
}

TEST(SketchCodecTest, RejectsHugeRowCountWithoutAllocating) {
  // A tiny file whose parameters promise INT_MAX rows must be a clean
  // Status error, not a std::bad_alloc abort from a huge reserve().
  F0Params huge = SmallParams(F0Algorithm::kBucketing);
  huge.rows_override = 0x7fffffff;

  // v1 payload layout (docs/wire_format.md): the params block, then a
  // u32 row count.
  wire::ByteWriter v1;
  wire::EncodeParams(v1, huge);
  v1.U32(0x7fffffff);
  EXPECT_FALSE(SketchCodec::DecodeF0Estimator(
                   wire::WrapFrame(SketchFrameKind::kF0Estimator,
                                   SketchCodec::kFormatV1, v1.Take()))
                   .ok());

  // Same attack against the v2 layout: params block, hash-mode byte, then
  // a varint row count claiming 2^31 - 1 rows.
  wire::ByteWriter w;
  wire::EncodeParams(w, huge);
  w.U8(1);  // canonical hashes — nothing else needed per row
  w.Varint(0x7fffffffull);
  EXPECT_FALSE(SketchCodec::DecodeF0Estimator(
                   wire::WrapFrame(SketchFrameKind::kF0Estimator,
                                   SketchCodec::kFormatV2, w.Take()))
                   .ok());
}

TEST(SketchCodecTest, RejectsMismatchedFrameKind) {
  // Kinds 1-4 and 6 once held single rows. They are retired, so a frame
  // claiming one is refused by both whole-sketch decoders.
  Rng rng(9);
  const std::string row = RowBytes(MinimumSketchRow(16, 4, rng));
  for (const uint8_t kind : {1, 2, 3, 4, 6}) {
    const std::string blob =
        wire::WrapFrameRaw(kind, SketchCodec::kFormatV2, row);
    EXPECT_FALSE(SketchCodec::DecodeF0Estimator(blob).ok()) << int{kind};
    EXPECT_FALSE(SketchCodec::DecodeStructuredF0(blob).ok()) << int{kind};
  }

  // The two whole-sketch kinds are not interchangeable either.
  F0Estimator est(SmallParams(F0Algorithm::kMinimum));
  EXPECT_FALSE(
      SketchCodec::DecodeStructuredF0(SketchCodec::Encode(est)).ok());
  EXPECT_TRUE(SketchCodec::DecodeF0Estimator(SketchCodec::Encode(est)).ok());
  for (const StructuredF0Algorithm algorithm :
       {StructuredF0Algorithm::kMinimum, StructuredF0Algorithm::kBucketing}) {
    StructuredF0Params params;
    params.n = 12;
    params.algorithm = algorithm;
    params.thresh_override = 8;
    params.rows_override = 3;
    EXPECT_FALSE(SketchCodec::DecodeF0Estimator(
                     SketchCodec::Encode(StructuredF0(params)))
                     .ok());
  }
}

// ---- v2 wire format -------------------------------------------------------

TEST(SketchCodecTest, VarintEdgeCases) {
  // Round-trip the boundary values, including the 10-byte encoding of
  // 2^64 - 1, and reject the two malformed shapes: non-minimal encodings
  // (a redundant trailing zero group) and >64-bit values.
  for (const uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                           ~0ull >> 1, ~0ull}) {
    wire::ByteWriter w;
    w.Varint(v);
    const std::string bytes = w.Take();
    wire::ByteReader r(bytes);
    uint64_t back = 0;
    ASSERT_TRUE(r.Varint(&back));
    EXPECT_EQ(back, v);
    EXPECT_TRUE(r.Done());
  }
  {
    wire::ByteReader r(std::string_view("\x80\x00", 2));  // non-minimal 0
    uint64_t v = 0;
    EXPECT_FALSE(r.Varint(&v));
  }
  {
    // 2^64: continuation into an 11th byte / overflow group.
    const char overflow[] = {'\x80', '\x80', '\x80', '\x80', '\x80', '\x80',
                             '\x80', '\x80', '\x80', '\x02'};
    wire::ByteReader r(std::string_view(overflow, sizeof(overflow)));
    uint64_t v = 0;
    EXPECT_FALSE(r.Varint(&v));
  }
  {
    wire::ByteReader r(std::string_view("\xff", 1));  // truncated
    uint64_t v = 0;
    EXPECT_FALSE(r.Varint(&v));
    uint8_t byte = 0;  // the failed read must not consume anything
    EXPECT_TRUE(r.U8(&byte));
  }
}

TEST(SketchCodecTest, V2DeltaSetEdgeCases) {
  Rng rng(19);
  // Empty KMV set: a fresh Minimum row round-trips with zero values.
  const MinimumSketchRow empty(16, 8, rng);
  Result<MinimumSketchRow> decoded =
      DecodeRowBytes<MinimumSketchRow>(RowBytes(empty));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().values().empty());

  // Max-width universe: n = 64 elements at both ends of the range force
  // 10-byte varints and the unsigned-overflow guards in the delta sums.
  BucketingSketchRow wide(64, 8, rng);
  for (const uint64_t x : {0ull, 1ull, ~0ull, ~0ull - 1, 1ull << 63}) {
    wide.Add(x);
  }
  Result<BucketingSketchRow> wide_back =
      DecodeRowBytes<BucketingSketchRow>(RowBytes(wide));
  ASSERT_TRUE(wide_back.ok()) << wide_back.status().ToString();
  EXPECT_EQ(RowBytes(wide_back.value()), RowBytes(wide));

  // A crafted delta chain that wraps past 2^64 must be rejected, not
  // wrapped: first element 2^64 - 1, then any further gap overflows.
  wire::ByteWriter w;
  wire::EncodeAffineHash(w, wide.hash());
  w.Varint(8);   // thresh
  w.Varint(0);   // level (elements stay unfiltered)
  w.Varint(2);   // count
  w.Varint(~0ull);  // first element = 2^64 - 1
  w.Varint(0);      // gap - 1 = 0 -> next element would be 2^64
  EXPECT_FALSE(DecodeRowBytes<BucketingSketchRow>(w.Take()).ok());

  // Elements above 2^n round-trip: ingestion stores the raw 64-bit word
  // (only its hash is n-bit), v1 shipped raw U64s, and v2 must keep every
  // sketch the library builds readable. Regression: `mcf0 sketch build
  // --algo bucketing --n 8` on a stream containing 300 used to produce a
  // default-format file the library then refused to decode.
  BucketingSketchRow raw_word(8, 8, rng);
  for (const uint64_t x : {300ull, 5ull, 7ull, (1ull << 40) + 3}) {
    raw_word.Add(x);
  }
  Result<BucketingSketchRow> raw_back =
      DecodeRowBytes<BucketingSketchRow>(RowBytes(raw_word));
  ASSERT_TRUE(raw_back.ok()) << raw_back.status().ToString();
  EXPECT_EQ(RowBytes(raw_back.value()), RowBytes(raw_word));
}

TEST(SketchCodecTest, V2RejectsAmplifiedSeedHashWithoutAllocating) {
  // A seed-coded Toeplitz hash densifies to an m x n matrix from
  // n + m - 1 bits — quadratic amplification — so the decoder must bound
  // the dimensions *before* materializing (a clean Status, never a
  // std::bad_alloc abort). No canonical encoder emits seeds past
  // n = 64 / m = 4096.
  for (const auto& [n, m] : {std::pair<uint64_t, uint64_t>{65, 65},
                             std::pair<uint64_t, uint64_t>{64, 8192}}) {
    wire::ByteWriter w;
    w.U8(0);  // kind Toeplitz
    w.Varint(n);
    w.Varint(m);
    w.Varint(n + m);  // repr bits
    w.U8(1);          // seed-coded
    w.RawBits(BitVec(static_cast<int>(m)));          // offset b
    w.RawBits(BitVec(static_cast<int>(n + m - 1)));  // diagonal seed
    w.Varint(8);  // thresh
    w.Varint(0);  // value count
    w.U8(1);      // preimage-coded (empty)
    EXPECT_FALSE(DecodeRowBytes<MinimumSketchRow>(w.Take()).ok())
        << n << "x" << m;
  }
}

TEST(SketchCodecTest, V2KmvFallsBackWhenValuesHaveNoPreimage) {
  // AddHashed can insert values outside the hash's image (the §4/§5
  // protocols ship raw hash outputs; a hostile or exotic caller could ship
  // anything). Those rows still round-trip — via the explicit sorted-value
  // encoding — and re-encode canonically.
  Rng rng(23);
  MinimumSketchRow row(8, 4, rng);
  row.Add(3);
  // A value certainly outside the image: flip a bit of a real hash output
  // until insertion keeps it (thresh has room), then check the codec.
  BitVec alien = BitVec::Ones(row.output_bits());
  row.AddHashed(alien);
  const std::string blob = RowBytes(row);
  Result<MinimumSketchRow> decoded = DecodeRowBytes<MinimumSketchRow>(blob);
  if (decoded.ok()) {
    EXPECT_EQ(decoded.value().values(), row.values());
    EXPECT_EQ(RowBytes(decoded.value()), blob);
  } else {
    // Only acceptable failure: `alien` happened to lie in the hash image
    // after all (a 24-bit hash of an 8-bit universe misses it with
    // overwhelming probability, so treat this as a real failure).
    FAIL() << decoded.status().ToString();
  }
}

TEST(SketchCodecTest, V2ToeplitzKindWithDenseMatrixStillRoundTrips) {
  // FromParts can claim kToeplitz for a matrix that is not Toeplitz; the
  // v2 encoder must detect that and embed dense rows instead of lying
  // with a seed.
  Rng rng(29);
  const AffineHash fake = AffineHash::FromParts(
      Gf2Matrix::Random(24, 8, rng), BitVec::Random(24, rng),
      AffineHashKind::kToeplitz);
  ASSERT_FALSE(fake.HasToeplitzMatrix());
  MinimumSketchRow row(fake, 4);
  row.Add(77);
  Result<MinimumSketchRow> decoded =
      DecodeRowBytes<MinimumSketchRow>(RowBytes(row));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().hash() == fake);
  EXPECT_EQ(decoded.value().values(), row.values());
}

TEST(SketchCodecTest, V2EmbedsHashesWhenTheyAreNotCanonical) {
  // An estimator whose rows were assembled out of order no longer matches
  // the canonical F0RowSampler draws; v2 must embed the hash state (and
  // still round-trip exactly) rather than elide it.
  const F0Params params = SmallParams(F0Algorithm::kMinimum);
  F0Estimator built(params);
  for (const uint64_t x : RandomStream(300, 200, 31)) built.Add(x);
  F0Estimator::Parts parts = std::move(built).ReleaseParts();
  std::swap(parts.minimum[0], parts.minimum[1]);
  // Hand-shuffled hashes void the attestation; a correct caller clears it
  // (EmptyParts starts false, but this bundle came from ReleaseParts).
  parts.hashes_canonical = false;
  F0Estimator shuffled = F0Estimator::FromParts(std::move(parts));
  built = F0Estimator(params);
  for (const uint64_t x : RandomStream(300, 200, 31)) built.Add(x);

  const std::string canonical = SketchCodec::Encode(built);
  const std::string embedded = SketchCodec::Encode(shuffled);
  // Embedded hashes still seed-compress, but they cost real bytes.
  EXPECT_GT(embedded.size(), canonical.size());

  Result<F0Estimator> decoded = SketchCodec::DecodeF0Estimator(embedded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(SketchCodec::Encode(decoded.value()), embedded);
  EXPECT_DOUBLE_EQ(decoded.value().Estimate(), shuffled.Estimate());
}

TEST(SketchCodecTest, RejectsHostileParameterBlocksWithoutSampling) {
  // The v2 elided path derives hash state from the parameter block, so
  // params that would drive huge sampling allocations (or UB casts) must
  // be rejected by validation — a clean Status, never an abort. Craft
  // them by patching a genuine elided estimation frame's params bytes and
  // re-wrapping with a fresh checksum.
  F0Estimator est(SmallParams(F0Algorithm::kEstimation));
  for (const uint64_t x : RandomStream(200, 150, 97)) est.Add(x);
  const std::string blob = SketchCodec::Encode(est);
  std::string payload(std::string_view(blob).substr(24));
  // Params layout: algorithm u8, n u8, eps f64, delta f64, seed u64,
  // thresh_override u64 at offset 26, rows_override u32, s_override u32.
  constexpr size_t kEpsOff = 2;
  constexpr size_t kThreshOverrideOff = 26;
  constexpr size_t kSOverrideOff = 38;

  {
    std::string evil = payload;  // thresh_override = 2^33
    for (int i = 0; i < 8; ++i) evil[kThreshOverrideOff + i] = '\0';
    evil[kThreshOverrideOff + 4] = 2;
    Result<F0Estimator> decoded = SketchCodec::DecodeF0Estimator(
        wire::WrapFrame(SketchFrameKind::kF0Estimator,
                        SketchCodec::kFormatV2, evil));
    EXPECT_FALSE(decoded.ok());
  }
  {
    // s_override = INT_MAX: the elided replay would sample thresh * s
    // coefficients per row, so the thresh * s cap must refuse the frame.
    std::string evil = payload;
    for (int i = 0; i < 4; ++i) {
      evil[kSOverrideOff + i] = static_cast<char>(i == 3 ? 0x7f : 0xff);
    }
    Result<F0Estimator> decoded = SketchCodec::DecodeF0Estimator(
        wire::WrapFrame(SketchFrameKind::kF0Estimator,
                        SketchCodec::kFormatV2, evil));
    EXPECT_FALSE(decoded.ok());
  }
  {
    // eps = 1e-12 with no thresh override: F0Thresh's 96/eps^2 cast would
    // overflow uint64, so the parameter block itself must be refused.
    // (With an explicit override the formula never runs and tiny eps
    // stays legal — old v1 files relied on that.)
    std::string evil = payload;
    const uint64_t tiny = std::bit_cast<uint64_t>(1e-12);
    for (int i = 0; i < 8; ++i) {
      evil[kEpsOff + i] = static_cast<char>((tiny >> (8 * i)) & 0xff);
      evil[kThreshOverrideOff + i] = '\0';
    }
    Result<F0Estimator> decoded = SketchCodec::DecodeF0Estimator(
        wire::WrapFrame(SketchFrameKind::kF0Estimator,
                        SketchCodec::kFormatV2, evil));
    EXPECT_FALSE(decoded.ok());
  }
}

// ---- streaming merge -------------------------------------------------------

TEST(SketchMergeTest, StreamingMergeIsByteIdenticalAndBoundedBy32Inputs) {
  // The reducer contract: folding 32 shard frames into their union
  // produces the exact bytes of a single-pass sketch.
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    const F0Params params = SmallParams(algorithm);
    const std::vector<uint64_t> xs = RandomStream(1600, 700, 93);

    F0Estimator single(params);
    for (const uint64_t x : xs) single.Add(x);

    constexpr int kShards = 32;
    std::vector<std::string> blobs;
    for (int s = 0; s < kShards; ++s) {
      F0Estimator shard(params);
      for (size_t i = s; i < xs.size(); i += kShards) shard.Add(xs[i]);
      blobs.push_back(SketchCodec::Encode(shard));
    }

    std::stringstream out;
    std::vector<LabeledSource> sources;
    for (const std::string& blob : blobs) sources.push_back({"", blob});
    auto stats = MergeSketchStreams(sources, out);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(out.str(), SketchCodec::Encode(single));
  }
}

TEST(SketchMergeTest, StreamingMergeRejectsMismatchedInputs) {
  F0Estimator seed7(SmallParams(F0Algorithm::kMinimum, 7));
  F0Estimator seed8(SmallParams(F0Algorithm::kMinimum, 8));
  const std::string blob7 = SketchCodec::Encode(seed7);
  const std::string blob8 = SketchCodec::Encode(seed8);
  std::stringstream out;
  EXPECT_FALSE(MergeSketchStreams({{"7", blob7}, {"8", blob8}}, out).ok());
  std::stringstream out2;
  EXPECT_FALSE(
      MergeSketchStreams({{"7", blob7}, {"garbage", "garbage"}}, out2).ok());
  // A failed merge writes nothing: the frame goes out once, at the end.
  EXPECT_TRUE(out.str().empty());
  EXPECT_TRUE(out2.str().empty());
}

TEST(SketchMergeTest, StreamingMergeReportsAFailedOutputStream) {
  F0Estimator est(SmallParams(F0Algorithm::kMinimum));
  for (const uint64_t x : RandomStream(100, 80, 95)) est.Add(x);
  const std::string blob = SketchCodec::Encode(est);
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  auto stats = MergeSketchStreams({{"a", blob}, {"b", blob}}, out);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable)
      << stats.status().ToString();
}

// ---- merge algebra --------------------------------------------------------

TEST(SketchMergeTest, SplitThenMergeEqualsSingleStream) {
  // The merge is an exact union, so splitting a stream across any number
  // of sketches and merging reproduces the single-pass sketch state (not
  // just an estimate within tolerance) for every algorithm.
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    const F0Params params = SmallParams(algorithm);
    const std::vector<uint64_t> xs = RandomStream(900, 400, 21);

    F0Estimator single(params);
    for (const uint64_t x : xs) single.Add(x);

    F0Estimator parts[3] = {F0Estimator(params), F0Estimator(params),
                            F0Estimator(params)};
    for (size_t i = 0; i < xs.size(); ++i) parts[i % 3].Add(xs[i]);

    F0Estimator merged(params);
    for (const F0Estimator& part : parts) {
      ASSERT_TRUE(Merge(merged, part).ok());
    }
    EXPECT_EQ(SketchCodec::Encode(merged), SketchCodec::Encode(single));
    EXPECT_DOUBLE_EQ(merged.Estimate(), single.Estimate());
  }
}

TEST(SketchMergeTest, MergeIsCommutative) {
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    const F0Params params = SmallParams(algorithm);
    F0Estimator a(params);
    F0Estimator b(params);
    for (const uint64_t x : RandomStream(400, 250, 31)) a.Add(x);
    for (const uint64_t x : RandomStream(400, 250, 32)) b.Add(x);

    F0Estimator ab = Clone(a);
    ASSERT_TRUE(Merge(ab, b).ok());
    F0Estimator ba = Clone(b);
    ASSERT_TRUE(Merge(ba, a).ok());
    EXPECT_EQ(SketchCodec::Encode(ab), SketchCodec::Encode(ba));
  }
}

TEST(SketchMergeTest, MergeIsAssociative) {
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    const F0Params params = SmallParams(algorithm);
    F0Estimator a(params);
    F0Estimator b(params);
    F0Estimator c(params);
    for (const uint64_t x : RandomStream(300, 200, 41)) a.Add(x);
    for (const uint64_t x : RandomStream(300, 200, 42)) b.Add(x);
    for (const uint64_t x : RandomStream(300, 200, 43)) c.Add(x);

    F0Estimator left = Clone(a);  // (a ∪ b) ∪ c
    ASSERT_TRUE(Merge(left, b).ok());
    ASSERT_TRUE(Merge(left, c).ok());

    F0Estimator bc = Clone(b);  // a ∪ (b ∪ c)
    ASSERT_TRUE(Merge(bc, c).ok());
    F0Estimator right = Clone(a);
    ASSERT_TRUE(Merge(right, bc).ok());

    EXPECT_EQ(SketchCodec::Encode(left), SketchCodec::Encode(right));
  }
}

TEST(SketchMergeTest, MergeIsIdempotent) {
  // Union semantics: merging a sketch with itself changes nothing.
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    F0Estimator a(SmallParams(algorithm));
    for (const uint64_t x : RandomStream(400, 250, 51)) a.Add(x);
    F0Estimator aa = Clone(a);
    ASSERT_TRUE(Merge(aa, a).ok());
    EXPECT_EQ(SketchCodec::Encode(aa), SketchCodec::Encode(a));
  }
}

TEST(SketchMergeTest, RejectsMismatchedSketches) {
  F0Estimator seed7(SmallParams(F0Algorithm::kMinimum, 7));
  F0Estimator seed8(SmallParams(F0Algorithm::kMinimum, 8));
  EXPECT_FALSE(Merge(seed7, seed8).ok());  // different hash functions

  F0Params other = SmallParams(F0Algorithm::kMinimum, 7);
  other.thresh_override = 30;
  F0Estimator bigger(other);
  EXPECT_FALSE(Merge(seed7, bigger).ok());

  Rng rng(5);
  MinimumSketchRow row_a(16, 4, rng);
  MinimumSketchRow row_b(16, 4, rng);  // independently sampled hash
  EXPECT_FALSE(Merge(row_a, row_b).ok());

  EstimationSketchRow cells_small(4);
  EstimationSketchRow cells_big(5);
  EXPECT_FALSE(Merge(cells_small, cells_big).ok());
}

TEST(SketchMergeTest, BucketingCoordinatorEscalatesLikeTheRow) {
  BucketingCoordinator coordinator;
  // 40 distinct fingerprints, each at depth >= 0; thresh 10 forces
  // escalation until fewer than 10 survive.
  Rng rng(77);
  for (uint64_t fp = 0; fp < 40; ++fp) {
    coordinator.AddTuple(fp, static_cast<int>(rng.NextBelow(12)));
    coordinator.AddTuple(fp, 0);  // duplicate keeps the max depth
  }
  EXPECT_EQ(coordinator.num_tuples(), 40u);
  const auto resolved = coordinator.Resolve(10, 0, 16);
  EXPECT_LT(resolved.count, 10u);
  EXPECT_GT(resolved.level, 0);
  // Escalation stops at the first de-saturated level: one level shallower
  // must still be saturated (>= thresh).
  const auto shallower = coordinator.Resolve(10, resolved.level - 1, 16);
  EXPECT_TRUE(shallower.level == resolved.level);
}

// ---- sharded engine -------------------------------------------------------

TEST(ShardedEngineTest, MatchesSequentialIngestionExactly) {
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    const F0Params params = SmallParams(algorithm);
    const std::vector<uint64_t> xs = RandomStream(2000, 700, 61);

    F0Estimator sequential(params);
    for (const uint64_t x : xs) sequential.Add(x);

    ShardedF0Engine engine(params, 4);
    {
      // Mix the two ingestion paths: batches and single elements. The
      // handle is dropped unflushed: its destructor dispatches the tail,
      // and MergedSketch() must wait for it.
      ShardedF0Engine::Producer producer = engine.MakeProducer();
      const size_t half = xs.size() / 2;
      producer.AddBatch(std::span<const uint64_t>(xs.data(), half));
      for (size_t i = half; i < xs.size(); ++i) producer.Add(xs[i]);
    }

    EXPECT_EQ(engine.items_ingested(), xs.size());
    F0Estimator merged = engine.MergedSketch();
    EXPECT_EQ(SketchCodec::Encode(merged), SketchCodec::Encode(sequential));
    EXPECT_DOUBLE_EQ(engine.Estimate(), sequential.Estimate());
  }
}

TEST(ShardedEngineTest, SingleShardAndRepeatedQueries) {
  const F0Params params = SmallParams(F0Algorithm::kMinimum);
  ShardedF0Engine engine(params, 1);
  EXPECT_EQ(engine.Estimate(), 0.0);  // empty

  ShardedF0Engine::Producer producer = engine.MakeProducer();
  const std::vector<uint64_t> xs = RandomStream(500, 15, 62);
  producer.AddBatch(xs);
  EXPECT_DOUBLE_EQ(engine.Estimate(), 15.0);  // exact regime: 15 < thresh
  // Queries are non-destructive; ingestion continues afterwards.
  producer.Add(1u << 20);
  producer.Flush();
  EXPECT_DOUBLE_EQ(engine.Estimate(), 16.0);
  EXPECT_GT(engine.MergedSketch().SpaceBits(), 0u);
}

TEST(ShardedEngineTest, ProducerCloseIsIdempotentFlushAndDetach) {
  const F0Params params = SmallParams(F0Algorithm::kMinimum);
  ShardedF0Engine engine(params, 2);
  ShardedF0Engine::Producer producer = engine.MakeProducer();
  EXPECT_FALSE(producer.closed());

  const std::vector<uint64_t> xs = RandomStream(300, 12, 64);
  EXPECT_TRUE(producer.AddBatch(xs).ok());
  EXPECT_TRUE(producer.Add(1u << 21).ok());

  // Close = flush-and-detach: once it returns, every accepted item is
  // absorbed and visible to queries.
  EXPECT_TRUE(producer.Close().ok());
  EXPECT_TRUE(producer.closed());
  EXPECT_EQ(engine.items_ingested(), xs.size() + 1);
  EXPECT_DOUBLE_EQ(engine.Estimate(), 13.0);  // exact regime: 13 < thresh

  // Detached: nothing slips in afterwards, and the rejection says why.
  const uint64_t late = 99;
  const Status add = producer.Add(late);
  EXPECT_EQ(add.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(producer.AddBatch({&late, 1}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.items_ingested(), xs.size() + 1);

  // Idempotent: more Close (and Flush) calls are harmless no-ops.
  EXPECT_TRUE(producer.Close().ok());
  producer.Flush();
  EXPECT_DOUBLE_EQ(engine.Estimate(), 13.0);
}

TEST(ShardedEngineTest, MovedFromProducerIsDetached) {
  const F0Params params = SmallParams(F0Algorithm::kMinimum);
  ShardedF0Engine engine(params, 2);
  ShardedF0Engine::Producer a = engine.MakeProducer();
  EXPECT_TRUE(a.Add(7).ok());
  ShardedF0Engine::Producer b = std::move(a);
  EXPECT_TRUE(a.closed());
  EXPECT_EQ(a.Add(8).code(), StatusCode::kFailedPrecondition);
  // The move target carries the buffered item onward.
  EXPECT_TRUE(b.Add(9).ok());
  EXPECT_TRUE(b.Close().ok());
  EXPECT_DOUBLE_EQ(engine.Estimate(), 2.0);
}

TEST(ShardedEngineTest, QueueBackpressureSignalsAreSane) {
  const F0Params params = SmallParams(F0Algorithm::kMinimum);
  ShardedF0Engine engine(params, 3);
  // Capacity is a constant of the configuration (shards x per-shard
  // bound, so at least one batch per shard)...
  const uint64_t capacity = engine.queue_capacity();
  EXPECT_GE(capacity, 3u);
  EXPECT_EQ(engine.queue_capacity(), capacity);
  // ...and the queued count stays inside it, ending at zero once a
  // flush has drained the queue.
  ShardedF0Engine::Producer producer = engine.MakeProducer();
  producer.AddBatch(RandomStream(5000, 900, 65));
  EXPECT_LE(engine.queued_batches(), engine.queue_capacity());
  engine.Flush();
  EXPECT_EQ(engine.queued_batches(), 0u);
}

TEST(ShardedEngineTest, ShardedSketchSurvivesCodecRoundTrip) {
  const F0Params params = SmallParams(F0Algorithm::kBucketing);
  ShardedF0Engine engine(params, 3);
  ShardedF0Engine::Producer producer = engine.MakeProducer();
  producer.AddBatch(RandomStream(1200, 500, 63));
  const F0Estimator merged = engine.MergedSketch();
  Result<F0Estimator> decoded =
      SketchCodec::DecodeF0Estimator(SketchCodec::Encode(merged));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_DOUBLE_EQ(decoded.value().Estimate(), merged.Estimate());
}

}  // namespace
}  // namespace mcf0
