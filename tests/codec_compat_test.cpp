// Wire-format compatibility tests against checked-in golden fixtures
// (tests/data/*.mcf0): v1 raw estimator files, v2 raw estimator files,
// and v2 structured-sketch files. The fixtures are never regenerated
// automatically; they pin these guarantees across codec changes:
//
//   1. the v2 encoder still produces the v2 fixtures' exact bytes — any
//      intentional v2 layout change must regenerate them *and* justify
//      itself against the "bump the version" rule below,
//   2. current decode reads golden files bit-exactly: the decoded
//      sketch's queries and state match the original's,
//   3. the v1 fixtures stay readable and hostile-input safe: v1 is
//      read-only (no encoder writes it any more), so these frozen files
//      are the v1 decoder's coverage, and every truncation or corruption
//      of them is rejected,
//   4. estimators decoded from v1 files merge with v2 ones, in memory and
//      through the reducer, and the reducer's merge of v1 and v2 shards is
//      byte-identical to a single pass (cross-version map-reduce keeps
//      working).
//
// To regenerate the v2 fixtures after an *intentional* layout change, run
// this binary with --gtest_also_run_disabled_tests
// --gtest_filter='*RegenerateFixtures*'. The v1 files cannot be
// regenerated: nothing writes v1.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/sketch_codec.hpp"
#include "engine/sketch_merge.hpp"
#include "formula/formula.hpp"
#include "setstream/structured_f0.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {
namespace {

#ifndef MCF0_TEST_DATA_DIR
#error "MCF0_TEST_DATA_DIR must be defined to the tests/data directory"
#endif

constexpr F0Algorithm kAllAlgorithms[] = {
    F0Algorithm::kBucketing, F0Algorithm::kMinimum, F0Algorithm::kEstimation};

const char* AlgoName(F0Algorithm algorithm) {
  switch (algorithm) {
    case F0Algorithm::kBucketing: return "bucketing";
    case F0Algorithm::kMinimum: return "minimum";
    case F0Algorithm::kEstimation: return "estimation";
  }
  return "?";
}

// Fixture parameters: small overrides keep the files a few KB while the
// thresh-8 rows still saturate on the 60-element streams below.
F0Params FixtureParams(F0Algorithm algorithm) {
  F0Params params;
  params.n = 16;
  params.eps = 0.8;
  params.delta = 0.2;
  params.algorithm = algorithm;
  params.seed = 5;
  params.thresh_override = 8;
  params.rows_override = 3;
  params.s_override = 3;
  return params;
}

// Deterministic distinct elements: i -> i * 977 mod 65521 (prime, so the
// map is injective for i < 65521). Shard A and shard B overlap.
uint64_t FixtureElement(uint64_t i) { return (i * 977) % 65521; }

std::vector<uint64_t> ShardA() {
  std::vector<uint64_t> xs;
  for (uint64_t i = 0; i < 60; ++i) xs.push_back(FixtureElement(i));
  return xs;
}

std::vector<uint64_t> ShardB() {
  std::vector<uint64_t> xs;
  for (uint64_t i = 40; i < 100; ++i) xs.push_back(FixtureElement(i));
  return xs;
}

F0Estimator BuildFixture(F0Algorithm algorithm,
                         const std::vector<uint64_t>& xs) {
  F0Estimator est(FixtureParams(algorithm));
  for (const uint64_t x : xs) est.Add(x);
  return est;
}

std::string FixturePath(F0Algorithm algorithm, const char* shard,
                        const char* version = "v1") {
  return std::string(MCF0_TEST_DATA_DIR) + "/" + AlgoName(algorithm) + "_" +
         shard + "_" + version + ".mcf0";
}

// ---- structured fixtures (v2-only frames) ---------------------------------

const char* StructuredAlgoName(StructuredF0Algorithm algorithm) {
  return algorithm == StructuredF0Algorithm::kMinimum ? "minimum"
                                                      : "bucketing";
}

StructuredF0Params StructuredFixtureParams(StructuredF0Algorithm algorithm) {
  StructuredF0Params params;
  params.n = 12;
  params.eps = 0.8;
  params.delta = 0.2;
  params.algorithm = algorithm;
  params.seed = 5;
  params.thresh_override = 8;
  params.rows_override = 3;
  return params;
}

// Deterministic width-3 cubes over 12 variables: term i fixes variables
// (i, i+3, i+7 mod 12) — always distinct, so Make never fails — with a
// sign pattern from i's bits.
std::vector<Term> StructuredFixtureTerms() {
  std::vector<Term> terms;
  for (int i = 0; i < 10; ++i) {
    std::vector<Lit> lits = {Lit(i % 12, (i & 1) != 0),
                             Lit((i + 3) % 12, (i & 2) != 0),
                             Lit((i + 7) % 12, (i & 4) != 0)};
    terms.push_back(*Term::Make(std::move(lits)));
  }
  return terms;
}

StructuredF0 BuildStructuredFixture(StructuredF0Algorithm algorithm) {
  StructuredF0 sketch(StructuredFixtureParams(algorithm));
  for (const Term& t : StructuredFixtureTerms()) sketch.AddTerms({t});
  return sketch;
}

std::string StructuredFixturePath(StructuredF0Algorithm algorithm) {
  return std::string(MCF0_TEST_DATA_DIR) + "/structured_" +
         StructuredAlgoName(algorithm) + "_v2.mcf0";
}

constexpr StructuredF0Algorithm kStructuredAlgorithms[] = {
    StructuredF0Algorithm::kMinimum, StructuredF0Algorithm::kBucketing};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CodecCompatTest, DecodesGoldenV1FilesBitExactly) {
  // Guarantee 2 for v1: decode -> query matches the original sketch
  // exactly, and the decoded state is the original's (equal v2 bytes).
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    const std::string blob = ReadFile(FixturePath(algorithm, "a"));
    Result<F0Estimator> decoded = SketchCodec::DecodeF0Estimator(blob);
    ASSERT_TRUE(decoded.ok())
        << AlgoName(algorithm) << ": " << decoded.status().ToString();

    const F0Estimator original = BuildFixture(algorithm, ShardA());
    EXPECT_TRUE(decoded.value().params() == original.params());
    EXPECT_DOUBLE_EQ(decoded.value().Estimate(), original.Estimate());
    EXPECT_EQ(decoded.value().SpaceBits(), original.SpaceBits());
    // v1 embeds every hash, so decode cannot attest canonicality; the
    // encoder's slow replay still proves it and elides.
    EXPECT_FALSE(decoded.value().hashes_canonical());
    const std::string v2 = SketchCodec::Encode(decoded.value());
    EXPECT_EQ(v2, SketchCodec::Encode(original));
    // The size bar of the version bump: v2 is at most a quarter of v1
    // (8-18% on these fixtures).
    EXPECT_LE(4 * v2.size(), blob.size()) << AlgoName(algorithm);

    // A v1-decoded sketch is live: it keeps absorbing elements in
    // lockstep with the original.
    F0Estimator revived = std::move(decoded).value();
    for (uint64_t i = 200; i < 260; ++i) {
      revived.Add(FixtureElement(i));
    }
    F0Estimator grown = BuildFixture(algorithm, ShardA());
    for (uint64_t i = 200; i < 260; ++i) grown.Add(FixtureElement(i));
    EXPECT_EQ(SketchCodec::Encode(revived), SketchCodec::Encode(grown));
  }
}

TEST(CodecCompatTest, RejectsEveryTruncatedOrCorruptedGoldenV1File) {
  // Guarantee 3: the v1 decoder fails cleanly on every proper prefix,
  // every single-byte corruption (header fields by their own validation,
  // payload bytes by the checksum), and trailing garbage.
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    for (const char* shard : {"a", "b"}) {
      const std::string blob = ReadFile(FixturePath(algorithm, shard));
      ASSERT_TRUE(SketchCodec::DecodeF0Estimator(blob).ok());
      for (size_t len = 0; len < blob.size(); ++len) {
        EXPECT_FALSE(SketchCodec::DecodeF0Estimator(
                         std::string_view(blob).substr(0, len))
                         .ok())
            << AlgoName(algorithm) << "_" << shard << " prefix of length "
            << len << " decoded";
      }
      for (size_t pos = 0; pos < blob.size(); ++pos) {
        std::string corrupt = blob;
        corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x2a);
        EXPECT_FALSE(SketchCodec::DecodeF0Estimator(corrupt).ok())
            << AlgoName(algorithm) << "_" << shard << " flip at byte " << pos
            << " decoded";
      }
      EXPECT_FALSE(SketchCodec::DecodeF0Estimator(blob + "x").ok());
    }
  }
}

TEST(CodecCompatTest, MergesV1DecodedWithV2DecodedAcrossVersions) {
  // Guarantee 4: Merge(v1-decoded, v2-decoded) equals the single-pass
  // sketch over the union stream, in both merge orders.
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    Result<F0Estimator> from_v1 =
        SketchCodec::DecodeF0Estimator(ReadFile(FixturePath(algorithm, "a")));
    ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();

    const std::string v2_blob =
        SketchCodec::Encode(BuildFixture(algorithm, ShardB()));
    Result<F0Estimator> from_v2 = SketchCodec::DecodeF0Estimator(v2_blob);
    ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();

    F0Estimator single(FixtureParams(algorithm));
    for (const uint64_t x : ShardA()) single.Add(x);
    for (const uint64_t x : ShardB()) single.Add(x);

    F0Estimator merged = std::move(from_v1).value();
    ASSERT_TRUE(Merge(merged, from_v2.value()).ok()) << AlgoName(algorithm);
    EXPECT_EQ(SketchCodec::Encode(merged), SketchCodec::Encode(single));

    // And the reverse order: v1 state folded into the v2-decoded side.
    Result<F0Estimator> from_v1_again =
        SketchCodec::DecodeF0Estimator(ReadFile(FixturePath(algorithm, "a")));
    ASSERT_TRUE(from_v1_again.ok());
    F0Estimator merged_rev = std::move(from_v2).value();
    ASSERT_TRUE(Merge(merged_rev, from_v1_again.value()).ok());
    EXPECT_EQ(SketchCodec::Encode(merged_rev), SketchCodec::Encode(single));
  }
}

TEST(CodecCompatTest, GoldenV2FilesMatchTheV2Encoder) {
  // Guarantee 1, the v2 drift pin: today's encoder reproduces the
  // checked-in bytes for the same parameters and streams — raw estimator
  // frames (all three algorithms) and structured frames (both
  // strategies). Any intentional v2 layout change must regenerate these
  // files (and the docs' measured-size table) consciously, not silently.
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    EXPECT_EQ(ReadFile(FixturePath(algorithm, "a", "v2")),
              SketchCodec::Encode(BuildFixture(algorithm, ShardA())))
        << AlgoName(algorithm);
    EXPECT_EQ(ReadFile(FixturePath(algorithm, "b", "v2")),
              SketchCodec::Encode(BuildFixture(algorithm, ShardB())))
        << AlgoName(algorithm);
  }
  for (const StructuredF0Algorithm algorithm : kStructuredAlgorithms) {
    EXPECT_EQ(ReadFile(StructuredFixturePath(algorithm)),
              SketchCodec::Encode(BuildStructuredFixture(algorithm)))
        << StructuredAlgoName(algorithm);
  }
}

TEST(CodecCompatTest, DecodesGoldenV2FilesBitExactly) {
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    const std::string blob = ReadFile(FixturePath(algorithm, "a", "v2"));
    Result<F0Estimator> decoded = SketchCodec::DecodeF0Estimator(blob);
    ASSERT_TRUE(decoded.ok())
        << AlgoName(algorithm) << ": " << decoded.status().ToString();
    const F0Estimator original = BuildFixture(algorithm, ShardA());
    EXPECT_TRUE(decoded.value().params() == original.params());
    EXPECT_DOUBLE_EQ(decoded.value().Estimate(), original.Estimate());
    EXPECT_EQ(decoded.value().SpaceBits(), original.SpaceBits());
    // The golden files are seed-elided, so decode attests canonicality
    // and the re-encode takes the O(state) fast path.
    EXPECT_TRUE(decoded.value().hashes_canonical());
    EXPECT_EQ(SketchCodec::Encode(decoded.value()), blob);
  }
  for (const StructuredF0Algorithm algorithm : kStructuredAlgorithms) {
    const std::string blob = ReadFile(StructuredFixturePath(algorithm));
    Result<StructuredF0> decoded = SketchCodec::DecodeStructuredF0(blob);
    ASSERT_TRUE(decoded.ok()) << StructuredAlgoName(algorithm) << ": "
                              << decoded.status().ToString();
    const StructuredF0 original = BuildStructuredFixture(algorithm);
    EXPECT_DOUBLE_EQ(decoded.value().Estimate(), original.Estimate());
    EXPECT_TRUE(decoded.value().hashes_canonical());
    EXPECT_EQ(SketchCodec::Encode(decoded.value()), blob);
  }
}

TEST(CodecCompatTest, StreamingMergeReadsGoldenV1Files) {
  // The reducer reads v1 frames too, mixed with v2 ones: both golden v1
  // shards plus a v2-encoded shard B fold into the single-pass union.
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    const std::string blob_a = ReadFile(FixturePath(algorithm, "a"));
    const std::string blob_b = ReadFile(FixturePath(algorithm, "b"));
    const std::string v2_b =
        SketchCodec::Encode(BuildFixture(algorithm, ShardB()));

    F0Estimator single(FixtureParams(algorithm));
    for (const uint64_t x : ShardA()) single.Add(x);
    for (const uint64_t x : ShardB()) single.Add(x);

    // The merged frame is Encode of the union, which carries the first v1
    // input's hashes; those are the canonical draws for these parameters,
    // so the output elides them and matches the single pass byte for byte.
    std::stringstream out;
    auto stats = MergeSketchStreams(
        {{"a_v1", blob_a}, {"b_v1", blob_b}, {"b_v2", v2_b}}, out);
    ASSERT_TRUE(stats.ok())
        << AlgoName(algorithm) << ": " << stats.status().ToString();
    EXPECT_EQ(SketchCodec::PeekFormatVersion(out.str()).value(),
              SketchCodec::kFormatV2);
    EXPECT_EQ(out.str(), SketchCodec::Encode(single)) << AlgoName(algorithm);
  }
}

// Manual regeneration hook; see the file comment. Emits the v2 raw and
// structured frames (the v1 files are frozen) and writes into the source
// tree, so it stays disabled in normal runs.
TEST(CodecCompatTest, DISABLED_RegenerateFixtures) {
  auto write = [](const std::string& path, const std::string& blob) {
    std::ofstream out(path, std::ios::binary);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    ASSERT_TRUE(out.good()) << path;
  };
  for (const F0Algorithm algorithm : kAllAlgorithms) {
    const struct {
      const char* shard;
      std::vector<uint64_t> xs;
    } shards[] = {{"a", ShardA()}, {"b", ShardB()}};
    for (const auto& [shard, xs] : shards) {
      write(FixturePath(algorithm, shard, "v2"),
            SketchCodec::Encode(BuildFixture(algorithm, xs)));
    }
  }
  for (const StructuredF0Algorithm algorithm : kStructuredAlgorithms) {
    write(StructuredFixturePath(algorithm),
          SketchCodec::Encode(BuildStructuredFixture(algorithm)));
  }
}

}  // namespace
}  // namespace mcf0
