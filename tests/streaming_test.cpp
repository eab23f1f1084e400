// Tests for the classic F0 sketches (Algorithms 1-4): estimates against
// exact distinct counts over deterministic seeded streams, duplicate
// insensitivity, merge paths, and space accounting.
#include "streaming/f0_sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "engine/sketch_codec.hpp"
#include "engine/sketch_merge.hpp"

namespace mcf0 {
namespace {

/// A stream of `length` draws from a universe of `support` values (so the
/// exact F0 is the number of distinct draws), returned with its exact F0.
std::pair<std::vector<uint64_t>, uint64_t> MakeStream(uint64_t length,
                                                      uint64_t support,
                                                      Rng& rng) {
  std::vector<uint64_t> stream;
  stream.reserve(length);
  std::unordered_set<uint64_t> distinct;
  for (uint64_t i = 0; i < length; ++i) {
    const uint64_t x = rng.NextBelow(support);
    stream.push_back(x);
    distinct.insert(x);
  }
  return {std::move(stream), distinct.size()};
}

struct AccuracyCase {
  F0Algorithm alg;
  uint64_t support;
  uint64_t length;
};

class SketchAccuracy : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(SketchAccuracy, WithinToleranceOnSeededStreams) {
  const AccuracyCase param = GetParam();
  Rng data_rng(1234);
  const auto [stream, exact] =
      MakeStream(param.length, param.support, data_rng);
  F0Params params;
  params.n = 32;
  params.eps = 0.5;
  params.delta = 0.2;
  params.algorithm = param.alg;
  params.rows_override = 21;  // keep tests fast; the median still amplifies
  params.seed = 99;
  if (param.alg == F0Algorithm::kEstimation) {
    // The Estimation sketch costs rows x cells field multiplications per
    // item; trim the constants (still well inside the accuracy band).
    params.thresh_override = 128;
    params.s_override = 5;
  }
  F0Estimator est(params);
  for (const uint64_t x : stream) est.Add(x);
  const double got = est.Estimate();
  // (eps, delta) guarantee with delta amplified by the median: allow the
  // full eps band plus slack so a correct implementation never flakes.
  EXPECT_GE(got, static_cast<double>(exact) / (1.0 + 2 * params.eps));
  EXPECT_LE(got, static_cast<double>(exact) * (1.0 + 2 * params.eps));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SketchAccuracy,
    ::testing::Values(
        AccuracyCase{F0Algorithm::kBucketing, 1 << 14, 40000},
        AccuracyCase{F0Algorithm::kBucketing, 100, 5000},
        AccuracyCase{F0Algorithm::kMinimum, 1 << 14, 40000},
        AccuracyCase{F0Algorithm::kMinimum, 100, 5000},
        AccuracyCase{F0Algorithm::kEstimation, 1 << 14, 40000},
        AccuracyCase{F0Algorithm::kEstimation, 100, 5000}),
    [](const auto& info) {
      std::string name;
      switch (info.param.alg) {
        case F0Algorithm::kBucketing: name = "Bucketing"; break;
        case F0Algorithm::kMinimum: name = "Minimum"; break;
        case F0Algorithm::kEstimation: name = "Estimation"; break;
      }
      name += "s";
      name += std::to_string(info.param.support);
      return name;
    });

TEST(F0Estimator, EmptyStreamEstimatesZero) {
  for (const auto alg : {F0Algorithm::kBucketing, F0Algorithm::kMinimum,
                         F0Algorithm::kEstimation}) {
    F0Params params;
    params.n = 16;
    params.algorithm = alg;
    params.rows_override = 5;
    F0Estimator est(params);
    EXPECT_EQ(est.Estimate(), 0.0);
  }
}

TEST(F0Estimator, DuplicatesDoNotChangeEstimate) {
  F0Params params;
  params.n = 24;
  params.algorithm = F0Algorithm::kMinimum;
  params.rows_override = 9;
  params.seed = 7;
  F0Estimator a(params);
  F0Estimator b(params);
  Rng rng(5);
  std::vector<uint64_t> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.NextBelow(1u << 24));
  for (const uint64_t v : values) a.Add(v);
  for (int rep = 0; rep < 3; ++rep) {
    for (const uint64_t v : values) b.Add(v);
  }
  EXPECT_EQ(a.Estimate(), b.Estimate());
}

TEST(F0Estimator, SmallDistinctCountsAreNearExact) {
  // With F0 << Thresh the Minimum and Bucketing sketches are exact
  // (barring 3n-bit hash collisions).
  for (const auto alg : {F0Algorithm::kBucketing, F0Algorithm::kMinimum}) {
    F0Params params;
    params.n = 32;
    params.eps = 0.5;
    params.algorithm = alg;
    params.rows_override = 7;
    F0Estimator est(params);
    for (uint64_t x = 0; x < 50; ++x) est.Add(x * 977);
    EXPECT_DOUBLE_EQ(est.Estimate(), 50.0);
  }
}

TEST(F0Estimator, CopyIsIndependentAndOutlivesItsSource) {
  // A copy is a sketch of its own: what the source absorbs after the copy
  // is not in it, and destroying the source leaves it whole (under ASan,
  // a field still owned by the source would be a use-after-free). Fed on,
  // it stays byte-identical to a twin built the same way.
  for (const auto alg : {F0Algorithm::kBucketing, F0Algorithm::kMinimum,
                         F0Algorithm::kEstimation}) {
    F0Params params;
    params.n = 20;
    params.algorithm = alg;
    params.rows_override = 5;
    params.thresh_override = 24;
    params.s_override = 4;
    params.seed = 31;
    Rng rng(37);
    std::vector<uint64_t> head;
    std::vector<uint64_t> tail;
    std::vector<uint64_t> source_only;
    for (int i = 0; i < 300; ++i) {
      head.push_back(rng.NextBelow(1u << 20));
      tail.push_back(rng.NextBelow(1u << 20));
      source_only.push_back(rng.NextBelow(1u << 20));
    }

    auto source = std::make_unique<F0Estimator>(params);
    source->Add(head);
    F0Estimator copy = *source;
    source->Add(source_only);
    source.reset();

    F0Estimator twin(params);
    twin.Add(head);
    copy.Add(tail);
    twin.Add(tail);
    EXPECT_EQ(SketchCodec::Encode(copy), SketchCodec::Encode(twin));
    EXPECT_DOUBLE_EQ(copy.Estimate(), twin.Estimate());
  }
}

TEST(F0Estimator, WordsBeyondTheUniverseCountByTheirLowNBits) {
  // The universe is {0,1}^n: every sketch reads a stream word by its low
  // n bits, so 300 words that differ only above bit n are one element.
  for (const auto alg : {F0Algorithm::kBucketing, F0Algorithm::kMinimum,
                         F0Algorithm::kEstimation}) {
    F0Params params;
    params.n = 32;
    params.algorithm = alg;
    params.rows_override = 5;
    F0Estimator aliased(params);
    for (uint64_t i = 0; i < 300; ++i) aliased.Add(7 + (i << 32));
    F0Estimator single(params);
    single.Add(7);
    EXPECT_EQ(SketchCodec::Encode(aliased), SketchCodec::Encode(single));
  }
}

TEST(BucketingSketchRow, LevelGrowsWithStream) {
  Rng rng(11);
  BucketingSketchRow row(32, 16, rng);
  for (uint64_t x = 0; x < 5000; ++x) row.Add(x);
  EXPECT_GT(row.level(), 0);
  EXPECT_LE(row.bucket_size(), 16u);
  // Estimate within a loose band of 5000.
  EXPECT_GT(row.Estimate(), 500.0);
  EXPECT_LT(row.Estimate(), 50000.0);
}

TEST(MinimumSketchRow, KeepsExactlyThreshSmallest) {
  Rng rng(13);
  MinimumSketchRow row(16, 20, rng);
  std::vector<BitVec> hashes;
  for (uint64_t x = 0; x < 300; ++x) {
    row.Add(x);
    hashes.push_back(row.hash().Eval(BitVec::FromU64(x, 16)));
  }
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  ASSERT_EQ(row.values().size(), 20u);
  auto it = row.values().begin();
  for (int i = 0; i < 20; ++i, ++it) EXPECT_EQ(*it, hashes[i]);
}

TEST(MinimumSketchRow, FlatRowMatchesSetModel) {
  // The flat sorted-word row against a std::set<BitVec> model under
  // random AddHashed / Add / span-Add / Merge sequences: deduplication,
  // truncation to Thresh and ascending order, for value widths on both
  // sides of every word boundary.
  for (const int m : {1, 63, 64, 65, 96, 192, 300}) {
    Rng rng(static_cast<uint64_t>(100 + m));
    const int n = std::min(m, 12);
    const AffineHash h = AffineHash::SampleToeplitz(n, m, rng);
    const uint64_t thresh = 1 + rng.NextBelow(30);
    MinimumSketchRow row(h, thresh);
    MinimumSketchRow other(h, thresh);
    std::set<BitVec> model;
    std::set<BitVec> other_model;
    const auto insert = [thresh](std::set<BitVec>& s, const BitVec& v) {
      s.insert(v);
      if (s.size() > thresh) s.erase(std::prev(s.end()));
    };
    // Small supports make repeats common.
    const auto random_value = [&] {
      return rng.NextBelow(2) == 0 ? BitVec::Random(m, rng)
                                   : h.Eval(BitVec::FromU64(
                                         rng.NextBelow(uint64_t{1} << n), n));
    };
    for (int step = 0; step < 400; ++step) {
      switch (rng.NextBelow(4)) {
        case 0: {
          const BitVec v = random_value();
          row.AddHashed(v);
          insert(model, v);
          break;
        }
        case 1: {
          const uint64_t x = rng.NextBelow(64);
          row.Add(x);
          insert(model, h.Eval(BitVec::FromU64(x & ((uint64_t{1} << n) - 1), n)));
          break;
        }
        case 2: {
          std::vector<uint64_t> xs(1 + rng.NextBelow(9));
          for (uint64_t& x : xs) x = rng.NextU64();
          row.Add(std::span<const uint64_t>(xs));
          for (const uint64_t x : xs) {
            insert(model,
                   h.Eval(BitVec::FromU64(x & ((uint64_t{1} << n) - 1), n)));
          }
          break;
        }
        default: {
          const BitVec v = random_value();
          other.AddHashed(v);
          insert(other_model, v);
          ASSERT_TRUE(Merge(row, other).ok());
          for (const BitVec& w : other_model) insert(model, w);
          break;
        }
      }
      const std::vector<BitVec> want(model.begin(), model.end());
      const std::vector<BitVec> got(row.values().begin(), row.values().end());
      ASSERT_EQ(got, want) << "m=" << m << " step=" << step;
      ASSERT_EQ(row.saturated(), model.size() >= thresh);
    }
  }
}

TEST(MinimumSketchRow, SubThresholdIsExactCount) {
  Rng rng(17);
  MinimumSketchRow row(20, 100, rng);
  for (uint64_t x = 0; x < 37; ++x) row.Add(x);
  EXPECT_DOUBLE_EQ(row.Estimate(), 37.0);
}

TEST(EstimationSketchRow, CellsAreMonotoneMaxima) {
  const Gf2Field field(16);
  Rng rng(19);
  EstimationSketchRow row(&field, 8, 4, rng);
  for (uint64_t x = 1; x < 200; ++x) row.Add(x);
  auto cells_before = row.cells();
  for (uint64_t x = 1; x < 200; ++x) row.Add(x);  // replay: no change
  EXPECT_EQ(row.cells(), cells_before);
  row.Merge(0, 15);
  EXPECT_EQ(row.cells()[0], 15);
  row.Merge(0, 3);  // merge never lowers
  EXPECT_EQ(row.cells()[0], 15);
}

TEST(EstimationSketchRow, EstimateFormulaEdges) {
  EstimationSketchRow row(6);
  // No cell reaches r: estimate 0.
  EXPECT_EQ(row.EstimateWithR(3), 0.0);
  // Every cell reaches r: estimate +inf (r far too small).
  for (int j = 0; j < 6; ++j) row.Merge(j, 10);
  EXPECT_TRUE(std::isinf(row.EstimateWithR(3)));
}

TEST(FlajoletMartinRow, RoughEstimateWithinConstantFactorUsually) {
  // Median of many FM rows is within a 5x band w.h.p. (AMS); use a wide
  // 16x band so a correct implementation cannot flake.
  Rng rng(23);
  std::vector<double> estimates;
  for (int i = 0; i < 31; ++i) {
    FlajoletMartinRow row(32, rng);
    for (uint64_t x = 0; x < 4096; ++x) row.Add(x * 2654435761u);
    estimates.push_back(row.Estimate());
  }
  const double med = Median(std::move(estimates));
  EXPECT_GE(med, 4096.0 / 16.0);
  EXPECT_LE(med, 4096.0 * 16.0);
}

TEST(F0Estimator, SpaceBitsIsPositiveAndScalesWithRows) {
  F0Params params;
  params.n = 32;
  params.algorithm = F0Algorithm::kMinimum;
  params.rows_override = 4;
  F0Estimator small(params);
  params.rows_override = 16;
  F0Estimator large(params);
  for (uint64_t x = 0; x < 1000; ++x) {
    small.Add(x);
    large.Add(x);
  }
  EXPECT_GT(small.SpaceBits(), 0u);
  EXPECT_GT(large.SpaceBits(), 2 * small.SpaceBits());
}

TEST(F0Params, PaperFormulas) {
  F0Params params;
  params.eps = 0.8;
  params.delta = 0.2;
  EXPECT_EQ(F0Thresh(params), 150u);  // ceil(96 / 0.64)
  EXPECT_EQ(F0Rows(params), 82);      // ceil(35 log2 5)
  params.thresh_override = 10;
  params.rows_override = 3;
  EXPECT_EQ(F0Thresh(params), 10u);
  EXPECT_EQ(F0Rows(params), 3);
}

}  // namespace
}  // namespace mcf0
