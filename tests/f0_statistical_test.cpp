// Statistical acceptance harness for the (eps, delta) guarantee, run
// through the wire format: at each setting we build sketches over streams
// with known F0 using the paper's own parameter formulas (Thresh =
// ceil(96 / eps^2), t = ceil(35 log2(1/delta)) — no overrides), round
// every sketch through the v2 codec (the only one that encodes; v1 is
// read-only and pinned by codec_compat_test's golden files), and tally
// how often the relative error exceeds eps across >= 200 independently
// seeded trials.
// The paper promises failure probability <= delta; with its generous
// constants the true rate sits far below that, so asserting
// failures <= delta * trials is robust against binomial noise while still
// catching any compression bug that nudges estimates.
//
// The codec round trip must also agree with the in-memory estimator
// *exactly* (the codec is lossless), so the statistical guarantee
// transfers to round-tripped sketches by identity — which is precisely
// what this harness pins down: compression can never silently change an
// estimate.
//
// Every algorithm runs here, Estimation included. Each trial absorbs its
// stream as one span (F0Estimator::Add(span), byte-identical to
// item-by-item Add), so Estimation's Theta(Thresh * t) polynomial hash
// evaluations per element run batched through the gf2k kernels. Byte
// identity with a single pass is what carries the guarantee over to the
// sharded engine and serve paths (engine and serve tests pin it), so they
// need no trials of their own.
//
// Structured items get the same check: the Minimum sketch over streams of
// 2-D ranges (§5, Theorem 6) runs Lemma 4's terms, one hash image per
// (term, row) and their lexicographic union per row, and its estimate is
// compared with the exact union area (ExactRangeUnionSize).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/sketch_codec.hpp"
#include "setstream/exact_union.hpp"
#include "setstream/range.hpp"
#include "setstream/structured_f0.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {
namespace {

struct Setting {
  F0Algorithm algorithm;
  double eps;
  double delta;
  uint64_t f0;  // distinct elements per stream
  int trials;
};

// Distinct elements, varied per trial: odd-multiplier mixing is a
// bijection on the n-bit universe, and the trial XOR keeps streams
// distinct across trials without breaking injectivity.
uint64_t Element(uint64_t i, uint64_t trial, int n) {
  const uint64_t mask = (1ull << n) - 1;
  return ((i * 2654435761ull) ^ (trial * 0x9e37ull)) & mask;
}

void RunSetting(const Setting& setting) {
  constexpr int kN = 16;
  int failures = 0;
  for (int trial = 0; trial < setting.trials; ++trial) {
    F0Params params;
    params.n = kN;
    params.eps = setting.eps;
    params.delta = setting.delta;
    params.algorithm = setting.algorithm;
    params.seed = 1000 + trial;

    std::vector<uint64_t> stream;
    stream.reserve(setting.f0);
    for (uint64_t i = 0; i < setting.f0; ++i) {
      stream.push_back(Element(i, trial, kN));
    }
    F0Estimator est(params);
    est.Add(stream);

    const double direct = est.Estimate();
    Result<F0Estimator> decoded =
        SketchCodec::DecodeF0Estimator(SketchCodec::Encode(est));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    // Lossless: the round-tripped estimator answers identically.
    ASSERT_DOUBLE_EQ(decoded.value().Estimate(), direct) << "trial " << trial;

    const double f0 = static_cast<double>(setting.f0);
    if (std::abs(direct - f0) > setting.eps * f0) ++failures;
  }
  EXPECT_LE(failures, setting.delta * setting.trials)
      << "observed failure rate "
      << static_cast<double>(failures) / setting.trials
      << " breaks the paper's delta = " << setting.delta << " bound";
}

// Each trial streams `ranges` random 2-D ranges over 8-bit dimensions
// into a structured Minimum sketch at the paper's Thresh and row count.
void RunRangeSetting(double eps, double delta, int ranges, int trials) {
  constexpr int kDims = 2;
  constexpr int kBits = 8;
  int failures = 0;
  for (int trial = 0; trial < trials; ++trial) {
    StructuredF0Params params;
    params.n = kDims * kBits;
    params.eps = eps;
    params.delta = delta;
    params.seed = 1000 + trial;
    params.algorithm = StructuredF0Algorithm::kMinimum;

    Rng rng(5000 + trial);
    std::vector<MultiDimRange> stream;
    for (int i = 0; i < ranges; ++i) {
      stream.push_back(MultiDimRange::Random(kDims, kBits, rng));
    }
    StructuredF0 est(params);
    for (const MultiDimRange& range : stream) est.AddRange(range);

    const double direct = est.Estimate();
    Result<StructuredF0> decoded =
        SketchCodec::DecodeStructuredF0(SketchCodec::Encode(est));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_DOUBLE_EQ(decoded.value().Estimate(), direct) << "trial " << trial;

    const double f0 = ExactRangeUnionSize(stream);
    if (std::abs(direct - f0) > eps * f0) ++failures;
  }
  EXPECT_LE(failures, delta * trials)
      << "observed failure rate " << static_cast<double>(failures) / trials
      << " breaks the paper's delta = " << delta << " bound";
}

TEST(F0StatisticalTest, BucketingModerateEpsDelta) {
  RunSetting({F0Algorithm::kBucketing, 0.9, 0.25, 500, 200});
}

TEST(F0StatisticalTest, BucketingTightEpsLooseDelta) {
  RunSetting({F0Algorithm::kBucketing, 0.6, 0.35, 800, 200});
}

TEST(F0StatisticalTest, MinimumModerateEpsDelta) {
  RunSetting({F0Algorithm::kMinimum, 0.9, 0.25, 500, 200});
}

TEST(F0StatisticalTest, MinimumTightEpsLooseDelta) {
  RunSetting({F0Algorithm::kMinimum, 0.7, 0.3, 600, 200});
}

TEST(F0StatisticalTest, EstimationModerateEpsDelta) {
  RunSetting({F0Algorithm::kEstimation, 0.9, 0.25, 500, 200});
}

TEST(F0StatisticalTest, StructuredMinimumRangeStreams) {
  RunRangeSetting(0.9, 0.25, 6, 200);
}

}  // namespace
}  // namespace mcf0
