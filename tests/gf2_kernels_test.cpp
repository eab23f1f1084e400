// Parity and byte-identity tests for the gf2k kernel layer
// (src/hash/gf2_kernels): the hardware tiers must agree with the
// portable reference bit-for-bit on every field width, the shared-powers
// row kernel with scalar Horner, the Toeplitz middle product and the
// packed affine fast paths with their dense / per-bit references, and a
// sketch built through the span-Add batch surface must encode to exactly
// the bytes of an item-by-item build.
//
// Hardware-tier cases skip with a note when this CPU lacks the tier —
// the CI force-portable leg runs the same binary with
// MCF0_FORCE_PORTABLE=1, so both dispatch outcomes are exercised.
#include "hash/gf2_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "engine/sketch_codec.hpp"
#include "gf2/bitvec.hpp"
#include "gf2/toeplitz.hpp"
#include "hash/gf2_poly.hpp"
#include "hash/hash_family.hpp"
#include "obs/metrics.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {
namespace {

using gf2k::KernelTier;

/// Forces a kernel tier for one test scope, restoring detection on exit.
class ScopedTier {
 public:
  explicit ScopedTier(KernelTier tier) { gf2k::ForceKernelTier(tier); }
  ~ScopedTier() { gf2k::ForceKernelTier(std::nullopt); }
};

/// The hardware tier this CPU offers, if any (portable always works).
std::optional<KernelTier> HardwareTier() {
  if (gf2k::KernelTierAvailable(KernelTier::kClmul)) return KernelTier::kClmul;
  if (gf2k::KernelTierAvailable(KernelTier::kPmull)) return KernelTier::kPmull;
  return std::nullopt;
}

uint64_t WidthMask(int w) { return w == 64 ? ~0ull : ((1ull << w) - 1); }

// ---- dispatch --------------------------------------------------------------

TEST(KernelDispatchTest, DetectedTierIsAvailableAndGaugeReportsIt) {
  const KernelTier detected = gf2k::DetectedKernelTier();
  EXPECT_TRUE(gf2k::KernelTierAvailable(detected));
  EXPECT_EQ(gf2k::ActiveKernelTier(), detected);
  EXPECT_EQ(obs::Registry::Global().GetGauge("mcf0_hash_kernel_tier")->Value(),
            static_cast<int64_t>(detected));
}

TEST(KernelDispatchTest, ForceOverridesActiveTierAndRestores) {
  obs::Gauge* gauge = obs::Registry::Global().GetGauge("mcf0_hash_kernel_tier");
  {
    ScopedTier force(KernelTier::kPortable);
    EXPECT_EQ(gf2k::ActiveKernelTier(), KernelTier::kPortable);
    EXPECT_EQ(gauge->Value(), 0);
  }
  EXPECT_EQ(gf2k::ActiveKernelTier(), gf2k::DetectedKernelTier());
  EXPECT_EQ(gauge->Value(),
            static_cast<int64_t>(gf2k::DetectedKernelTier()));
}

TEST(KernelDispatchTest, TierNamesAreStable) {
  EXPECT_STREQ(gf2k::KernelTierName(KernelTier::kPortable), "portable");
  EXPECT_STREQ(gf2k::KernelTierName(KernelTier::kClmul), "clmul");
  EXPECT_STREQ(gf2k::KernelTierName(KernelTier::kPmull), "pmull");
}

// ---- scalar/SIMD parity ----------------------------------------------------

TEST(KernelParityTest, CarrylessMulMatchesPortable) {
  const auto hw = HardwareTier();
  if (!hw.has_value()) {
    GTEST_SKIP() << "no hardware carry-less multiply tier on this CPU; "
                    "portable tier is the reference and trivially agrees";
  }
  Rng rng(2024);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t a = rng.NextU64();
    const uint64_t b = rng.NextU64();
    const auto soft = gf2k::CarrylessMulWithTier(KernelTier::kPortable, a, b);
    const auto hard = gf2k::CarrylessMulWithTier(*hw, a, b);
    ASSERT_EQ(soft.hi, hard.hi) << "a=" << a << " b=" << b;
    ASSERT_EQ(soft.lo, hard.lo) << "a=" << a << " b=" << b;
  }
}

TEST(KernelParityTest, MulMatchesPortableForEveryWidth) {
  const auto hw = HardwareTier();
  if (!hw.has_value()) {
    GTEST_SKIP() << "no hardware carry-less multiply tier on this CPU";
  }
  Rng rng(2025);
  for (int w = 1; w <= 64; ++w) {
    const Gf2Field field(w);
    const uint64_t mask = WidthMask(w);
    for (int i = 0; i < 300; ++i) {
      const uint64_t a = rng.NextU64() & mask;
      const uint64_t b = rng.NextU64() & mask;
      const uint64_t soft = gf2k::MulWithTier(KernelTier::kPortable, a, b, w,
                                              field.modulus_low());
      const uint64_t hard =
          gf2k::MulWithTier(*hw, a, b, w, field.modulus_low());
      ASSERT_EQ(soft, hard) << "w=" << w << " a=" << a << " b=" << b;
      ASSERT_EQ(soft, field.Mul(a, b)) << "w=" << w;
    }
  }
}

TEST(KernelParityTest, HornerBatchMatchesScalarEvalForEveryWidth) {
  // EvalBatch must equal s-1 scalar Horner steps per element, bit for
  // bit, on every available tier and every field width.
  Rng rng(2026);
  for (int w = 1; w <= 64; ++w) {
    const Gf2Field field(w);
    const PolynomialHash hash = PolynomialHash::Sample(&field, 5, rng);
    std::vector<uint64_t> xs(97);
    for (auto& x : xs) x = rng.NextU64();
    std::vector<uint64_t> want(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) want[i] = hash.Eval(xs[i]);

    for (const KernelTier tier :
         {KernelTier::kPortable, KernelTier::kClmul, KernelTier::kPmull}) {
      if (!gf2k::KernelTierAvailable(tier)) continue;
      ScopedTier force(tier);
      std::vector<uint64_t> got(xs.size());
      hash.EvalBatch(xs, got);
      ASSERT_EQ(got, want) << "w=" << w << " tier="
                           << gf2k::KernelTierName(tier);
    }
  }
}

TEST(KernelParityTest, SharedPowersBatchMatchesScalarEvalOnEveryTier) {
  // The Estimation row kernel: every column of a block evaluated on the
  // points' shared powers with one Barrett reduction must equal scalar
  // Horner (PolynomialHash::Eval) bit for bit, for every field width and
  // independence degree, on 1, 3 and a row's 150 columns and on blocks of
  // 1, 255, 256, 257 and 1,000 points. Every (w, s) runs every block with
  // 1 and 3 columns; 150 columns take one block size per (w, s), in
  // rotation, so each (columns, block) pair meets about 77 of the 384
  // (w, s) pairs and the test stays quick under the sanitizers.
  Rng rng(2027);
  constexpr size_t kWideCols = 150;
  constexpr std::array<size_t, 5> kBlocks = {1, 255, 256, 257, 1000};
  std::vector<uint64_t> xs(kBlocks.back());
  for (auto& x : xs) x = rng.NextU64();  // high bits ignored by the mask
  size_t rotation = 0;
  for (int w = 1; w <= 64; ++w) {
    const Gf2Field& field = Gf2Field::Of(w);
    for (const int s : {1, 2, 3, 4, 5, 8}) {
      std::vector<PolynomialHash> hashes;
      std::vector<const uint64_t*> polys;
      for (size_t j = 0; j < kWideCols; ++j) {
        hashes.push_back(PolynomialHash::Sample(&field, s, rng));
      }
      for (const PolynomialHash& h : hashes) polys.push_back(h.coeffs().data());
      const size_t wide_block = kBlocks[rotation++ % kBlocks.size()];
      std::vector<std::pair<size_t, size_t>> shapes;  // (columns, points)
      for (const size_t points : kBlocks) {
        shapes.emplace_back(1, points);
        shapes.emplace_back(3, points);
      }
      shapes.emplace_back(kWideCols, wide_block);
      // want[i * kWideCols + j] = hashes[j].Eval(xs[i]) wherever a shape
      // reads it: 3 columns on every point, all columns on wide_block.
      std::vector<uint64_t> want(xs.size() * kWideCols);
      for (size_t i = 0; i < xs.size(); ++i) {
        const size_t cols = i < wide_block ? kWideCols : 3;
        for (size_t j = 0; j < cols; ++j) {
          want[i * kWideCols + j] = hashes[j].Eval(xs[i]);
        }
      }
      for (const KernelTier tier :
           {KernelTier::kPortable, KernelTier::kClmul, KernelTier::kPmull}) {
        if (!gf2k::KernelTierAvailable(tier)) continue;
        ScopedTier force(tier);
        for (const auto& [cols, points] : shapes) {
          std::vector<uint64_t> got(points * cols);
          gf2k::SharedPowersBatch(std::span(polys).first(cols), s,
                                  std::span<const uint64_t>(xs).first(points),
                                  got, w, field.modulus_low(),
                                  field.barrett_mu_low());
          for (size_t i = 0; i < points; ++i) {
            for (size_t j = 0; j < cols; ++j) {
              if (got[i * cols + j] == want[i * kWideCols + j]) continue;
              FAIL() << "w=" << w << " s=" << s << " cols=" << cols
                     << " points=" << points << " i=" << i << " j=" << j
                     << " tier=" << gf2k::KernelTierName(tier) << ": got "
                     << got[i * cols + j] << ", Eval gives "
                     << want[i * kWideCols + j];
            }
          }
        }
      }
    }
  }
}

// ---- packed Toeplitz -------------------------------------------------------

TEST(PackedToeplitzTest, RowMatchesGetReference) {
  Rng rng(31);
  for (const auto& [m, n] : {std::pair{1, 1}, {3, 7}, {24, 24}, {64, 64},
                            {70, 129}, {129, 70}, {200, 3}}) {
    const ToeplitzMatrix t = ToeplitzMatrix::Random(m, n, rng);
    for (int i = 0; i < m; ++i) {
      const BitVec row = t.Row(i);
      ASSERT_EQ(row.size(), n);
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(row.Get(j), t.Get(i, j)) << "m=" << m << " n=" << n
                                           << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(PackedToeplitzTest, MulMatchesRowDotReference) {
  // The middle-product kernel with a zero offset is T x.
  Rng rng(32);
  for (const auto& [m, n] : {std::pair{1, 1}, {5, 9}, {24, 24}, {64, 64},
                            {100, 131}, {131, 100}}) {
    const BitVec seed = BitVec::Random(m + n - 1, rng);
    const ToeplitzMatrix t(m, n, seed);
    const BitVec zero(m);
    for (int trial = 0; trial < 8; ++trial) {
      const BitVec x = BitVec::Random(n, rng);
      std::vector<uint64_t> words(static_cast<size_t>(m + 63) / 64);
      gf2k::ToeplitzAffine(seed.words(), n, m, zero.words(), x.words(),
                           words);
      const BitVec y = BitVec::FromWords(m, words);
      ASSERT_EQ(y.size(), m);
      for (int i = 0; i < m; ++i) {
        bool acc = false;
        for (int j = 0; j < n; ++j) acc ^= t.Get(i, j) && x.Get(j);
        ASSERT_EQ(y.Get(i), acc) << "m=" << m << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(PackedToeplitzTest, SliceMatchesPerBitReference) {
  Rng rng(33);
  const BitVec v = BitVec::Random(301, rng);
  for (const auto& [start, len] :
       {std::pair{0, 301}, {0, 0}, {63, 64}, {64, 64}, {65, 1}, {130, 171},
        {300, 1}, {17, 99}}) {
    const BitVec s = v.Slice(start, len);
    ASSERT_EQ(s.size(), len);
    for (int i = 0; i < len; ++i) {
      ASSERT_EQ(s.Get(i), v.Get(start + i)) << "start=" << start
                                            << " len=" << len << " i=" << i;
    }
  }
}

// ---- Toeplitz middle product -----------------------------------------------

TEST(ToeplitzKernelTest, EveryEvalPathMatchesTheDenseProductOnEveryTier) {
  // The middle product on the seed against the dense m x n product A x + b,
  // for every n in 1..64 with m in {1, n, 3n, 192} and for wide inputs
  // n in {65, 128, 200} with m = 3n (plus one-word inputs with m = 300,
  // five output words). The kernel and EvalBatch (where the word universe
  // allows it) run batches of 1, 255, 256 and 257 inputs, straddling
  // EvalBatch's 256-input pack; Eval, EvalPrefix, Eval64 and Bucketing's
  // InCell run on the first inputs.
  std::vector<std::pair<int, int>> shapes;
  for (int n = 1; n <= 64; ++n) {
    for (const int m : {1, n, 3 * n, 192}) shapes.emplace_back(n, m);
  }
  for (const int n : {65, 128, 200}) shapes.emplace_back(n, 3 * n);
  shapes.emplace_back(12, 300);
  shapes.emplace_back(64, 300);
  // The list reaches both compile-time (seed words, output words) shapes,
  // (1, 1) (e.g. n = m = 32) and (2, 2) (e.g. n = 32, m = 96), their
  // neighbours (n = m = 33 is (2, 1)) and the runtime geometry.
  constexpr std::array<size_t, 4> kBatches = {1, 255, 256, 257};
  constexpr size_t kScalarChecks = 5;
  Rng rng(41);
  for (const auto& [n, m] : shapes) {
    const AffineHash h = AffineHash::SampleToeplitz(n, m, rng);
    const Gf2Matrix dense = ToeplitzMatrix(m, n, h.ToeplitzSeed()).ToDense();
    const size_t wx = static_cast<size_t>(n + 63) / 64;
    const size_t wy = static_cast<size_t>(h.OutputWords());
    std::vector<BitVec> xs;
    std::vector<BitVec> wants;
    for (const size_t batch : kBatches) {
      for (size_t t = 0; t < batch; ++t) {
        xs.push_back(BitVec::Random(n, rng));
        wants.push_back(dense.MulAffine(xs.back(), h.b()));
      }
    }
    for (const KernelTier tier :
         {KernelTier::kPortable, KernelTier::kClmul, KernelTier::kPmull}) {
      if (!gf2k::KernelTierAvailable(tier)) continue;
      ScopedTier force(tier);
      const std::string where = "n=" + std::to_string(n) +
                                " m=" + std::to_string(m) +
                                " tier=" + gf2k::KernelTierName(tier);
      const auto output = [&](const std::vector<uint64_t>& ys, size_t t) {
        return BitVec::FromWords(
            m, std::vector<uint64_t>(ys.begin() + t * wy,
                                     ys.begin() + (t + 1) * wy));
      };
      size_t first = 0;
      for (const size_t batch : kBatches) {
        std::vector<uint64_t> x_words;
        std::vector<uint64_t> x_u64;
        for (size_t t = first; t < first + batch; ++t) {
          x_words.insert(x_words.end(), xs[t].words().begin(),
                         xs[t].words().end());
          if (wx == 1) x_u64.push_back(xs[t].ToU64());
        }
        std::vector<uint64_t> ys(batch * wy);
        gf2k::ToeplitzAffine(h.ToeplitzSeed().words(), n, m, h.b().words(),
                             x_words, ys);
        std::vector<uint64_t> evals(wx == 1 ? batch * wy : 0);
        if (wx == 1) h.EvalBatch(x_u64, evals);
        for (size_t t = 0; t < batch; ++t) {
          ASSERT_EQ(output(ys, t), wants[first + t])
              << where << " batch=" << batch << " input=" << t;
          if (wx != 1) continue;
          ASSERT_EQ(output(evals, t), wants[first + t])
              << where << " EvalBatch batch=" << batch << " input=" << t;
        }
        first += batch;
      }
      for (size_t t = 0; t < kScalarChecks; ++t) {
        const BitVec& x = xs[t];
        const BitVec& want = wants[t];
        ASSERT_EQ(h.Eval(x), want) << where;
        for (const int l : {0, 1, m / 2, m}) {
          ASSERT_EQ(h.EvalPrefix(x, l), want.Prefix(l)) << where << " l=" << l;
        }
        if (wx != 1) continue;
        const uint64_t word = x.ToU64();
        if (m <= 64) {
          ASSERT_EQ(h.Eval64(word), want.ToU64()) << where;
        }
        if (m == n) {
          const BucketingSketchRow row(h, 1, 0, {});
          for (int level = 0; level <= n; ++level) {
            ASSERT_EQ(row.InCell(word, level), want.Prefix(level).IsZero())
                << where << " level=" << level;
          }
        }
      }
    }
  }
}

// ---- packed affine apply ---------------------------------------------------

TEST(PackedAffineTest, Eval64MatchesBitVecEval) {
  Rng rng(34);
  for (const auto& [n, m] : {std::pair{1, 1}, {8, 8}, {24, 24}, {24, 3},
                            {64, 64}, {33, 17}}) {
    const AffineHash h = AffineHash::SampleXor(n, m, rng);
    for (int trial = 0; trial < 64; ++trial) {
      const uint64_t x = rng.NextU64() & WidthMask(n);
      const uint64_t want = h.Eval(BitVec::FromU64(x, n)).ToU64();
      ASSERT_EQ(h.Eval64(x), want) << "n=" << n << " m=" << m << " x=" << x;
    }
  }
}

TEST(PackedAffineTest, EvalPrefixMatchesRowDotReference) {
  Rng rng(35);
  const AffineHash h = AffineHash::SampleToeplitz(24, 24, rng);
  const Gf2Matrix a = ToeplitzMatrix(24, 24, h.ToeplitzSeed()).ToDense();
  for (int trial = 0; trial < 32; ++trial) {
    const BitVec x = BitVec::Random(24, rng);
    for (int l = 0; l <= 24; ++l) {
      const BitVec y = h.EvalPrefix(x, l);
      ASSERT_EQ(y.size(), l);
      for (int i = 0; i < l; ++i) {
        const bool want = (a.Row(i).DotF2(x) != h.b().Get(i));
        ASSERT_EQ(y.Get(i), want) << "l=" << l << " i=" << i;
      }
    }
  }
}

// ---- byte identity ---------------------------------------------------------

F0Params KernelTestParams(F0Algorithm algorithm) {
  F0Params params;
  params.n = 24;
  params.eps = 0.8;
  params.delta = 0.2;
  params.algorithm = algorithm;
  params.seed = 99;
  params.thresh_override = 20;
  params.rows_override = 5;
  params.s_override = 4;
  return params;
}

/// Builds `params` from `xs` in sub-batches whose lengths cycle through
/// `chunks`.
F0Estimator ChunkedBuild(const F0Params& params,
                         const std::vector<uint64_t>& xs,
                         std::span<const size_t> chunks) {
  F0Estimator est(params);
  for (size_t i = 0, k = 0; i < xs.size(); ++k) {
    const size_t len = std::min(chunks[k % chunks.size()], xs.size() - i);
    est.Add(std::span<const uint64_t>(xs.data() + i, len));
    i += len;
  }
  return est;
}

/// A sketch built via span-Add on every available tier, whole and in
/// sub-batches, must encode to exactly the bytes of an item-by-item build
/// on the portable tier, which is returned. One set of sub-batches grows
/// through odd sizes; the other straddles EvalBatch's 256-element pack
/// and the rows' stack blocks.
F0Estimator ExpectSpanAddEqualsItemAdd(const F0Params& params,
                                       const std::vector<uint64_t>& xs) {
  const std::string where =
      "algorithm=" + std::to_string(static_cast<int>(params.algorithm)) +
      " n=" + std::to_string(params.n) +
      " thresh=" + std::to_string(params.thresh_override) +
      " s=" + std::to_string(params.s_override);
  std::optional<F0Estimator> scalar;
  {
    ScopedTier force(KernelTier::kPortable);
    scalar.emplace(params);
    for (const uint64_t x : xs) scalar->Add(x);
  }
  const std::string reference = SketchCodec::Encode(*scalar);

  constexpr std::array<size_t, 8> kOdd = {3, 7, 15, 31, 63, 127, 255, 511};
  constexpr std::array<size_t, 4> kStraddling = {255, 256, 257, 513};
  for (const KernelTier tier :
       {KernelTier::kPortable, KernelTier::kClmul, KernelTier::kPmull}) {
    if (!gf2k::KernelTierAvailable(tier)) continue;
    ScopedTier force(tier);
    F0Estimator batched(params);
    batched.Add(std::span<const uint64_t>(xs));
    EXPECT_EQ(SketchCodec::Encode(batched), reference)
        << where << " tier=" << gf2k::KernelTierName(tier);
    EXPECT_EQ(SketchCodec::Encode(ChunkedBuild(params, xs, kOdd)), reference)
        << where << " odd sub-batches, tier=" << gf2k::KernelTierName(tier);
    EXPECT_EQ(SketchCodec::Encode(ChunkedBuild(params, xs, kStraddling)),
              reference)
        << where << " block-straddling sub-batches, tier="
        << gf2k::KernelTierName(tier);
  }
  return *std::move(scalar);
}

TEST(SpanAddByteIdentityTest, SpanAddEqualsItemAddOnEveryTierAndAlgorithm) {
  // The pin behind every batch surface: kernels and batching change the
  // implementation of the arithmetic, never its results.
  Rng rng(36);
  std::vector<uint64_t> xs(4000);
  for (auto& x : xs) x = rng.NextBelow(700);

  for (const F0Algorithm algorithm :
       {F0Algorithm::kBucketing, F0Algorithm::kMinimum,
        F0Algorithm::kEstimation}) {
    ExpectSpanAddEqualsItemAdd(KernelTestParams(algorithm), xs);
  }

  // Every sketch across universe widths on full-width words (n = 64 has
  // no high bits to drop). Estimation's shared-powers kernel runs
  // independence degrees s = 1 (a constant hash) to 7 (n = 64 has the
  // implicit x^64 Barrett term). Bucketing and Minimum run Thresh 1 and
  // 3, so escalations land mid-block and at n = 1 a row reaches level n.
  std::vector<uint64_t> words(1500);
  for (auto& x : words) x = rng.NextU64();
  bool level_n_reached = false;
  for (const int n : {1, 31, 32, 33, 63, 64}) {
    for (const int s : {1, 2, 7}) {
      F0Params params = KernelTestParams(F0Algorithm::kEstimation);
      params.n = n;
      params.s_override = s;
      ExpectSpanAddEqualsItemAdd(params, words);
    }
    for (const F0Algorithm algorithm :
         {F0Algorithm::kBucketing, F0Algorithm::kMinimum}) {
      for (const uint64_t thresh : {1, 3}) {
        F0Params params = KernelTestParams(algorithm);
        params.n = n;
        params.thresh_override = thresh;
        const F0Estimator scalar = ExpectSpanAddEqualsItemAdd(params, words);
        for (const BucketingSketchRow& row : scalar.bucketing_rows()) {
          level_n_reached |= row.level() == n;
        }
      }
    }
  }
  EXPECT_TRUE(level_n_reached);
}

}  // namespace
}  // namespace mcf0
