// Tests for the structured-set streaming layer (§5): the Lemma 4 range ->
// DNF decomposition is verified point-by-point against range membership;
// the StructuredF0 estimators (both strategies) are checked against exact
// union sizes for DNF sets, ranges, arithmetic progressions, affine
// spaces, and singleton elements.
#include "setstream/structured_f0.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "core/exact_count.hpp"
#include "formula/random_gen.hpp"
#include "setstream/exact_union.hpp"
#include "setstream/range_to_dnf.hpp"

namespace mcf0 {
namespace {

TEST(RangeDimensionTerms, CoversExactlyTheRange) {
  Rng rng(3);
  const int nbits = 10;
  for (int trial = 0; trial < 40; ++trial) {
    uint64_t a = rng.NextBelow(1u << nbits);
    uint64_t b = rng.NextBelow(1u << nbits);
    if (a > b) std::swap(a, b);
    const auto terms = RangeDimensionTerms(a, b, 0, nbits, 0);
    EXPECT_LE(terms.size(), 2u * nbits);  // Lemma 4 size bound
    for (uint64_t v = 0; v < (1u << nbits); ++v) {
      const BitVec x = BitVec::FromU64(v, nbits);
      int hits = 0;
      for (const Term& t : terms) hits += t.Eval(x);
      const bool in_range = a <= v && v <= b;
      EXPECT_EQ(hits > 0, in_range) << "v=" << v;
      EXPECT_LE(hits, 1) << "dyadic pieces must be disjoint";
    }
  }
}

TEST(RangeDimensionTerms, FullAndSingletonRanges) {
  // Full range: one empty term. Singleton: one fully fixed term.
  const auto full = RangeDimensionTerms(0, 255, 0, 8, 0);
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0].Width(), 0);
  const auto single = RangeDimensionTerms(77, 77, 0, 8, 0);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].Width(), 8);
}

TEST(RangeDimensionTerms, ArithmeticProgressionMembership) {
  // [a, b, 2^l]: x in [a, b] and x = a (mod 2^l) — Corollary 1.
  Rng rng(5);
  const int nbits = 9;
  for (int trial = 0; trial < 30; ++trial) {
    uint64_t a = rng.NextBelow(1u << nbits);
    uint64_t b = rng.NextBelow(1u << nbits);
    if (a > b) std::swap(a, b);
    const int l = 1 + static_cast<int>(rng.NextBelow(4));
    const auto terms = RangeDimensionTerms(a, b, l, nbits, 0);
    const uint64_t mask = (1ull << l) - 1;
    for (uint64_t v = 0; v < (1u << nbits); ++v) {
      const BitVec x = BitVec::FromU64(v, nbits);
      bool covered = false;
      for (const Term& t : terms) covered = covered || t.Eval(x);
      const bool expect = a <= v && v <= b && (v & mask) == (a & mask);
      EXPECT_EQ(covered, expect) << "v=" << v << " l=" << l;
    }
  }
}

TEST(RangeToDnf, MultiDimMembershipMatches) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const int bits = 4;
    const int d = 2;
    const MultiDimRange range = MultiDimRange::Random(d, bits, rng);
    const Dnf dnf = RangeToDnf(range);
    EXPECT_EQ(dnf.num_vars(), d * bits);
    for (uint64_t v = 0; v < (1u << (d * bits)); ++v) {
      const BitVec x = BitVec::FromU64(v, d * bits);
      // Variable layout: dim 0 occupies the leading bits.
      const std::vector<uint64_t> point = {v >> bits, v & ((1u << bits) - 1)};
      EXPECT_EQ(dnf.Eval(x), range.Contains(point)) << v;
    }
  }
}

TEST(RangeTermEnumerator, ProductCountAndConsistency) {
  Rng rng(11);
  const MultiDimRange range = MultiDimRange::Random(3, 6, rng);
  const RangeTermEnumerator terms(range);
  EXPECT_EQ(terms.num_vars(), 18);
  const auto all = terms.AllTerms();
  EXPECT_EQ(all.size(), terms.NumTerms());
  EXPECT_LE(all.size(), static_cast<uint64_t>(12 * 12 * 12));  // (2n)^d
  for (uint64_t i = 0; i < terms.NumTerms(); ++i) {
    EXPECT_EQ(terms.TermAt(i), all[i]);
  }
}

TEST(RangeTermEnumerator, NumTermsSaturatesInsteadOfWrapping) {
  // Ten 62-bit dimensions of [1, 2^62 - 2] have 122 dyadic pieces each:
  // 122^10 ~ 7.3e20 terms, past 2^64. The count saturates (it used to
  // wrap to 1.1e19), and so does the literal bound built on it.
  MultiDimRange range(10, 62);
  for (int j = 0; j < 10; ++j) {
    range.SetDim(j, DimRange{1, (uint64_t{1} << 62) - 2, 0});
  }
  const RangeTermEnumerator terms(range);
  EXPECT_EQ(terms.NumTerms(), UINT64_MAX);
  EXPECT_EQ(terms.LiteralBound(), UINT64_MAX);

  MultiDimRange two(2, 62);
  for (int j = 0; j < 2; ++j) {
    two.SetDim(j, DimRange{1, (uint64_t{1} << 62) - 2, 0});
  }
  EXPECT_EQ(RangeTermEnumerator(two).NumTerms(), 122u * 122u);
  EXPECT_LE(RangeTermEnumerator(two).LiteralBound(),
            kMaxRangeExpansionLiterals);
}

TEST(MultiDimRange, VolumeAndContains) {
  MultiDimRange r(2, 8);
  r.SetDim(0, DimRange{10, 20, 0});
  r.SetDim(1, DimRange{0, 255, 0});
  EXPECT_DOUBLE_EQ(r.Volume(), 11.0 * 256.0);
  EXPECT_TRUE(r.Contains({15, 100}));
  EXPECT_FALSE(r.Contains({9, 100}));
  r.SetDim(1, DimRange{4, 40, 3});  // step 8: 4, 12, 20, 28, 36
  EXPECT_DOUBLE_EQ(r.Volume(), 11.0 * 5.0);
  EXPECT_TRUE(r.Contains({15, 12}));
  EXPECT_FALSE(r.Contains({15, 13}));
}

TEST(ExactRangeUnion, MatchesEnumerationSmall) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const int bits = 5;
    std::vector<MultiDimRange> ranges;
    for (int i = 0; i < 4; ++i) {
      ranges.push_back(MultiDimRange::Random(2, bits, rng));
    }
    // Brute force over the 2^10 grid.
    uint64_t expect = 0;
    for (uint64_t a = 0; a < (1u << bits); ++a) {
      for (uint64_t b = 0; b < (1u << bits); ++b) {
        for (const auto& r : ranges) {
          if (r.Contains({a, b})) {
            ++expect;
            break;
          }
        }
      }
    }
    EXPECT_DOUBLE_EQ(ExactRangeUnionSize(ranges), static_cast<double>(expect));
  }
}

StructuredF0Params FastParams(int n, StructuredF0Algorithm alg, uint64_t seed) {
  StructuredF0Params p;
  p.n = n;
  p.eps = 0.6;
  p.delta = 0.2;
  p.rows_override = 15;
  p.seed = seed;
  p.algorithm = alg;
  return p;
}

class StructuredBothStrategies
    : public ::testing::TestWithParam<StructuredF0Algorithm> {};

TEST_P(StructuredBothStrategies, DnfStreamMatchesExactUnion) {
  Rng rng(17);
  const int n = 14;
  std::vector<Dnf> stream;
  for (int i = 0; i < 6; ++i) stream.push_back(RandomDnf(n, 3, 2, 6, rng));
  const double exact =
      static_cast<double>(ExactDnfUnionSize(stream, n));
  StructuredF0 est(FastParams(n, GetParam(), 23));
  for (const Dnf& d : stream) est.AddDnf(d);
  EXPECT_GE(est.Estimate(), exact / 2.3);
  EXPECT_LE(est.Estimate(), exact * 2.3);
}

TEST_P(StructuredBothStrategies, RangeStreamMatchesExactUnion) {
  Rng rng(19);
  const int bits = 7;
  const int d = 2;
  std::vector<MultiDimRange> ranges;
  for (int i = 0; i < 8; ++i) {
    ranges.push_back(MultiDimRange::Random(d, bits, rng));
  }
  const double exact = ExactRangeUnionSize(ranges);
  StructuredF0 est(FastParams(d * bits, GetParam(), 29));
  for (const auto& r : ranges) est.AddRange(r);
  EXPECT_GE(est.Estimate(), exact / 2.3);
  EXPECT_LE(est.Estimate(), exact * 2.3);
}

TEST_P(StructuredBothStrategies, AffineStreamMatchesExactUnion) {
  Rng rng(23);
  const int n = 14;
  std::vector<std::pair<Gf2Matrix, BitVec>> systems;
  for (int i = 0; i < 5; ++i) {
    const int rows = 3 + static_cast<int>(rng.NextBelow(4));
    systems.emplace_back(Gf2Matrix::Random(rows, n, rng),
                         BitVec::Random(rows, rng));
  }
  const double exact =
      static_cast<double>(ExactAffineUnionSize(systems, n));
  StructuredF0 est(FastParams(n, GetParam(), 31));
  for (const auto& [a, b] : systems) est.AddAffine(a, b);
  EXPECT_GE(est.Estimate(), exact / 2.3);
  EXPECT_LE(est.Estimate(), exact * 2.3);
}

TEST_P(StructuredBothStrategies, SingletonElementsActAsClassicStream) {
  Rng rng(29);
  const int n = 16;
  std::set<uint64_t> distinct;
  StructuredF0 est(FastParams(n, GetParam(), 37));
  for (int i = 0; i < 800; ++i) {
    const uint64_t v = rng.NextBelow(500);
    distinct.insert(v);
    est.AddElement(BitVec::FromU64(v, n));
  }
  const double exact = static_cast<double>(distinct.size());
  EXPECT_GE(est.Estimate(), exact / 2.3);
  EXPECT_LE(est.Estimate(), exact * 2.3);
}

TEST_P(StructuredBothStrategies, MixedItemTypesCompose) {
  // DNFs, ranges (as terms over the same universe), affine spaces, and
  // elements all contribute to one union.
  Rng rng(31);
  const int n = 12;
  StructuredF0 est(FastParams(n, GetParam(), 41));
  std::set<BitVec> exact;
  // A DNF item.
  const Dnf dnf = RandomDnf(n, 2, 3, 5, rng);
  est.AddDnf(dnf);
  // An affine item.
  const Gf2Matrix a = Gf2Matrix::Random(5, n, rng);
  const BitVec b = BitVec::Random(5, rng);
  est.AddAffine(a, b);
  // Elements.
  for (int i = 0; i < 20; ++i) {
    const BitVec x = BitVec::Random(n, rng);
    est.AddElement(x);
    exact.insert(x);
  }
  BitVec x(n);
  for (uint64_t v = 0; v < (1u << n); ++v) {
    if (dnf.Eval(x) || (a.Mul(x) ^ b).IsZero()) exact.insert(x);
    x.Increment();
  }
  const double expect = static_cast<double>(exact.size());
  EXPECT_GE(est.Estimate(), expect / 2.3);
  EXPECT_LE(est.Estimate(), expect * 2.3);
}

INSTANTIATE_TEST_SUITE_P(Strategies, StructuredBothStrategies,
                         ::testing::Values(StructuredF0Algorithm::kMinimum,
                                           StructuredF0Algorithm::kBucketing),
                         [](const auto& info) {
                           return info.param == StructuredF0Algorithm::kMinimum
                                      ? "Minimum"
                                      : "Bucketing";
                         });

TEST(StructuredF0, ArithmeticProgressionStream) {
  // Corollary 1: progressions with power-of-two steps; exact count by
  // enumeration of the small universe.
  Rng rng(37);
  const int bits = 10;
  std::vector<MultiDimRange> aps;
  for (int i = 0; i < 6; ++i) {
    MultiDimRange r(1, bits);
    uint64_t a = rng.NextBelow(1u << bits);
    uint64_t b = rng.NextBelow(1u << bits);
    if (a > b) std::swap(a, b);
    r.SetDim(0, DimRange{a, b, static_cast<int>(rng.NextBelow(3))});
    aps.push_back(r);
  }
  uint64_t exact = 0;
  for (uint64_t v = 0; v < (1u << bits); ++v) {
    for (const auto& r : aps) {
      if (r.Contains({v})) {
        ++exact;
        break;
      }
    }
  }
  StructuredF0 est(FastParams(bits, StructuredF0Algorithm::kMinimum, 43));
  for (const auto& r : aps) est.AddRange(r);
  EXPECT_GE(est.Estimate(), static_cast<double>(exact) / 2.3);
  EXPECT_LE(est.Estimate(), static_cast<double>(exact) * 2.3);
}

TEST(StructuredF0, EmptyStreamIsZero) {
  StructuredF0 est(FastParams(10, StructuredF0Algorithm::kMinimum, 1));
  EXPECT_EQ(est.Estimate(), 0.0);
}

TEST(StructuredF0, SmallUnionsAreExactUnderMinimum) {
  // Union smaller than Thresh: the KMV sketch is exact (3n-bit hashes).
  StructuredF0Params p = FastParams(12, StructuredF0Algorithm::kMinimum, 3);
  StructuredF0 est(p);
  Dnf dnf(12);
  dnf.AddTerm(*Term::Make({Lit(0, false), Lit(1, false), Lit(2, false),
                           Lit(3, false), Lit(4, false), Lit(5, false)}));
  est.AddDnf(dnf);  // 2^6 = 64 solutions < Thresh
  EXPECT_DOUBLE_EQ(est.Estimate(), 64.0);
}

TEST(StructuredF0, SpaceBitsBounded) {
  StructuredF0 est(FastParams(16, StructuredF0Algorithm::kMinimum, 5));
  Rng rng(41);
  for (int i = 0; i < 5; ++i) est.AddDnf(RandomDnf(16, 4, 2, 5, rng));
  EXPECT_GT(est.SpaceBits(), 0u);
  // Thresh values of 3n bits per row plus hash seeds.
  const size_t bound =
      static_cast<size_t>(est.rows()) *
      (est.thresh() * 48 + 3 * (16 + 48) + 128);
  EXPECT_LE(est.SpaceBits(), bound);
}

}  // namespace
}  // namespace mcf0
