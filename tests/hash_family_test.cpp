// Tests for the affine hash families: exact 2-wise independence of
// H_Toeplitz and H_xor over a fully enumerated small family, prefix-slice
// structure, representation sizes, and Eval64 consistency.
#include "hash/hash_family.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gf2/toeplitz.hpp"

namespace mcf0 {
namespace {

/// A as a dense matrix, from the rows the hash reports.
Gf2Matrix RowsOf(const AffineHash& h) {
  std::vector<BitVec> rows;
  for (int i = 0; i < h.m(); ++i) rows.push_back(h.Row(i));
  return Gf2Matrix::FromRows(std::move(rows));
}

TEST(AffineHash, EvalMatchesMatrixForm) {
  Rng rng(3);
  const AffineHash h = AffineHash::SampleXor(12, 7, rng);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec x = BitVec::Random(12, rng);
    EXPECT_EQ(h.Eval(x), RowsOf(h).Mul(x) ^ h.b());
  }
}

TEST(AffineHash, RowsAndColumnsMatchTheDenseMatrixForEveryKind) {
  // Row(i) and Columns() are the only readers of A: a Toeplitz hash
  // answers both from seed windows, a row hash from its stored matrix.
  Rng rng(23);
  for (const auto& [n, m] :
       {std::pair{1, 1}, std::pair{9, 7}, std::pair{32, 96},
        std::pair{64, 192}, std::pair{70, 3}, std::pair{130, 390}}) {
    const AffineHash toeplitz = AffineHash::SampleToeplitz(n, m, rng);
    const Gf2Matrix xor_rows = Gf2Matrix::Random(m, n, rng);
    const Gf2Matrix sparse_rows = Gf2Matrix::RandomSparse(m, n, 0.2, rng);
    const std::pair<AffineHash, Gf2Matrix> cases[] = {
        {toeplitz, ToeplitzMatrix(m, n, toeplitz.ToeplitzSeed()).ToDense()},
        {AffineHash::FromParts(xor_rows, BitVec::Random(m, rng),
                               AffineHashKind::kXor),
         xor_rows},
        {AffineHash::FromParts(sparse_rows, BitVec::Random(m, rng),
                               AffineHashKind::kSparseXor),
         sparse_rows}};
    for (const auto& [h, dense] : cases) {
      const size_t width = static_cast<size_t>(h.OutputWords());
      const std::vector<uint64_t> columns = h.Columns();
      ASSERT_EQ(columns.size(), static_cast<size_t>(n) * width);
      for (int i = 0; i < m; ++i) {
        ASSERT_EQ(h.Row(i), dense.Row(i)) << "n=" << n << " m=" << m;
      }
      for (int j = 0; j < n; ++j) {
        std::vector<uint64_t> want(width);
        for (int i = 0; i < m; ++i) {
          if (dense.Get(i, j)) want[i / 64] |= 1ull << (63 - i % 64);
        }
        ASSERT_TRUE(std::equal(want.begin(), want.end(),
                               columns.begin() + j * width))
            << "n=" << n << " m=" << m << " column " << j;
      }
    }
  }
}

TEST(AffineHash, PrefixSliceIsPrefixOfFullHash) {
  // h_l(x) must equal the first l bits of h(x) — the structural property
  // behind nested Bucketing cells (§2).
  Rng rng(5);
  for (const auto kind : {AffineHashKind::kToeplitz, AffineHashKind::kXor}) {
    const AffineHash h = kind == AffineHashKind::kToeplitz
                             ? AffineHash::SampleToeplitz(16, 16, rng)
                             : AffineHash::SampleXor(16, 16, rng);
    for (int trial = 0; trial < 10; ++trial) {
      const BitVec x = BitVec::Random(16, rng);
      const BitVec full = h.Eval(x);
      for (int l = 0; l <= 16; ++l) {
        EXPECT_EQ(h.EvalPrefix(x, l), full.Prefix(l));
      }
    }
  }
}

TEST(AffineHash, PrefixHashMatchesEvalPrefix) {
  Rng rng(7);
  const AffineHash h = AffineHash::SampleToeplitz(10, 10, rng);
  const AffineHash h3 = h.PrefixHash(3);
  EXPECT_EQ(h3.m(), 3);
  for (int trial = 0; trial < 10; ++trial) {
    const BitVec x = BitVec::Random(10, rng);
    EXPECT_EQ(h3.Eval(x), h.EvalPrefix(x, 3));
  }
}

TEST(AffineHash, Eval64MatchesBitVecPath) {
  Rng rng(11);
  const AffineHash h = AffineHash::SampleXor(16, 9, rng);
  for (int trial = 0; trial < 30; ++trial) {
    const uint64_t x = rng.NextBelow(1u << 16);
    EXPECT_EQ(h.Eval64(x), h.Eval(BitVec::FromU64(x, 16)).ToU64());
  }
}

TEST(AffineHash, RepresentationSizes) {
  // The §2 contrast: Theta(n + m) for Toeplitz vs Theta(n m) for XOR.
  Rng rng(13);
  const AffineHash toeplitz = AffineHash::SampleToeplitz(64, 64, rng);
  const AffineHash dense = AffineHash::SampleXor(64, 64, rng);
  EXPECT_EQ(toeplitz.RepresentationBits(), 64u + 64 - 1 + 64);
  EXPECT_EQ(dense.RepresentationBits(), 64u * 64 + 64);
  EXPECT_LT(toeplitz.RepresentationBits() * 10, dense.RepresentationBits());
}

TEST(AffineHash, ToeplitzMatrixIsToeplitz) {
  Rng rng(17);
  const AffineHash h = AffineHash::SampleToeplitz(9, 7, rng);
  for (int i = 0; i + 1 < 7; ++i) {
    for (int j = 0; j + 1 < 9; ++j) {
      EXPECT_EQ(h.Row(i).Get(j), h.Row(i + 1).Get(j + 1));
    }
  }
}

TEST(AffineHash, SparseDensityControlsRowWeight) {
  Rng rng(19);
  const AffineHash sparse = AffineHash::SampleSparseXor(256, 64, 0.05, rng);
  int total = 0;
  for (int i = 0; i < 64; ++i) total += sparse.Row(i).Popcount();
  // 64 rows x 256 cols x 0.05 ~ 819 expected ones.
  EXPECT_GT(total, 500);
  EXPECT_LT(total, 1200);
}

/// Exhaustively enumerates a family via `sample` over all seed values the
/// sampler consumes, by feeding a counter-seeded Rng. Instead, for exact
/// independence we enumerate the family parameters directly.
template <typename HashFn>
void CheckPairwiseIndependentExact(int n, int m, const HashFn& each_member,
                                   uint64_t family_size) {
  // For fixed distinct x1, x2, each (y1, y2) pair must occur exactly
  // family_size / 2^{2m} times.
  const BitVec x1 = BitVec::FromU64(0b101 & ((1u << n) - 1), n);
  const BitVec x2 = BitVec::FromU64(0b011 & ((1u << n) - 1), n);
  ASSERT_NE(x1, x2);
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> counts;
  each_member([&](const AffineHash& h) {
    counts[{h.Eval(x1).ToU64(), h.Eval(x2).ToU64()}]++;
  });
  const uint64_t expect = family_size >> (2 * m);
  ASSERT_GE(expect, 1u);
  EXPECT_EQ(counts.size(), 1ull << (2 * m));
  for (const auto& [pair, count] : counts) EXPECT_EQ(count, expect);
}

TEST(AffineHash, ToeplitzFamilyIsExactlyPairwiseIndependent) {
  // n = 3, m = 2: seeds have n + m - 1 = 4 bits, offsets 2 bits -> 64
  // members; each output pair must appear 64 / 16 = 4 times.
  const int n = 3;
  const int m = 2;
  CheckPairwiseIndependentExact(
      n, m,
      [&](const auto& visit) {
        for (uint64_t seed = 0; seed < (1u << (n + m - 1)); ++seed) {
          for (uint64_t off = 0; off < (1u << m); ++off) {
            const ToeplitzMatrix t(m, n, BitVec::FromU64(seed, n + m - 1));
            visit(AffineHash::FromParts(t.ToDense(), BitVec::FromU64(off, m),
                                        AffineHashKind::kToeplitz));
          }
        }
      },
      1ull << (n + m - 1 + m));
}

TEST(AffineHash, XorFamilyIsExactlyPairwiseIndependent) {
  // n = 2, m = 2: 2^{nm} matrices x 2^m offsets = 64 members.
  const int n = 2;
  const int m = 2;
  CheckPairwiseIndependentExact(
      n, m,
      [&](const auto& visit) {
        for (uint64_t bits = 0; bits < (1u << (n * m)); ++bits) {
          Gf2Matrix a(m, n);
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
              a.Set(i, j, (bits >> (i * n + j)) & 1);
            }
          }
          for (uint64_t off = 0; off < (1u << m); ++off) {
            visit(AffineHash::FromParts(a, BitVec::FromU64(off, m),
                                        AffineHashKind::kXor));
          }
        }
      },
      1ull << (n * m + m));
}

}  // namespace
}  // namespace mcf0
