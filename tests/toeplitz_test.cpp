// Tests for the Toeplitz representation: structural (constant diagonals),
// size (Theta(n+m) bits), and equivalence with the dense form.
#include "gf2/toeplitz.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "hash/gf2_kernels.hpp"

namespace mcf0 {
namespace {

TEST(Toeplitz, ConstantDiagonals) {
  Rng rng(3);
  const ToeplitzMatrix t = ToeplitzMatrix::Random(9, 13, rng);
  for (int i = 0; i + 1 < 9; ++i) {
    for (int j = 0; j + 1 < 13; ++j) {
      EXPECT_EQ(t.Get(i, j), t.Get(i + 1, j + 1));
    }
  }
}

TEST(Toeplitz, SeedBitsIsThetaNPlusM) {
  Rng rng(5);
  const ToeplitzMatrix t = ToeplitzMatrix::Random(20, 30, rng);
  EXPECT_EQ(t.SeedBits(), 20 + 30 - 1);
}

TEST(Toeplitz, DeterminedByFirstRowAndColumn) {
  Rng rng(7);
  const ToeplitzMatrix t = ToeplitzMatrix::Random(8, 8, rng);
  const Gf2Matrix dense = t.ToDense();
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      const bool expect = i >= j ? dense.Get(i - j, 0) : dense.Get(0, j - i);
      EXPECT_EQ(dense.Get(i, j), expect);
    }
  }
}

TEST(Toeplitz, MulMatchesDense) {
  // T x from the seed alone (the middle-product kernel, zero offset)
  // equals the dense product.
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const int rows = 1 + static_cast<int>(rng.NextBelow(20));
    const int cols = 1 + static_cast<int>(rng.NextBelow(20));
    const BitVec seed = BitVec::Random(rows + cols - 1, rng);
    const Gf2Matrix dense = ToeplitzMatrix(rows, cols, seed).ToDense();
    const BitVec x = BitVec::Random(cols, rng);
    std::vector<uint64_t> y(1);
    gf2k::ToeplitzAffine(seed.words(), cols, rows, BitVec(rows).words(),
                         x.words(), y);
    EXPECT_EQ(BitVec::FromWords(rows, y), dense.Mul(x));
  }
}

TEST(Toeplitz, RowMatchesDenseRow) {
  Rng rng(13);
  const ToeplitzMatrix t = ToeplitzMatrix::Random(10, 17, rng);
  const Gf2Matrix dense = t.ToDense();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(t.Row(i), dense.Row(i));
}

}  // namespace
}  // namespace mcf0
