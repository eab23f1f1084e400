/// \file toeplitz.hpp
/// \brief Toeplitz matrices over GF(2) with Theta(n + m)-bit representation.
///
/// The paper's H_Toeplitz(n, m) family samples h(x) = A x + b with A a
/// uniformly random m x n Toeplitz matrix. A Toeplitz matrix is constant
/// along diagonals, so it is determined by its first row and first column —
/// n + m - 1 bits instead of n*m. This class stores exactly that seed; it
/// is the representation-size contrast the paper draws against H_xor
/// (Theta(n^2) bits when m = n). Products run on the seed words through
/// the carry-less middle product gf2k::ToeplitzAffine (AffineHash's
/// evaluation path), and AffineHash reads rows and columns straight from
/// the seed; this class's rows and dense form are the reference the
/// tests compare against.
#pragma once

#include "gf2/bitvec.hpp"
#include "gf2/gf2_matrix.hpp"

namespace mcf0 {

class Rng;

/// An m x n Toeplitz matrix over GF(2): T[i][j] = seed[i - j + n - 1],
/// where seed has m + n - 1 bits (seed[n-1..0] spans the first row read
/// right-to-left; seed[n-1..n+m-2] runs down the first column).
class ToeplitzMatrix {
 public:
  /// Builds from an explicit diagonal seed of m + n - 1 bits.
  ToeplitzMatrix(int rows, int cols, BitVec seed);

  /// Samples a uniformly random Toeplitz matrix.
  static ToeplitzMatrix Random(int rows, int cols, Rng& rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  bool Get(int i, int j) const {
    MCF0_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return seed_.Get(i - j + cols_ - 1);
  }

  /// Materializes row i as a BitVec of cols() bits: the seed window
  /// [i, i + cols()) read back-to-front.
  BitVec Row(int i) const;

  /// Dense copy (used when the caller needs full linear algebra).
  Gf2Matrix ToDense() const;

  /// Number of bits in the representation: m + n - 1.
  int SeedBits() const { return seed_.size(); }

 private:
  int rows_;
  int cols_;
  BitVec seed_;
};

}  // namespace mcf0
