#include "gf2/toeplitz.hpp"

#include "common/rng.hpp"

namespace mcf0 {

ToeplitzMatrix::ToeplitzMatrix(int rows, int cols, BitVec seed)
    : rows_(rows), cols_(cols), seed_(std::move(seed)) {
  MCF0_CHECK(rows >= 0 && cols >= 0);
  MCF0_CHECK(seed_.size() == rows + cols - 1 || (rows == 0 && cols == 0));
}

ToeplitzMatrix ToeplitzMatrix::Random(int rows, int cols, Rng& rng) {
  return ToeplitzMatrix(rows, cols, BitVec::Random(rows + cols - 1, rng));
}

BitVec ToeplitzMatrix::Row(int i) const {
  MCF0_DCHECK(i >= 0 && i < rows_);
  // row_i[j] = seed[i + cols - 1 - j]: the window [i, i + cols) reversed.
  return seed_.Slice(i, cols_).Reversed();
}

Gf2Matrix ToeplitzMatrix::ToDense() const {
  Gf2Matrix dense(rows_, cols_);
  for (int i = 0; i < rows_; ++i) dense.MutableRow(i) = Row(i);
  return dense;
}

}  // namespace mcf0
