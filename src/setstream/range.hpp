/// \file range.hpp
/// \brief Multidimensional ranges and arithmetic progressions (§5).
///
/// A d-dimensional range [a_1, b_1] x ... x [a_d, b_d] over per-dimension
/// universes [0, 2^{n_j}) is the succinct stream item of Theorem 6; an
/// arithmetic progression [a, b, 2^l] (Corollary 1) additionally fixes the
/// low l bits. Coordinates are 0-based (the paper's [1, 2^n] ranges shift
/// by one).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace mcf0 {

class Rng;

/// Widest dimension a range item may have, in bits. Every consumer
/// (MultiDimRange, RangeDimensionTerms, the CLI range parser, the serve
/// protocol's item decoder) enforces this one bound, so an input that is
/// too wide is refused where it is parsed instead of aborting later.
inline constexpr int kMaxRangeDimensionBits = 62;

/// Most literals one range item may expand to under Lemma 4, bounded as
/// its term count times its total bits (RangeTermEnumerator::
/// LiteralBound). A d-dimensional item expands to the product of its
/// per-dimension dyadic piece counts, up to 2 (bits - 1) each, so width
/// alone does not bound it. 2^22 literals is about 32 MiB of Lit: it
/// admits every 2-D range of 62-bit dimensions (at most 14,884 terms) and
/// refuses 3-D ones (up to 1.8e6 terms). The serve protocol's item decoder
/// and the CLI range reader refuse a larger item where it is parsed;
/// StructuredF0::AddRange asserts the bound.
inline constexpr uint64_t kMaxRangeExpansionLiterals = uint64_t{1} << 22;

/// One dimension: the inclusive range [lo, hi] with a power-of-two step.
struct DimRange {
  uint64_t lo = 0;
  uint64_t hi = 0;
  int log2_step = 0;  ///< 0 for plain ranges; l for step 2^l (Corollary 1)
};

/// A d-dimensional range / arithmetic progression over mixed-width
/// coordinates. Dimension j has bits()[j]-bit coordinates.
class MultiDimRange {
 public:
  /// Uniform width: every dimension has `bits_per_dim`-bit coordinates.
  MultiDimRange(int dims, int bits_per_dim);

  /// Mixed widths (used by the weighted-#DNF reduction, §5).
  explicit MultiDimRange(std::vector<int> bits_per_dim);

  int dims() const { return static_cast<int>(bits_.size()); }
  const std::vector<int>& bits() const { return bits_; }
  /// Total universe bits (the nd of Theorem 6).
  int TotalBits() const;

  void SetDim(int j, DimRange r);
  const DimRange& Dim(int j) const {
    MCF0_DCHECK(j >= 0 && j < dims());
    return dims_[j];
  }

  /// Membership of a point (one coordinate per dimension).
  bool Contains(const std::vector<uint64_t>& point) const;

  /// Number of points (product over dims of ceil((hi-lo+1) / step)).
  double Volume() const;

  /// Uniformly random valid range (steps = 1) for workloads.
  static MultiDimRange Random(int dims, int bits_per_dim, Rng& rng);

 private:
  std::vector<int> bits_;
  std::vector<DimRange> dims_;
};

}  // namespace mcf0
