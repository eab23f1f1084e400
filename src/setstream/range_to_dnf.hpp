/// \file range_to_dnf.hpp
/// \brief The range-to-DNF reduction of Lemma 4 and Corollary 1.
///
/// A one-dimensional range [a, b] over n-bit coordinates decomposes into at
/// most 2n maximal dyadic intervals; each dyadic interval [c 2^j,
/// (c+1) 2^j - 1] is precisely the cube fixing the top n-j bits to c — one
/// DNF term. A d-dimensional range is then the cross product: one term per
/// choice of a dyadic piece in every dimension, at most (2n)^d terms,
/// matching the paper's bound. Arithmetic progressions with power-of-two
/// step conjoin the fixed low bits into each term (Corollary 1).
///
/// Variable layout for a MultiDimRange: dimension j occupies variables
/// [offset_j, offset_j + bits_j), most significant bit first, where
/// offset_j = bits_0 + ... + bits_{j-1}.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "formula/formula.hpp"
#include "setstream/range.hpp"

namespace mcf0 {

/// Dyadic-interval DNF terms of the 1-D range [lo, hi] with the given step
/// (log2_step = 0 for plain ranges), over variables [var_offset,
/// var_offset + nbits). At most 2 * nbits terms.
std::vector<Term> RangeDimensionTerms(uint64_t lo, uint64_t hi, int log2_step,
                                      int nbits, int var_offset);

/// Streams the product terms of a multidimensional range one at a time —
/// the O(nd)-space per-term generation of Lemma 4 (per-dimension
/// decompositions are cached; the cross product is never materialized).
class RangeTermEnumerator {
 public:
  explicit RangeTermEnumerator(const MultiDimRange& range);

  /// Number of product terms (<= prod_j 2 n_j), saturating at UINT64_MAX
  /// instead of wrapping (ten 62-bit dimensions have about 7.3e20).
  uint64_t NumTerms() const;

  /// NumTerms() times num_vars(), saturating: a bound on the literals
  /// AllTerms() materializes, checked against kMaxRangeExpansionLiterals.
  uint64_t LiteralBound() const;

  /// The i-th product term, i < NumTerms().
  Term TermAt(uint64_t i) const;

  /// All terms in order (materializes; use only for small counts).
  std::vector<Term> AllTerms() const;

  /// Total variables across dimensions.
  int num_vars() const { return num_vars_; }

 private:
  int num_vars_;
  std::vector<std::vector<Term>> per_dim_;
};

/// Materializes the full DNF of Lemma 4 (small ranges / tests).
Dnf RangeToDnf(const MultiDimRange& range);

}  // namespace mcf0
