/// \file affine_image.hpp
/// \brief Canonical affine subsets of {0,1}^m with O(1)-per-element
/// lexicographic enumeration.
///
/// This is the library's unifying primitive for the paper's "counting to
/// streaming" direction. Every structured object the paper processes —
/// h(Sol(T)) for a DNF term T (Proposition 2), h(Sol(<A,B>)) for an affine
/// space (Proposition 4), a DNF term's solution set itself, a cube of a
/// multidimensional range — is an *affine image*: the set
///
///     C = { M t + c : t in {0,1}^q }  subset of  {0,1}^m.
///
/// We canonicalize C once by computing a reduced (RREF) basis of the column
/// space of M with pivots p_1 < ... < p_r and a representative c0 that is
/// zero on all pivots. Key fact (proved in tests): for two elements whose
/// basis-coefficient words tau differ, the leading differing bit of the
/// elements is the pivot p_i of the first differing coefficient, and equals
/// that coefficient. Hence
///
///     lexicographic order on C  ==  numeric order on tau in {0,1}^r.
///
/// This gives Element(tau), Min(), MinGeq(y) (by monotone bit-descent on
/// tau), and p-smallest enumeration *without* per-step Gaussian elimination
/// — strictly better than the per-prefix elimination bound used in the
/// paper's Proposition 2, while computing exactly the same sets. The form
/// is unique per set, so two builds of one set agree word for word.
///
/// Storage and costs: one flat array of ceil(m / 64)-word values — the
/// representative, the r basis vectors, and the r + 1 suffix XORs
/// suffix_i = basis_i ^ ... ^ basis_{r-1} — plus the pivot list. Building
/// from q direction words costs O(q * r * m / 64) word operations (the
/// §5 term images build straight from hash columns, AffineHash::Columns).
/// Contains, MinGeq and MinGt cost O(r * m / 64), and stepping from the
/// element at tau to the one at tau + 1 is one suffix XOR, O(m / 64). None
/// of them allocates beyond the BitVec it returns.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gf2/bitvec.hpp"
#include "gf2/gauss.hpp"
#include "gf2/gf2_matrix.hpp"

namespace mcf0 {

/// Canonicalized affine subset of {0,1}^m (see file comment).
class AffineImage {
 public:
  /// Builds the canonical form of { M t + c : t } in O(q * m^2 / 64).
  /// M is m x q (q may be 0: the singleton {c}).
  AffineImage(const Gf2Matrix& m, const BitVec& c);

  /// The same canonical form from words: `directions` holds the q columns
  /// of M, ceil(width / 64) words each, and `offset` holds c, all in the
  /// BitVec layout (unused tail bits zero).
  AffineImage(int width, std::span<const uint64_t> directions,
              std::span<const uint64_t> offset);

  /// The affine *solution space* {x : A x = b} subset of {0,1}^n viewed as
  /// an affine image (parametrized by a kernel basis), or nullopt if the
  /// system is inconsistent (empty set).
  static std::optional<AffineImage> FromSolutionSpace(const Gf2Matrix& a,
                                                      const BitVec& b);

  /// Bits per element (the m of {0,1}^m).
  int width() const { return width_; }

  /// Dimension r of the affine subspace; |C| = 2^r.
  int dim() const { return static_cast<int>(pivots_.size()); }

  /// log2 |C| = dim(), as a convenience for counting.
  double CountLog2() const { return static_cast<double>(dim()); }

  /// |C| as uint64; requires dim() <= 63.
  uint64_t CountU64() const {
    MCF0_CHECK(dim() <= 63);
    return 1ull << dim();
  }

  /// The tau-th element in lexicographic order; tau has dim() bits
  /// (tau position i multiplies the basis vector with pivot p_{i+1}).
  BitVec Element(const BitVec& tau) const;

  /// Lexicographically smallest element: the representative.
  BitVec Min() const;

  /// Lexicographically largest element.
  BitVec Max() const;

  /// Membership test in O(r * m / 64).
  bool Contains(const BitVec& y) const;

  /// Smallest element >= y, or nullopt if none. O(r * m / 64).
  std::optional<BitVec> MinGeq(const BitVec& y) const;

  /// Smallest element strictly greater than y, or nullopt if none.
  std::optional<BitVec> MinGt(const BitVec& y) const;

  /// The min(p, |C|) lexicographically smallest elements, in order.
  std::vector<BitVec> FirstP(uint64_t p) const;

  /// Largest t such that some element has >= t trailing zeros (i.e. the
  /// max over C of TrailZero), computed by greedy constraint-stuffing on
  /// the *suffix* bits. Used by FindMaxRange on affine images.
  int MaxTrailingZeros() const;

  /// Pivot positions p_1 < ... < p_r of the canonical basis.
  const std::vector<int>& pivots() const { return pivots_; }

 private:
  friend class UnionLexEnumerator;

  /// Value layout in words_: the representative, then basis 0..r-1, then
  /// suffix 0..r (suffix_r = 0).
  const uint64_t* Rep() const { return words_.data(); }
  const uint64_t* Basis(int i) const {
    return words_.data() + static_cast<size_t>(1 + i) * stride_;
  }
  const uint64_t* Suffix(int i) const {
    return words_.data() + static_cast<size_t>(1 + dim() + i) * stride_;
  }

  /// The element after the one at `tau` (an r-bit counter, position 0 its
  /// most significant bit) XORed into `e` in place, and tau incremented;
  /// false, leaving both unchanged, at the last element. Requires
  /// tau < 2^64 - 1 when r > 64.
  bool Step(uint64_t* e, uint64_t* tau) const;

  /// MinGeq (strict = false) and MinGt (strict = true).
  std::optional<BitVec> Descend(const BitVec& y, bool strict) const;

  int width_ = 0;
  /// Words per value: ceil(width / 64).
  size_t stride_ = 0;
  /// RREF basis pivots, strictly increasing: basis i has its leading bit
  /// at pivots_[i] and is zero at every other pivot.
  std::vector<int> pivots_;
  /// Representative (zero on every pivot), basis and suffix XORs; the
  /// suffixes evaluate "this subtree's maximum" in O(m / 64).
  std::vector<uint64_t> words_;
};

/// Lexicographic merge-enumeration of a union of affine images — the
/// engine behind #DNF BoundedSAT (Proposition 1's DNF case), FindMin for
/// DNF (Proposition 2), and the structured-set streaming algorithms (§5).
///
/// Yields the *distinct* elements of the union in increasing lexicographic
/// order. Each set holds its next element on words in a binary min-heap;
/// an output pops the minimum and steps every set whose next element
/// equals it (overlapping images share elements), one suffix XOR each.
class UnionLexEnumerator {
 public:
  /// All sets must share one width.
  explicit UnionLexEnumerator(std::vector<AffineImage> sets);

  /// Next distinct element of the union, or nullopt when exhausted.
  std::optional<BitVec> Next();

  /// Next() on words: the element's ceil(width / 64) words, valid until
  /// the next call, or nullptr when exhausted. Does not allocate.
  const uint64_t* NextWords();

  /// Convenience: the min(p, |union|) smallest elements of the union.
  std::vector<BitVec> FirstP(uint64_t p);

 private:
  /// Heap order: set a's next element is above set b's.
  bool Above(uint32_t a, uint32_t b) const;

  std::vector<AffineImage> sets_;
  int width_ = 0;
  size_t stride_ = 0;
  /// Each set's next element (stride_ words per set) and its tau.
  std::vector<uint64_t> next_;
  std::vector<uint64_t> tau_;
  /// Sets not yet exhausted, a min-heap on next_.
  std::vector<uint32_t> heap_;
  /// The element NextWords() returned last.
  std::vector<uint64_t> last_;
};

}  // namespace mcf0
