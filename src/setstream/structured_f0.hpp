/// \file structured_f0.hpp
/// \brief F0 estimation over structured set streams (§5): the paper's
/// counting-to-streaming direction.
///
/// Stream items are succinct sets over the universe {0,1}^n:
///   * DNF formulas (DNF sets, Theorem 5);
///   * multidimensional ranges (Theorem 6) via the Lemma 4 term stream;
///   * multidimensional arithmetic progressions (Corollary 1);
///   * affine spaces <A, B> (Theorem 7);
///   * singleton elements (the traditional stream as a special case).
///
/// Two strategies, both derived from the #DNF machinery:
///   * Minimum: per row, keep the Thresh lexicographically smallest values
///     of h(union so far); a new set contributes its own Thresh smallest
///     (per-term affine enumeration, Proposition 2 / AffineFindMin,
///     Proposition 4) which merge into the row's KMV sketch.
///   * Bucketing: per row, keep the union's solutions inside the cell
///     h_m^{-1}(0^m), raising m on overflow; a new set contributes its
///     solutions inside the current cell (TermCellSolutions enumeration).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "formula/formula.hpp"
#include "gf2/gf2_matrix.hpp"
#include "hash/hash_family.hpp"
#include "setstream/range.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {

/// Strategy for StructuredF0.
enum class StructuredF0Algorithm { kMinimum, kBucketing };

/// Parameters for structured-stream F0 estimation.
struct StructuredF0Params {
  int n = 16;  ///< universe is {0,1}^n (n is NOT capped at 64 here)
  double eps = 0.8;
  double delta = 0.2;
  uint64_t seed = 1;
  StructuredF0Algorithm algorithm = StructuredF0Algorithm::kMinimum;
  uint64_t thresh_override = 0;
  int rows_override = 0;

  /// Field-wise equality; structured sketches are only mergeable when the
  /// parameters (hence the seeded hash functions) agree exactly.
  friend bool operator==(const StructuredF0Params&,
                         const StructuredF0Params&) = default;
};

/// Thresh = 96 / eps^2, honoring overrides (the same formula as the raw
/// sketches; shared with the structured wire codec).
uint64_t StructuredF0Thresh(const StructuredF0Params& params);
/// t = 35 log2(1/delta) rows, honoring overrides.
int StructuredF0Rows(const StructuredF0Params& params);

/// One structured Bucketing row: the union's solutions inside the prefix
/// cell h_m^{-1}(0^m) over the BitVec universe {0,1}^n (n unbounded, unlike
/// the word-stream BucketingSketchRow), raising m on overflow. This is the
/// first-class row type behind StructuredF0's bucketing strategy — the
/// engine layers (codec, reader, merge) speak it directly.
class StructuredBucketRow {
 public:
  /// Fresh empty row at level 0. `h` must be square (n -> n).
  StructuredBucketRow(AffineHash h, uint64_t thresh);

  /// Rebuilds a row from explicit state — the engine entry point
  /// (SketchCodec / Merge). Every element must lie in the cell at `level`,
  /// and the bucket may only exceed thresh at level = n (the codec is the
  /// validation boundary, exactly as for BucketingSketchRow).
  StructuredBucketRow(AffineHash h, uint64_t thresh, int level,
                      std::set<BitVec> bucket);

  /// First `level` bits of h(x) all zero? Cells are nested in `level`.
  bool InCell(const BitVec& x, int level) const;

  /// Inserts a solution already known to lie in the current cell. On
  /// overflow escalates *one* level (filtering the bucket) and returns
  /// true — the enumeration-driven callers then re-enumerate their item
  /// against the smaller cell; repeated overflow keeps escalating one
  /// insert at a time.
  bool InsertInCell(const BitVec& x);

  /// Traditional stream element (singleton set): cell test, insert, and
  /// full escalation.
  void AddElement(const BitVec& x);

  /// |bucket| * 2^level.
  double Estimate() const;

  int n() const { return h_.n(); }
  uint64_t thresh() const { return thresh_; }
  int level() const { return level_; }
  const AffineHash& hash() const { return h_; }
  const std::set<BitVec>& bucket() const { return bucket_; }
  size_t SpaceBits() const;

 private:
  /// Drops bucket elements outside the cell at the current level.
  void FilterToLevel();

  uint64_t thresh_;
  AffineHash h_;  // n -> n
  int level_ = 0;
  std::set<BitVec> bucket_;
};

/// Replays the deterministic hash sampling of `StructuredF0`'s constructor
/// one row at a time — the structured twin of F0RowSampler, and for the
/// same reason: the constructor draws its rows through this class, so the
/// sampling order is defined once and the v2 structured wire frames can
/// elide hash state ("canonical hashes") by replaying the draws from
/// `params.seed` at decode time.
class StructuredF0RowSampler {
 public:
  explicit StructuredF0RowSampler(const StructuredF0Params& params);

  /// Fresh (empty) rows with the next sampled hash. Which getter is valid
  /// follows params.algorithm.
  MinimumSketchRow NextMinimumRow();
  StructuredBucketRow NextBucketingRow();

 private:
  StructuredF0Params params_;
  uint64_t thresh_ = 0;
  Rng rng_;
};

/// Streaming F0 estimator over structured sets; see file comment.
///
/// `StructuredF0` presents the same sealed sketch surface as
/// `F0Estimator`: durable (SketchCodec structured frames) and mergeable
/// (sketch_merge) — with mutation
/// sealed behind the same move-only Parts exchange, so the
/// `hashes_canonical` attestation survives by construction here too.
class StructuredF0 {
 public:
  /// The sealed mutation exchange; see F0Estimator::Parts for the
  /// contract (`hashes_canonical` attests hash state only, and only the
  /// sampling constructor and the elided-decode path may set it).
  class Parts {
   public:
    Parts(Parts&&) = default;
    Parts& operator=(Parts&&) = default;
    Parts(const Parts&) = delete;
    Parts& operator=(const Parts&) = delete;

    StructuredF0Params params;
    std::vector<MinimumSketchRow> minimum;
    std::vector<StructuredBucketRow> bucketing;
    uint64_t oracle_calls = 0;
    bool hashes_canonical = false;

   private:
    Parts() = default;
    friend class StructuredF0;
  };

  explicit StructuredF0(const StructuredF0Params& params);

  /// Theorem 5: processes a DNF set in per-item time
  /// poly(n, k, 1/eps, log 1/delta).
  void AddDnf(const Dnf& dnf);

  /// Processes a set given directly as DNF terms over the universe's
  /// variables (the range/AP paths after Lemma 4).
  void AddTerms(const std::vector<Term>& terms);

  /// Theorem 6 / Corollary 1: a multidimensional range or arithmetic
  /// progression (range.TotalBits() must equal n).
  void AddRange(const MultiDimRange& range);

  /// Theorem 7: the affine space {x : a x = b}.
  void AddAffine(const Gf2Matrix& a, const BitVec& b);

  /// Observation 2: a set given as a CNF formula (e.g. the O(nd)-size CNF
  /// of a multidimensional range). Per-item work uses the NP oracle —
  /// FindMin for Minimum rows, BoundedSAT for Bucketing rows — so this is
  /// polynomial only modulo the SAT solver, exactly the paper's
  /// "if P = NP the per-item time is polynomial" discussion.
  void AddCnf(const Cnf& cnf);

  /// NP-oracle (SAT) calls accumulated by AddCnf items.
  uint64_t oracle_calls() const { return oracle_calls_; }

  /// Traditional stream element (singleton set).
  void AddElement(const BitVec& x);

  /// Median-of-rows F0 estimate of |union of all items|.
  double Estimate() const;

  /// Sketch footprint across rows.
  size_t SpaceBits() const;

  uint64_t thresh() const { return thresh_; }
  int rows() const {
    return static_cast<int>(min_rows_.size() + bucket_rows_.size());
  }

  const StructuredF0Params& params() const { return params_; }

  /// True iff every row hash is attested to equal the canonical
  /// StructuredF0RowSampler replay (see Parts).
  bool hashes_canonical() const { return hashes_canonical_; }

  /// Engine read access; mutation goes through the Parts exchange.
  const std::vector<MinimumSketchRow>& minimum_rows() const {
    return min_rows_;
  }
  const std::vector<StructuredBucketRow>& bucketing_rows() const {
    return bucket_rows_;
  }

  /// Moves the entire state out, consuming the sketch (moved-from after).
  Parts ReleaseParts() &&;

  /// Rebuilds a sketch from a state bundle — the engine entry point.
  /// Exactly the row vector matching `parts.params.algorithm` may be
  /// non-empty and must hold StructuredF0Rows(params) rows.
  static StructuredF0 FromParts(Parts parts);

  /// An empty Parts bundle to fill by hand (decode layers, tests);
  /// hashes_canonical starts false.
  static Parts EmptyParts() { return Parts(); }

 private:
  StructuredF0() = default;

  /// Adds to one bucketing row all elements of the given term-set lying in
  /// the row's current cell, escalating the level on overflow.
  void BucketAddTerms(StructuredBucketRow* row, const std::vector<Term>& terms);
  void BucketAddAffine(StructuredBucketRow* row, const Gf2Matrix& a,
                       const BitVec& b);

  StructuredF0Params params_;
  uint64_t thresh_ = 0;
  uint64_t oracle_calls_ = 0;
  bool hashes_canonical_ = false;
  std::vector<MinimumSketchRow> min_rows_;
  std::vector<StructuredBucketRow> bucket_rows_;
};

}  // namespace mcf0
