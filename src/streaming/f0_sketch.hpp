/// \file f0_sketch.hpp
/// \brief The three classic F0 sketches unified by the paper (§3,
/// Algorithms 1-4): Bucketing (Gibbons-Tirthapura), Minimum (KMV /
/// Bar-Yossef et al.), and Estimation (trailing zeros), plus the
/// Flajolet-Martin rough estimator.
///
/// Each class below is a single sketch *row*; `F0Estimator` runs the
/// t = 35 log2(1/delta) independent rows of Algorithm 1 and returns the
/// median of the row estimates (ComputeEst, Algorithm 4). The sketch state
/// of each row is exactly the paper's S[i]:
///
///   Bucketing:  S[i] = (bucket of stream elements in the cell, level m_i)
///   Minimum:    S[i] = Thresh lexicographically smallest values of h(a)
///   Estimation: S[i][j] = max trailing zeros of H[i][j](a)
///
/// Streams deliver 64-bit words; every row reads a word by its low n bits,
/// its element of the universe {0,1}^n (n <= 64).
/// Every sketch exposes SpaceBits() so the space experiments (E2) report
/// actual sketch footprints rather than asymptotics.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/median.hpp"
#include "common/rng.hpp"
#include "gf2/bitvec.hpp"
#include "hash/gf2_poly.hpp"
#include "hash/hash_family.hpp"

namespace mcf0 {

class Rng;

/// One Bucketing row: keep the stream elements x with h_m(x) = 0^m,
/// doubling the sampling level m when the bucket exceeds `thresh`.
class BucketingSketchRow {
 public:
  BucketingSketchRow(int n, uint64_t thresh, Rng& rng);

  /// Rebuilds a row from explicit state — the decoders' entry point
  /// (src/engine). `bucket` must be a subset of the cell at `level`.
  BucketingSketchRow(AffineHash h, uint64_t thresh, int level,
                     std::unordered_set<uint64_t> bucket);

  /// Item absorb: one hash per item — the scalar reference the span path
  /// is measured and pinned against.
  void Add(uint64_t x);

  /// Batch absorb: hashes a stack block of items through one EvalBatch,
  /// then replays the order-sensitive insert/escalate sequence on the
  /// hashed words, so an item its cell rejects costs one shift and
  /// compare. Byte-identical to calling Add(x) in order.
  void Add(std::span<const uint64_t> xs);

  /// The union-merge path: raises the level to at least `level`, keeps
  /// the members of that level's cell among the bucket and `elems`, and
  /// escalates while over thresh. The cells are nested, so merging
  /// another row's (level, bucket) reproduces the state of one pass over
  /// both streams.
  void Merge(int level, const std::unordered_set<uint64_t>& elems);

  /// |bucket| * 2^level.
  double Estimate() const;

  int level() const { return level_; }
  size_t bucket_size() const { return bucket_.size(); }
  uint64_t thresh() const { return thresh_; }
  const AffineHash& hash() const { return h_; }
  const std::unordered_set<uint64_t>& bucket() const { return bucket_; }
  size_t SpaceBits() const;

  /// First `level` bits of h(x) all zero? The cells are nested in `level`,
  /// which is what makes buckets union-mergeable.
  bool InCell(uint64_t x, int level) const;

  /// True iff every bucket element lies in the cell at level(): the
  /// from-parts invariant, which the constructor leaves to decoders.
  bool BucketInCell() const;

 private:
  /// First `level` bits of a hashed word (EvalBatch's layout: the n-bit
  /// value at the top of the word) all zero? The one cell test of
  /// InCell, the span replay and every re-filter.
  static bool HashInCell(uint64_t hashed, int level);

  /// EvalBatch over `xs`.
  std::vector<uint64_t> Hashes(std::span<const uint64_t> xs) const;

  /// Raises the level while the bucket holds more than thresh (below
  /// level n), dropping the members that leave the cell. `elems` covers
  /// the bucket, and `hashed` is their EvalBatch.
  void Escalate(std::span<const uint64_t> elems,
                std::span<const uint64_t> hashed);

  /// Stores an element of {0,1}^n its cell admits, then escalates if that
  /// put the bucket over thresh.
  void Insert(uint64_t x);

  int n_;
  uint64_t thresh_;
  AffineHash h_;  // n -> n
  int level_ = 0;
  std::unordered_set<uint64_t> bucket_;
};

/// The values a Minimum row retains, ascending, as a read-only view of
/// the row's flat word array: value k is words [k W, (k + 1) W) in the
/// BitVec layout, W = ceil(m / 64). Big-endian word order makes word-wise
/// lexicographic order the BitVec (numeric) order, so one layout serves
/// raw and structured rows of every width. Iterating yields BitVec copies;
/// two views compare equal iff they hold the same values.
class KmvValues {
 public:
  class Iterator {
   public:
    using value_type = BitVec;
    using difference_type = std::ptrdiff_t;
    Iterator() = default;
    Iterator(const uint64_t* at, int bits) : at_(at), bits_(bits) {}
    BitVec operator*() const;
    Iterator& operator++() {
      at_ += (bits_ + 63) / 64;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iterator& o) const { return at_ == o.at_; }

   private:
    const uint64_t* at_ = nullptr;
    int bits_ = 0;
  };

  KmvValues(std::span<const uint64_t> words, int bits)
      : words_(words), bits_(bits) {}

  size_t size() const { return words_.size() / width(); }
  bool empty() const { return words_.empty(); }
  /// Words per value.
  size_t width() const { return static_cast<size_t>(bits_ + 63) / 64; }
  /// Every value's words, ascending.
  std::span<const uint64_t> words() const { return words_; }
  /// Value k's words.
  std::span<const uint64_t> Words(size_t k) const {
    return words_.subspan(k * width(), width());
  }
  /// Value k as a BitVec.
  BitVec operator[](size_t k) const;
  Iterator begin() const { return Iterator(words_.data(), bits_); }
  Iterator end() const {
    return Iterator(words_.data() + words_.size(), bits_);
  }

  friend bool operator==(const KmvValues& a, const KmvValues& b) {
    return a.bits_ == b.bits_ && std::ranges::equal(a.words_, b.words_);
  }

 private:
  std::span<const uint64_t> words_;
  int bits_;
};

/// One Minimum (KMV) row: the `thresh` lexicographically smallest distinct
/// values of h(a) for h: {0,1}^n -> {0,1}^{3n}, kept as one flat sorted
/// array of ceil(m / 64)-word values (KmvValues has the layout).
class MinimumSketchRow {
 public:
  MinimumSketchRow(int n, uint64_t thresh, Rng& rng);

  /// Wraps an explicitly sampled hash — the transformation-recipe entry
  /// point: the model counting algorithm (§3.3) builds this same sketch by
  /// feeding FindMin outputs through AddHashed, then calls Estimate().
  MinimumSketchRow(AffineHash h, uint64_t thresh);

  void Add(uint64_t x);

  /// Batch absorb: hashes a stack block of items through one kernel call,
  /// then inserts. Byte-identical to item-by-item Add (set insertion is
  /// order-independent).
  void Add(std::span<const uint64_t> xs);

  /// Inserts an already-hashed value — the merge path used by the
  /// structured-set streaming algorithms (§5) and the distributed
  /// coordinator (§4), which receive hash values rather than elements.
  void AddHashed(const BitVec& value);

  /// AddHashed on one value's words (KmvValues layout). A full row drops
  /// a value that is not below its max before touching the array.
  void AddHashedWords(std::span<const uint64_t> value);

  /// True iff the row has room or `value` (one value's words) lies below
  /// its max: AddHashed leaves the row unchanged for every other value.
  /// Values fed in ascending order can stop at the first one this
  /// rejects.
  bool Admits(std::span<const uint64_t> value) const;

  /// thresh * 2^m / max(S) when saturated; |S| (exact regime) otherwise.
  double Estimate() const;

  bool saturated() const { return words_.size() >= full_words_; }
  KmvValues values() const { return KmvValues(words_, h_.m()); }
  uint64_t thresh() const { return thresh_; }
  size_t SpaceBits() const;
  int output_bits() const { return h_.m(); }
  const AffineHash& hash() const { return h_; }

 private:
  int n_;
  uint64_t thresh_;
  AffineHash h_;  // n -> 3n
  /// Words per value, and words_.size() once thresh values are kept
  /// (saturating): saturated() without a division.
  size_t width_;
  size_t full_words_;
  /// The retained values, ascending, width_ words each.
  std::vector<uint64_t> words_;
};

/// One Estimation row: `num_cols` s-wise independent hash functions; cell j
/// stores the maximum trailing-zero count seen under hash j.
class EstimationSketchRow {
 public:
  /// `field` supplies GF(2^n) arithmetic and must outlive the row (the
  /// sampler passes the interned Gf2Field::Of(n), which lives forever).
  EstimationSketchRow(const Gf2Field* field, int num_cols, int s, Rng& rng);

  /// Cells-only row with no hash functions of its own — the
  /// transformation-recipe entry point: the model counting algorithm
  /// (§3.4) fills cells via Merge() with FindMaxRange results and calls
  /// EstimateWithR(). Add() is invalid on such a row.
  explicit EstimationSketchRow(int num_cols);

  /// Rebuilds a row from explicit hash + cell state (the engine entry
  /// point). The hashes share one field, which must outlive the row, and
  /// one s (checked); they may be empty for a cells-only row.
  EstimationSketchRow(std::vector<PolynomialHash> hashes,
                      std::vector<int> cells);

  /// Item absorb: Horner through PolynomialHash::Eval per column — the
  /// scalar reference the span path is measured and pinned against.
  void Add(uint64_t x);

  /// Batch absorb: every column evaluates at each point on that point's
  /// shared powers x^1..x^(s-1), one inner product and one Barrett
  /// reduction per column (gf2k::SharedPowersBatch). Byte-identical to
  /// item-by-item Add: the hash values are the same field elements, and
  /// cells take maxima, which commute.
  void Add(std::span<const uint64_t> xs);

  /// Raises cell j to at least `t` — the distributed merge path (§4).
  void Merge(int j, int t);

  /// Lemma 3 estimator for a given r: ln(1 - ratio) / ln(1 - 2^-r) where
  /// ratio = fraction of cells with S[j] >= r. Returns +inf when every
  /// cell clears r (r chosen far too small).
  double EstimateWithR(int r) const;

  const std::vector<int>& cells() const { return cells_; }
  const std::vector<PolynomialHash>& hashes() const { return hashes_; }
  /// Moves the hash state out of a row being discarded — the v2 decode
  /// path hands a replayed row's hashes to the row actually decoded
  /// instead of copying thresh * s coefficients.
  std::vector<PolynomialHash> TakeHashes() && { return std::move(hashes_); }
  size_t SpaceBits() const;

 private:
  std::vector<PolynomialHash> hashes_;
  std::vector<int> cells_;
};

/// Flajolet-Martin / AMS rough estimator row: 2^(max trailing zeros) is a
/// 5-factor approximation with probability >= 3/5. Used to supply the `r`
/// parameter of the Estimation algorithm.
class FlajoletMartinRow {
 public:
  FlajoletMartinRow(int n, Rng& rng);

  /// Rebuilds a row from explicit state (the engine entry point).
  FlajoletMartinRow(AffineHash h, int max_tz);

  void Add(uint64_t x);

  /// Batch absorb; byte-identical to item-by-item Add (max commutes).
  void Add(std::span<const uint64_t> xs);

  /// Raises the counter to at least `t` — the union-merge path.
  void Merge(int t) {
    if (t > max_tz_) max_tz_ = t;
  }

  int max_trailing_zeros() const { return max_tz_; }
  const AffineHash& hash() const { return h_; }
  double Estimate() const { return std::pow(2.0, max_tz_); }

 private:
  int n_;
  AffineHash h_;  // n -> n, pairwise independent
  int max_tz_ = 0;
};

/// Which of the three strategies a driver should run.
enum class F0Algorithm { kBucketing, kMinimum, kEstimation };

/// Parameters for the ComputeF0 driver (Algorithm 1).
struct F0Params {
  int n = 32;              ///< universe is {0,1}^n, n <= 64
  double eps = 0.8;        ///< relative accuracy
  double delta = 0.2;      ///< failure probability
  F0Algorithm algorithm = F0Algorithm::kMinimum;
  uint64_t seed = 1;
  /// Overrides for experiments; 0 = use the paper's formulas
  /// (Thresh = ceil(96 / eps^2), rows = ceil(35 * log2(1/delta))).
  uint64_t thresh_override = 0;
  int rows_override = 0;
  int s_override = 0;      ///< Estimation independence; 0 = 10 log2(1/eps)

  /// Field-wise equality; sketches are only mergeable when the parameters
  /// (and hence the seeded hash functions) agree exactly.
  friend bool operator==(const F0Params&, const F0Params&) = default;
};

/// Thresh = 96 / eps^2 (Algorithm 1 line 1), honoring overrides.
uint64_t F0Thresh(const F0Params& params);
/// t = 35 log2(1/delta) rows (Algorithm 1 line 2), honoring overrides.
int F0Rows(const F0Params& params);
/// Estimation hash independence s = max(2, 10 log2(1/eps)) (§3.4),
/// honoring overrides. Shared with the sketch codec so serialized rows
/// are validated against exactly what the constructor would sample.
int F0IndependenceS(const F0Params& params);

/// Process-wide count of sketch-row hash draws (F0RowSampler and
/// StructuredF0RowSampler alike). Construction-cost observability: the
/// sealed-API contract is that encoding a canonical sketch performs *zero*
/// draws, and the engine/E18 tests pin that by diffing this counter around
/// an Encode() call. Monotone, atomic, never reset.
uint64_t TotalSamplerRowDraws();

namespace internal {
/// Bumps TotalSamplerRowDraws(); for the row samplers only.
void BumpSamplerRowDraws();
}  // namespace internal

/// Replays the deterministic hash sampling of `F0Estimator`'s constructor
/// one row at a time. The constructor itself draws rows through this class,
/// so the sampling order is defined in exactly one place — which is what
/// lets the v2 sketch wire format elide hash state entirely ("canonical
/// hashes", docs/wire_format.md): a decoder re-derives every hash from
/// `params.seed` by replaying the same draws, each row drawn once.
class F0RowSampler {
 public:
  explicit F0RowSampler(const F0Params& params);

  /// Fresh (empty) rows with the next sampled hash state. Which getter is
  /// valid follows params.algorithm; Estimation draws interleave one
  /// Estimation row and one FM row per driver row, in that order, and
  /// the Estimation row's hashes compute in Gf2Field::Of(params.n).
  BucketingSketchRow NextBucketingRow();
  MinimumSketchRow NextMinimumRow();
  std::pair<EstimationSketchRow, FlajoletMartinRow> NextEstimationPair();

 private:
  F0Params params_;
  uint64_t thresh_ = 0;
  int s_ = 0;
  Rng rng_;
};

/// The ComputeF0 driver: t independent rows of the chosen sketch, median
/// of row estimates. For Estimation, FM rows run in parallel to supply r
/// (§3.4), with r = round(log2(10 * F̂_FM)) placing 2^r near the middle of
/// the validity window [2 F0, 50 F0].
/// A plain copyable value: its Estimation hashes point at the interned
/// Gf2Field::Of(n), which every copy shares.
class F0Estimator {
 public:
  /// The sealed mutation exchange. An estimator never hands out mutable
  /// references to its rows; to alter row state a caller must *take the
  /// whole state out* (ReleaseParts, which consumes the estimator) and put
  /// it back (FromParts). That linear-type discipline is what lets
  /// `hashes_canonical` survive by construction: the flag rides along in
  /// the bundle, so there is no window in which hashes could be swapped
  /// behind a live attestation.
  ///
  /// `hashes_canonical == true` attests that every row's hash function
  /// (including representation-bit counts) equals the canonical
  /// F0RowSampler replay from `params.seed`. Only two producers set it:
  /// the sampling constructor and the codec's elided-decode path — both by
  /// construction, never by comparison. Row *contents* (buckets, KMV
  /// values, cells, counters) may be exchanged freely under a true flag;
  /// swapping a row's hash function voids the attestation, so any code
  /// doing that must clear the flag. The v2 encoder elides hash state on
  /// the strength of this bit (O(state) encode, no sampler replay).
  class Parts {
   public:
    Parts(Parts&&) = default;
    Parts& operator=(Parts&&) = default;
    Parts(const Parts&) = delete;
    Parts& operator=(const Parts&) = delete;

    F0Params params;
    std::vector<BucketingSketchRow> bucketing;
    std::vector<MinimumSketchRow> minimum;
    std::vector<EstimationSketchRow> estimation;
    std::vector<FlajoletMartinRow> fm;
    bool hashes_canonical = false;

   private:
    Parts() = default;
    friend class F0Estimator;
  };

  explicit F0Estimator(const F0Params& params);

  /// Moves the entire state out, consuming the estimator (it is left
  /// moved-from: destroy or assign only). The returned bundle is the only
  /// mutable view of row state the class ever grants.
  Parts ReleaseParts() &&;

  /// Rebuilds an estimator from a state bundle — the engine entry point
  /// (src/engine/sketch_codec decode, sketch_merge row exchange). Exactly
  /// the row vectors matching `parts.params.algorithm` may be non-empty
  /// and must hold the row count the parameters imply.
  /// `parts.hashes_canonical` is trusted (see Parts).
  static F0Estimator FromParts(Parts parts);

  void Add(uint64_t x);

  /// Batch absorb: hands the whole block to each row's span-Add, so one
  /// row's hash coefficients stay hot across B elements instead of being
  /// re-fetched per element. Byte-identical to absorbing the block
  /// item-by-item in order — the engine's batched workers and E17/E18
  /// gates pin that.
  void Add(std::span<const uint64_t> xs);

  double Estimate() const;

  /// Total sketch footprint across rows (hash representations included).
  size_t SpaceBits() const;

  const F0Params& params() const { return params_; }

  /// True iff every row hash is attested to equal the canonical
  /// F0RowSampler replay (see Parts). The sampling constructor starts
  /// true; merges preserve it (they exchange row contents, never hashes).
  bool hashes_canonical() const { return hashes_canonical_; }

  /// Engine read access (src/engine): SketchCodec serializes row state,
  /// Merge() unions replicas row-by-row. Other callers should treat rows
  /// as opaque; mutation goes through the Parts exchange above.
  const std::vector<BucketingSketchRow>& bucketing_rows() const {
    return bucketing_rows_;
  }
  const std::vector<MinimumSketchRow>& minimum_rows() const {
    return minimum_rows_;
  }
  const std::vector<EstimationSketchRow>& estimation_rows() const {
    return estimation_rows_;
  }
  const std::vector<FlajoletMartinRow>& fm_rows() const { return fm_rows_; }

  /// An empty Parts bundle to fill by hand (decode layers, tests). Its
  /// hashes_canonical starts false — hand-assembled state is presumed
  /// non-canonical until a blessed producer says otherwise.
  static Parts EmptyParts() { return Parts(); }

 private:
  F0Estimator() = default;

  F0Params params_;
  std::vector<BucketingSketchRow> bucketing_rows_;
  std::vector<MinimumSketchRow> minimum_rows_;
  std::vector<EstimationSketchRow> estimation_rows_;
  std::vector<FlajoletMartinRow> fm_rows_;
  bool hashes_canonical_ = false;
};

}  // namespace mcf0
