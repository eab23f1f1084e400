#include "setstream/structured_f0.hpp"

#include <cmath>
#include <utility>

#include "common/median.hpp"
#include "common/paper_sizing.hpp"
#include "common/rng.hpp"
#include "gf2/affine_image.hpp"
#include "gf2/gauss.hpp"
#include "oracle/bounded_sat.hpp"
#include "oracle/find_min.hpp"
#include "setstream/range_to_dnf.hpp"

namespace mcf0 {
namespace {

/// Solutions of {x : a x = b} inside the prefix cell h_m^{-1}(0^m), as an
/// affine subspace of x-space (nullopt if empty).
std::optional<AffineImage> AffineCellSolutions(const Gf2Matrix& a,
                                               const BitVec& b,
                                               const AffineHash& h, int m) {
  Gf2Matrix stacked = a;
  for (int i = 0; i < m; ++i) stacked.AppendRow(h.Row(i));
  BitVec rhs = b.Concat(h.b().Prefix(m));
  return AffineImage::FromSolutionSpace(stacked, rhs);
}

/// Feeds a row the union's elements in ascending order, at most thresh of
/// them, stopping at the first a full row rejects: no later one can enter
/// it either. B' of Theorems 5-7 merged into the row's KMV sketch.
void AddSmallest(UnionLexEnumerator merge, uint64_t thresh,
                 MinimumSketchRow* row) {
  const size_t width = static_cast<size_t>(row->hash().OutputWords());
  for (uint64_t i = 0; i < thresh; ++i) {
    const uint64_t* v = merge.NextWords();
    if (v == nullptr) return;
    const std::span<const uint64_t> value(v, width);
    if (!row->Admits(value)) return;
    row->AddHashedWords(value);
  }
}

}  // namespace

uint64_t StructuredF0Thresh(const StructuredF0Params& params) {
  if (params.thresh_override > 0) return params.thresh_override;
  return PaperThresh(params.eps);
}

int StructuredF0Rows(const StructuredF0Params& params) {
  if (params.rows_override > 0) return params.rows_override;
  return PaperRows(params.delta);
}

// ---- StructuredBucketRow --------------------------------------------------

StructuredBucketRow::StructuredBucketRow(AffineHash h, uint64_t thresh)
    : thresh_(thresh), h_(std::move(h)) {
  MCF0_CHECK(h_.n() >= 1 && h_.m() == h_.n());
  MCF0_CHECK(thresh >= 1);
}

StructuredBucketRow::StructuredBucketRow(AffineHash h, uint64_t thresh,
                                         int level, std::set<BitVec> bucket)
    : thresh_(thresh),
      h_(std::move(h)),
      level_(level),
      bucket_(std::move(bucket)) {
  MCF0_CHECK(h_.n() >= 1 && h_.m() == h_.n());
  MCF0_CHECK(thresh >= 1);
  MCF0_CHECK(level >= 0 && level <= h_.n());
}

bool StructuredBucketRow::InCell(const BitVec& x, int level) const {
  return h_.EvalPrefix(x, level).IsZero();
}

void StructuredBucketRow::FilterToLevel() {
  for (auto it = bucket_.begin(); it != bucket_.end();) {
    if (!InCell(*it, level_)) {
      it = bucket_.erase(it);
    } else {
      ++it;
    }
  }
}

bool StructuredBucketRow::InsertInCell(const BitVec& x) {
  MCF0_DCHECK(x.size() == h_.n());
  bucket_.insert(x);
  if (bucket_.size() > thresh_ && level_ < h_.n()) {
    ++level_;
    FilterToLevel();
    return true;
  }
  return false;
}

void StructuredBucketRow::AddElement(const BitVec& x) {
  if (!InCell(x, level_)) return;
  bucket_.insert(x);
  while (bucket_.size() > thresh_ && level_ < h_.n()) {
    ++level_;
    FilterToLevel();
  }
}

double StructuredBucketRow::Estimate() const {
  return static_cast<double>(bucket_.size()) * std::pow(2.0, level_);
}

size_t StructuredBucketRow::SpaceBits() const {
  return bucket_.size() * static_cast<size_t>(h_.n()) +
         h_.RepresentationBits() + /*level counter*/ 8;
}

// ---- StructuredF0RowSampler -----------------------------------------------

StructuredF0RowSampler::StructuredF0RowSampler(const StructuredF0Params& params)
    : params_(params), rng_(params.seed) {
  // Validate before deriving (StructuredF0Thresh casts 96/eps^2).
  MCF0_CHECK(params.n >= 1);
  MCF0_CHECK(params.eps > 0 && params.delta > 0 && params.delta < 1);
  thresh_ = StructuredF0Thresh(params);
}

MinimumSketchRow StructuredF0RowSampler::NextMinimumRow() {
  MCF0_CHECK(params_.algorithm == StructuredF0Algorithm::kMinimum);
  internal::BumpSamplerRowDraws();
  return MinimumSketchRow(
      AffineHash::SampleToeplitz(params_.n, 3 * params_.n, rng_), thresh_);
}

StructuredBucketRow StructuredF0RowSampler::NextBucketingRow() {
  MCF0_CHECK(params_.algorithm == StructuredF0Algorithm::kBucketing);
  internal::BumpSamplerRowDraws();
  return StructuredBucketRow(
      AffineHash::SampleToeplitz(params_.n, params_.n, rng_), thresh_);
}

// ---- StructuredF0 ---------------------------------------------------------

StructuredF0::StructuredF0(const StructuredF0Params& params)
    : params_(params), hashes_canonical_(true) {
  // Canonical by construction, exactly as in F0Estimator: the sampler
  // replays params.seed, so structured v2 frames may elide hash state.
  StructuredF0RowSampler sampler(params);
  thresh_ = StructuredF0Thresh(params);
  const int rows = StructuredF0Rows(params);
  for (int i = 0; i < rows; ++i) {
    if (params.algorithm == StructuredF0Algorithm::kMinimum) {
      min_rows_.push_back(sampler.NextMinimumRow());
    } else {
      bucket_rows_.push_back(sampler.NextBucketingRow());
    }
  }
}

StructuredF0::Parts StructuredF0::ReleaseParts() && {
  Parts parts;
  parts.params = params_;
  parts.minimum = std::move(min_rows_);
  parts.bucketing = std::move(bucket_rows_);
  parts.oracle_calls = oracle_calls_;
  parts.hashes_canonical = hashes_canonical_;
  return parts;
}

StructuredF0 StructuredF0::FromParts(Parts parts) {
  const size_t rows = static_cast<size_t>(StructuredF0Rows(parts.params));
  if (parts.params.algorithm == StructuredF0Algorithm::kMinimum) {
    MCF0_CHECK(parts.minimum.size() == rows && parts.bucketing.empty());
  } else {
    MCF0_CHECK(parts.bucketing.size() == rows && parts.minimum.empty());
  }
  StructuredF0 sketch;
  sketch.params_ = parts.params;
  sketch.thresh_ = StructuredF0Thresh(parts.params);
  sketch.oracle_calls_ = parts.oracle_calls;
  sketch.hashes_canonical_ = parts.hashes_canonical;
  sketch.min_rows_ = std::move(parts.minimum);
  sketch.bucket_rows_ = std::move(parts.bucketing);
  return sketch;
}

void StructuredF0::AddDnf(const Dnf& dnf) {
  MCF0_CHECK(dnf.num_vars() == params_.n);
  AddTerms(dnf.terms());
}

void StructuredF0::AddTerms(const std::vector<Term>& terms) {
  if (terms.empty()) return;
  for (auto& row : min_rows_) {
    // B' of Theorem 5: the Thresh smallest values of h(Sol(item)). The
    // row's hash columns are read once per item, then each term's image
    // is built from them on words.
    TermImageBuilder image_of(row.hash());
    std::vector<AffineImage> images;
    images.reserve(terms.size());
    for (const Term& t : terms) images.push_back(image_of(t));
    AddSmallest(UnionLexEnumerator(std::move(images)), thresh_, &row);
  }
  for (auto& row : bucket_rows_) BucketAddTerms(&row, terms);
}

void StructuredF0::BucketAddTerms(StructuredBucketRow* row,
                                  const std::vector<Term>& terms) {
  for (;;) {
    // Enumerate the item's solutions inside the current cell; on overflow
    // the row escalates one level (filtering its bucket) and we
    // re-enumerate the item against the smaller cell.
    std::vector<AffineImage> pieces;
    for (const Term& t : terms) {
      auto piece = TermCellSolutions(t, params_.n, row->hash(), row->level());
      if (piece.has_value()) pieces.push_back(std::move(*piece));
    }
    UnionLexEnumerator merge(std::move(pieces));
    bool overflow = false;
    for (auto x = merge.Next(); x.has_value(); x = merge.Next()) {
      if (row->InsertInCell(*x)) {
        overflow = true;
        break;
      }
    }
    if (!overflow) return;
  }
}

void StructuredF0::BucketAddAffine(StructuredBucketRow* row,
                                   const Gf2Matrix& a, const BitVec& b) {
  for (;;) {
    auto piece = AffineCellSolutions(a, b, row->hash(), row->level());
    if (!piece.has_value()) return;
    bool overflow = false;
    BitVec cur = piece->Min();
    for (std::optional<BitVec> x = cur;; x = piece->MinGt(*x)) {
      if (!x.has_value()) break;
      if (row->InsertInCell(*x)) {
        overflow = true;
        break;
      }
    }
    if (!overflow) return;
  }
}

void StructuredF0::AddRange(const MultiDimRange& range) {
  MCF0_CHECK(range.TotalBits() == params_.n);
  RangeTermEnumerator terms(range);
  MCF0_CHECK(terms.LiteralBound() <= kMaxRangeExpansionLiterals);
  AddTerms(terms.AllTerms());
}

void StructuredF0::AddAffine(const Gf2Matrix& a, const BitVec& b) {
  MCF0_CHECK(a.cols() == params_.n);
  for (auto& row : bucket_rows_) BucketAddAffine(&row, a, b);
  if (min_rows_.empty()) return;
  // One solve per item (an inconsistent system is the empty set); each
  // row maps the solution space through its hash (Theorem 7).
  const std::optional<LinearSystemSolution> sol = SolveLinearSystem(a, b);
  if (!sol.has_value()) return;
  for (auto& row : min_rows_) {
    std::vector<AffineImage> image;
    image.push_back(AffineImageUnderHash(*sol, row.hash()));
    AddSmallest(UnionLexEnumerator(std::move(image)), thresh_, &row);
  }
}

void StructuredF0::AddCnf(const Cnf& cnf) {
  MCF0_CHECK(cnf.num_vars() == params_.n);
  CnfOracle oracle(cnf);
  for (auto& row : min_rows_) {
    // Observation 2 path: the row's B' computed by oracle prefix search.
    for (const BitVec& v : FindMinCnf(oracle, row.hash(), thresh_)) {
      row.AddHashed(v);
    }
  }
  for (auto& row : bucket_rows_) {
    // Enumerate the item's solutions inside the current cell via the
    // oracle, escalating the level on overflow as in BucketAddTerms.
    for (;;) {
      const BoundedSatResult cell =
          BoundedSatCnf(oracle, row.hash(), row.level(), thresh_ + 1);
      bool overflow = false;
      for (const BitVec& x : cell.solutions) {
        if (row.InsertInCell(x)) {
          overflow = true;
          break;
        }
      }
      if (!overflow) break;
    }
  }
  oracle_calls_ += oracle.num_calls();
}

void StructuredF0::AddElement(const BitVec& x) {
  MCF0_CHECK(x.size() == params_.n);
  for (auto& row : min_rows_) {
    row.AddHashed(row.hash().Eval(x));
  }
  for (auto& row : bucket_rows_) {
    row.AddElement(x);
  }
}

double StructuredF0::Estimate() const {
  std::vector<double> estimates;
  for (const auto& row : min_rows_) estimates.push_back(row.Estimate());
  for (const auto& row : bucket_rows_) estimates.push_back(row.Estimate());
  return Median(std::move(estimates));
}

size_t StructuredF0::SpaceBits() const {
  size_t bits = 0;
  for (const auto& row : min_rows_) bits += row.SpaceBits();
  for (const auto& row : bucket_rows_) bits += row.SpaceBits();
  return bits;
}

}  // namespace mcf0
