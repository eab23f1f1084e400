#include "streaming/f0_sketch.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/paper_sizing.hpp"
#include "common/rng.hpp"
#include "hash/gf2_kernels.hpp"
#include "obs/metrics.hpp"

namespace mcf0 {

// ---- BucketingSketchRow -------------------------------------------------

BucketingSketchRow::BucketingSketchRow(int n, uint64_t thresh, Rng& rng)
    : n_(n), thresh_(thresh), h_(AffineHash::SampleToeplitz(n, n, rng)) {
  MCF0_CHECK(n >= 1 && n <= 64);
  MCF0_CHECK(thresh >= 1);
}

BucketingSketchRow::BucketingSketchRow(AffineHash h, uint64_t thresh,
                                       int level,
                                       std::unordered_set<uint64_t> bucket)
    : n_(h.n()),
      thresh_(thresh),
      h_(std::move(h)),
      level_(level),
      bucket_(std::move(bucket)) {
  MCF0_CHECK(n_ >= 1 && n_ <= 64 && h_.m() == n_);
  MCF0_CHECK(thresh >= 1);
  MCF0_CHECK(level >= 0 && level <= n_);
}

bool BucketingSketchRow::HashInCell(uint64_t hashed, int level) {
  // The n-bit value sits at the top of the word: its first `level` bits
  // are the word's.
  return level == 0 || (hashed >> (64 - level)) == 0;
}

std::vector<uint64_t> BucketingSketchRow::Hashes(
    std::span<const uint64_t> xs) const {
  std::vector<uint64_t> hashed(xs.size());
  h_.EvalBatch(xs, hashed);
  return hashed;
}

bool BucketingSketchRow::InCell(uint64_t x, int level) const {
  if (level == 0) return true;  // every element: skip the hash
  return HashInCell(h_.Eval64(x) << (64 - n_), level);
}

bool BucketingSketchRow::BucketInCell() const {
  const std::vector<uint64_t> elems(bucket_.begin(), bucket_.end());
  return std::ranges::all_of(Hashes(elems), [this](uint64_t hashed) {
    return HashInCell(hashed, level_);
  });
}

void BucketingSketchRow::Escalate(std::span<const uint64_t> elems,
                                  std::span<const uint64_t> hashed) {
  // The cells are nested: each raise drops the members whose hash has a
  // one at the new level's bit.
  while (bucket_.size() > thresh_ && level_ < n_) {
    ++level_;
    for (size_t i = 0; i < elems.size(); ++i) {
      if (!HashInCell(hashed[i], level_)) bucket_.erase(elems[i]);
    }
  }
}

void BucketingSketchRow::Insert(uint64_t x) {
  bucket_.insert(x);
  if (bucket_.size() > thresh_ && level_ < n_) {
    const std::vector<uint64_t> elems(bucket_.begin(), bucket_.end());
    Escalate(elems, Hashes(elems));
  }
}

void BucketingSketchRow::Add(uint64_t x) {
  if (n_ < 64) x &= (1ull << n_) - 1;  // the universe is {0,1}^n
  if (InCell(x, level_)) Insert(x);
}

void BucketingSketchRow::Add(std::span<const uint64_t> xs) {
  // Hash a stack block up front, then replay the order-sensitive
  // insert/escalate sequence on the hashed words: each item is tested at
  // the level its predecessors left.
  const uint64_t universe = ~0ull >> (64 - n_);
  std::array<uint64_t, 256> hashed;
  for (size_t base = 0; base < xs.size(); base += hashed.size()) {
    const size_t len = std::min(hashed.size(), xs.size() - base);
    h_.EvalBatch(xs.subspan(base, len), std::span(hashed.data(), len));
    for (size_t i = 0; i < len; ++i) {
      if (HashInCell(hashed[i], level_)) Insert(xs[base + i] & universe);
    }
  }
}

void BucketingSketchRow::Merge(int level,
                               const std::unordered_set<uint64_t>& elems) {
  std::vector<uint64_t> all(bucket_.begin(), bucket_.end());
  all.insert(all.end(), elems.begin(), elems.end());
  const std::vector<uint64_t> hashed = Hashes(all);
  level_ = std::max(level_, level);
  bucket_.clear();
  for (size_t i = 0; i < all.size(); ++i) {
    if (HashInCell(hashed[i], level_)) bucket_.insert(all[i]);
  }
  Escalate(all, hashed);
}

double BucketingSketchRow::Estimate() const {
  return static_cast<double>(bucket_.size()) * std::pow(2.0, level_);
}

size_t BucketingSketchRow::SpaceBits() const {
  return bucket_.size() * static_cast<size_t>(n_) + h_.RepresentationBits() +
         /*level counter*/ 8;
}

// ---- MinimumSketchRow ---------------------------------------------------

namespace {

/// a < b for two values of `width` words, most significant word first.
bool WordsLess(const uint64_t* a, const uint64_t* b, size_t width) {
  for (size_t w = 0; w < width; ++w) {
    if (a[w] != b[w]) return a[w] < b[w];
  }
  return false;
}

}  // namespace

BitVec KmvValues::Iterator::operator*() const {
  return BitVec::FromWords(
      bits_, std::vector<uint64_t>(at_, at_ + (bits_ + 63) / 64));
}

BitVec KmvValues::operator[](size_t k) const {
  return *Iterator(Words(k).data(), bits_);
}

MinimumSketchRow::MinimumSketchRow(int n, uint64_t thresh, Rng& rng)
    : MinimumSketchRow(AffineHash::SampleToeplitz(n, 3 * n, rng), thresh) {
  MCF0_CHECK(n >= 1 && n <= 64);
}

MinimumSketchRow::MinimumSketchRow(AffineHash h, uint64_t thresh)
    : n_(h.n()),
      thresh_(thresh),
      h_(std::move(h)),
      width_(static_cast<size_t>(h_.OutputWords())),
      full_words_(thresh > SIZE_MAX / width_ ? SIZE_MAX : thresh * width_) {
  MCF0_CHECK(thresh >= 1);
}

void MinimumSketchRow::Add(uint64_t x) {
  Add(std::span<const uint64_t>(&x, 1));
}

void MinimumSketchRow::Add(std::span<const uint64_t> xs) {
  // Hash a block of items into stack words, then insert; a full row
  // rejects most values on one compare against its max. Blocks shrink
  // for wide outputs so the scratch stays on the stack.
  std::array<uint64_t, 768> hashed;
  MCF0_CHECK(width_ <= hashed.size());
  const size_t block = hashed.size() / width_;
  for (size_t base = 0; base < xs.size(); base += block) {
    const size_t len = std::min(block, xs.size() - base);
    const std::span<uint64_t> out(hashed.data(), len * width_);
    h_.EvalBatch(xs.subspan(base, len), out);
    for (size_t i = 0; i < len; ++i) {
      AddHashedWords(out.subspan(i * width_, width_));
    }
  }
}

void MinimumSketchRow::AddHashed(const BitVec& value) {
  MCF0_CHECK(value.size() == h_.m());
  AddHashedWords(value.words());
}

bool MinimumSketchRow::Admits(std::span<const uint64_t> value) const {
  MCF0_CHECK(value.size() == width_);
  return !saturated() ||
         WordsLess(value.data(), words_.data() + words_.size() - width_,
                   width_);
}

void MinimumSketchRow::AddHashedWords(std::span<const uint64_t> value) {
  if (!Admits(value)) return;  // not among the thresh smallest
  // Binary search (in values) for the first kept value >= value.
  size_t lo = 0;
  size_t hi = words_.size() / width_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (WordsLess(words_.data() + mid * width_, value.data(), width_)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const auto at = words_.begin() + static_cast<ptrdiff_t>(lo * width_);
  if (at != words_.end() && std::equal(value.begin(), value.end(), at)) {
    return;  // already kept
  }
  // Full: value < max, so dropping the max leaves lo in range.
  if (saturated()) words_.resize(words_.size() - width_);
  words_.insert(words_.begin() + static_cast<ptrdiff_t>(lo * width_),
                value.begin(), value.end());
}

double MinimumSketchRow::Estimate() const {
  const KmvValues kept = values();
  if (kept.size() < thresh_) {
    // Sub-threshold regime: every distinct hash value is retained, so the
    // sketch size itself is the (collision-free w.h.p. at 3n bits) count.
    return static_cast<double>(kept.size());
  }
  const double max_value = kept[kept.size() - 1].ToDouble();
  MCF0_DCHECK(max_value > 0.0);
  return static_cast<double>(thresh_) * std::pow(2.0, h_.m()) / max_value;
}

size_t MinimumSketchRow::SpaceBits() const {
  return values().size() * static_cast<size_t>(h_.m()) +
         h_.RepresentationBits();
}

// ---- EstimationSketchRow ------------------------------------------------

EstimationSketchRow::EstimationSketchRow(const Gf2Field* field, int num_cols,
                                         int s, Rng& rng) {
  MCF0_CHECK(num_cols >= 1 && s >= 1);
  hashes_.reserve(num_cols);
  for (int j = 0; j < num_cols; ++j) {
    hashes_.push_back(PolynomialHash::Sample(field, s, rng));
  }
  cells_.assign(num_cols, 0);
}

EstimationSketchRow::EstimationSketchRow(int num_cols) {
  MCF0_CHECK(num_cols >= 1);
  cells_.assign(num_cols, 0);
}

EstimationSketchRow::EstimationSketchRow(std::vector<PolynomialHash> hashes,
                                         std::vector<int> cells)
    : hashes_(std::move(hashes)), cells_(std::move(cells)) {
  MCF0_CHECK(!cells_.empty());
  MCF0_CHECK(hashes_.empty() || hashes_.size() == cells_.size());
  // Span Add evaluates every column on one set of shared powers.
  for (const PolynomialHash& h : hashes_) {
    MCF0_CHECK(h.field_degree() == hashes_.front().field_degree() &&
               h.s() == hashes_.front().s());
  }
}

void EstimationSketchRow::Add(uint64_t x) {
  MCF0_CHECK(!hashes_.empty());  // cells-only rows are Merge-fed
  const int w = hashes_.front().field_degree();
  for (size_t j = 0; j < hashes_.size(); ++j) {
    const int t = TrailZero64(hashes_[j].Eval(x), w);
    if (t > cells_[j]) cells_[j] = t;
  }
}

void EstimationSketchRow::Add(std::span<const uint64_t> xs) {
  MCF0_CHECK(!hashes_.empty());  // cells-only rows are Merge-fed
  const int w = hashes_.front().field_degree();
  const int s = hashes_.front().s();
  // The modulus search is deterministic per degree, so the interned
  // field holds the hashes' modulus (and its Barrett constant).
  const Gf2Field& field = Gf2Field::Of(w);
  // Up to 256 columns at a time, over blocks of points that fill the
  // stack scratch: the kernel shares each point's powers across the
  // columns, and the cells take the maxima after each block.
  std::array<const uint64_t*, 256> coeffs;
  std::array<uint64_t, 2048> hashed;
  for (size_t j0 = 0; j0 < hashes_.size(); j0 += coeffs.size()) {
    const size_t cols = std::min(coeffs.size(), hashes_.size() - j0);
    for (size_t j = 0; j < cols; ++j) {
      coeffs[j] = hashes_[j0 + j].coeffs().data();
    }
    int* cells = cells_.data() + j0;
    const size_t block = hashed.size() / cols;
    for (size_t base = 0; base < xs.size(); base += block) {
      const size_t len = std::min(block, xs.size() - base);
      gf2k::SharedPowersBatch(std::span(coeffs.data(), cols), s,
                              xs.subspan(base, len),
                              std::span(hashed.data(), len * cols), w,
                              field.modulus_low(), field.barrett_mu_low());
      const uint64_t* h = hashed.data();
      for (size_t i = 0; i < len; ++i) {
        for (size_t j = 0; j < cols; ++j) {
          cells[j] = std::max(cells[j], TrailZero64(*h++, w));
        }
      }
    }
  }
}

void EstimationSketchRow::Merge(int j, int t) {
  MCF0_CHECK(j >= 0 && j < static_cast<int>(cells_.size()));
  if (t > cells_[j]) cells_[j] = t;
}

double EstimationSketchRow::EstimateWithR(int r) const {
  MCF0_CHECK(r >= 1);
  int hits = 0;
  for (const int c : cells_) {
    if (c >= r) ++hits;
  }
  const double m = static_cast<double>(cells_.size());
  const double ratio = static_cast<double>(hits) / m;
  if (ratio >= 1.0) return std::numeric_limits<double>::infinity();
  if (ratio <= 0.0) return 0.0;
  return std::log1p(-ratio) / std::log1p(-std::pow(2.0, -r));
}

size_t EstimationSketchRow::SpaceBits() const {
  // Each cell stores a value in [0, w]: ceil(log2(w+1)) bits; each hash
  // needs s field elements of w bits.
  const size_t w = hashes_.empty()
                       ? 64
                       : static_cast<size_t>(hashes_.front().field_degree());
  size_t cell_bits = 1;
  while ((1ull << cell_bits) < w + 1) ++cell_bits;
  size_t hash_bits = 0;
  for (const auto& h : hashes_) {
    hash_bits += static_cast<size_t>(h.s()) * w;
  }
  return cells_.size() * cell_bits + hash_bits;
}

// ---- FlajoletMartinRow --------------------------------------------------

FlajoletMartinRow::FlajoletMartinRow(int n, Rng& rng)
    : n_(n), h_(AffineHash::SampleXor(n, n, rng)) {
  MCF0_CHECK(n >= 1 && n <= 64);
}

FlajoletMartinRow::FlajoletMartinRow(AffineHash h, int max_tz)
    : n_(h.n()), h_(std::move(h)), max_tz_(max_tz) {
  MCF0_CHECK(n_ >= 1 && n_ <= 64 && h_.m() == n_);
  MCF0_CHECK(max_tz >= 0 && max_tz <= n_);
}

void FlajoletMartinRow::Add(uint64_t x) {
  const int t = TrailZero64(h_.Eval64(x), n_);
  if (t > max_tz_) max_tz_ = t;
}

void FlajoletMartinRow::Add(std::span<const uint64_t> xs) {
  int max_tz = max_tz_;
  for (const uint64_t x : xs) {
    const int t = TrailZero64(h_.Eval64(x), n_);
    if (t > max_tz) max_tz = t;
  }
  max_tz_ = max_tz;
}

// ---- driver ---------------------------------------------------------------

uint64_t F0Thresh(const F0Params& params) {
  if (params.thresh_override > 0) return params.thresh_override;
  return PaperThresh(params.eps);
}

int F0Rows(const F0Params& params) {
  if (params.rows_override > 0) return params.rows_override;
  return PaperRows(params.delta);
}

int F0IndependenceS(const F0Params& params) {
  if (params.s_override > 0) return params.s_override;
  return std::max(
      2, static_cast<int>(std::ceil(10.0 * std::log2(1.0 / params.eps))));
}

namespace {
// The draw count lives in the process-wide metrics registry (the
// bespoke file-local atomic it replaces predates src/obs). Resolved
// once; Counter increments are relaxed, so the monotone/atomic
// contract of TotalSamplerRowDraws() is unchanged.
obs::Counter* RowDrawCounter() {
  static obs::Counter* counter =
      obs::Registry::Global().GetCounter("mcf0_sampler_row_draws_total");
  return counter;
}
}  // namespace

uint64_t TotalSamplerRowDraws() { return RowDrawCounter()->Value(); }

namespace internal {
void BumpSamplerRowDraws() { RowDrawCounter()->Increment(); }
}  // namespace internal

F0RowSampler::F0RowSampler(const F0Params& params)
    : params_(params), rng_(params.seed) {
  // Validate before deriving: F0Thresh casts 96/eps^2 to an integer, which
  // is undefined for eps <= 0, so the checks must run first.
  MCF0_CHECK(params.n >= 1 && params.n <= 64);
  MCF0_CHECK(params.eps > 0 && params.delta > 0 && params.delta < 1);
  thresh_ = F0Thresh(params);
  s_ = F0IndependenceS(params);
}

BucketingSketchRow F0RowSampler::NextBucketingRow() {
  MCF0_CHECK(params_.algorithm == F0Algorithm::kBucketing);
  internal::BumpSamplerRowDraws();
  return BucketingSketchRow(params_.n, thresh_, rng_);
}

MinimumSketchRow F0RowSampler::NextMinimumRow() {
  MCF0_CHECK(params_.algorithm == F0Algorithm::kMinimum);
  internal::BumpSamplerRowDraws();
  return MinimumSketchRow(params_.n, thresh_, rng_);
}

std::pair<EstimationSketchRow, FlajoletMartinRow>
F0RowSampler::NextEstimationPair() {
  MCF0_CHECK(params_.algorithm == F0Algorithm::kEstimation);
  internal::BumpSamplerRowDraws();
  // Draw order matches the historical constructor: the Estimation row's
  // polynomial hashes, then the paired FM row's affine hash. Changing this
  // order would silently re-key every seed-elided v2 sketch file.
  EstimationSketchRow est(&Gf2Field::Of(params_.n), static_cast<int>(thresh_),
                          s_, rng_);
  FlajoletMartinRow fm(params_.n, rng_);
  return {std::move(est), std::move(fm)};
}

F0Estimator::F0Estimator(const F0Params& params)
    : params_(params), hashes_canonical_(true) {
  // Canonical by construction: every hash below comes from the sampler's
  // deterministic replay of params.seed — the attestation the v2 encoder's
  // O(state) elided fast path rides on.
  F0RowSampler sampler(params);
  const int rows = F0Rows(params);
  switch (params.algorithm) {
    case F0Algorithm::kBucketing:
      for (int i = 0; i < rows; ++i) {
        bucketing_rows_.push_back(sampler.NextBucketingRow());
      }
      break;
    case F0Algorithm::kMinimum:
      for (int i = 0; i < rows; ++i) {
        minimum_rows_.push_back(sampler.NextMinimumRow());
      }
      break;
    case F0Algorithm::kEstimation:
      for (int i = 0; i < rows; ++i) {
        auto [est, fm] = sampler.NextEstimationPair();
        estimation_rows_.push_back(std::move(est));
        fm_rows_.push_back(std::move(fm));
      }
      break;
  }
}

F0Estimator::Parts F0Estimator::ReleaseParts() && {
  Parts parts;
  parts.params = params_;
  parts.bucketing = std::move(bucketing_rows_);
  parts.minimum = std::move(minimum_rows_);
  parts.estimation = std::move(estimation_rows_);
  parts.fm = std::move(fm_rows_);
  parts.hashes_canonical = hashes_canonical_;
  return parts;
}

F0Estimator F0Estimator::FromParts(Parts parts) {
  const size_t rows = static_cast<size_t>(F0Rows(parts.params));
  switch (parts.params.algorithm) {
    case F0Algorithm::kBucketing:
      MCF0_CHECK(parts.bucketing.size() == rows && parts.minimum.empty() &&
                 parts.estimation.empty() && parts.fm.empty());
      break;
    case F0Algorithm::kMinimum:
      MCF0_CHECK(parts.minimum.size() == rows && parts.bucketing.empty() &&
                 parts.estimation.empty() && parts.fm.empty());
      break;
    case F0Algorithm::kEstimation:
      MCF0_CHECK(parts.estimation.size() == rows && parts.fm.size() == rows &&
                 parts.bucketing.empty() && parts.minimum.empty());
      break;
  }
  F0Estimator est;
  est.params_ = parts.params;
  est.bucketing_rows_ = std::move(parts.bucketing);
  est.minimum_rows_ = std::move(parts.minimum);
  est.estimation_rows_ = std::move(parts.estimation);
  est.fm_rows_ = std::move(parts.fm);
  est.hashes_canonical_ = parts.hashes_canonical;
  return est;
}

void F0Estimator::Add(uint64_t x) {
  for (auto& row : bucketing_rows_) row.Add(x);
  for (auto& row : minimum_rows_) row.Add(x);
  for (auto& row : estimation_rows_) row.Add(x);
  for (auto& row : fm_rows_) row.Add(x);
}

void F0Estimator::Add(std::span<const uint64_t> xs) {
  for (auto& row : bucketing_rows_) row.Add(xs);
  for (auto& row : minimum_rows_) row.Add(xs);
  for (auto& row : estimation_rows_) row.Add(xs);
  for (auto& row : fm_rows_) row.Add(xs);
}

double F0Estimator::Estimate() const {
  std::vector<double> estimates;
  switch (params_.algorithm) {
    case F0Algorithm::kBucketing:
      for (const auto& row : bucketing_rows_) {
        estimates.push_back(row.Estimate());
      }
      return Median(std::move(estimates));
    case F0Algorithm::kMinimum:
      for (const auto& row : minimum_rows_) estimates.push_back(row.Estimate());
      return Median(std::move(estimates));
    case F0Algorithm::kEstimation: {
      // Pick r from the parallel FM rows: 2^r ~ 10 * F̂ sits mid-window in
      // [2 F0, 50 F0] whenever F̂ is within the FM 5-factor band (§3.4).
      std::vector<double> fm;
      for (const auto& row : fm_rows_) fm.push_back(row.Estimate());
      const double rough = Median(std::move(fm));
      if (rough < 1.0) return 0.0;  // empty stream
      int r = static_cast<int>(std::lround(std::log2(10.0 * rough)));
      r = std::clamp(r, 1, params_.n);
      for (const auto& row : estimation_rows_) {
        estimates.push_back(row.EstimateWithR(r));
      }
      return Median(std::move(estimates));
    }
  }
  MCF0_CHECK(false);
  return 0.0;
}

size_t F0Estimator::SpaceBits() const {
  size_t bits = 0;
  for (const auto& row : bucketing_rows_) bits += row.SpaceBits();
  for (const auto& row : minimum_rows_) bits += row.SpaceBits();
  for (const auto& row : estimation_rows_) bits += row.SpaceBits();
  // FM rows: hash + a 6-bit counter.
  bits += fm_rows_.size() * (static_cast<size_t>(params_.n) * params_.n + 6);
  return bits;
}

}  // namespace mcf0
