#include "gf2/affine_image.hpp"

#include <algorithm>
#include <bit>

namespace mcf0 {
namespace {

/// Bit `p` of a value in the BitVec layout, as 0 or 1.
uint64_t BitAt(const uint64_t* v, int p) {
  return (v[p >> 6] >> (63 - (p & 63))) & 1;
}

/// v ^= u when `bit` is 1, on `stride` words, without a branch.
void XorIf(uint64_t* v, const uint64_t* u, uint64_t bit, size_t stride) {
  const uint64_t mask = 0 - bit;
  for (size_t w = 0; w < stride; ++w) v[w] ^= u[w] & mask;
}

/// (a ^ s) > y, or (a ^ s) >= y when !strict: the subtree-maximum test of
/// MinGeq / MinGt, without materializing a ^ s.
bool XorAbove(const uint64_t* a, const uint64_t* s, const uint64_t* y,
              size_t stride, bool strict) {
  for (size_t w = 0; w < stride; ++w) {
    const uint64_t x = a[w] ^ s[w];
    if (x != y[w]) return x > y[w];
  }
  return !strict;
}

/// The columns of `m` (`width` rows) as words, the word builder's input.
std::vector<uint64_t> ColumnWords(const Gf2Matrix& m, int width) {
  MCF0_CHECK(m.cols() == 0 || m.rows() == width);
  const size_t stride = static_cast<size_t>(width + 63) / 64;
  std::vector<uint64_t> columns(static_cast<size_t>(m.cols()) * stride);
  for (int j = 0; j < m.cols(); ++j) {
    uint64_t* column = columns.data() + static_cast<size_t>(j) * stride;
    for (int i = 0; i < width; ++i) {
      if (m.Get(i, j)) column[i >> 6] |= 1ull << (63 - (i & 63));
    }
  }
  return columns;
}

}  // namespace

AffineImage::AffineImage(const Gf2Matrix& m, const BitVec& c)
    : AffineImage(c.size(), ColumnWords(m, c.size()), c.words()) {}

AffineImage::AffineImage(int width, std::span<const uint64_t> directions,
                         std::span<const uint64_t> offset)
    : width_(width), stride_(static_cast<size_t>(width + 63) / 64) {
  MCF0_CHECK(width >= 0 && offset.size() == stride_);
  const size_t q = stride_ == 0 ? 0 : directions.size() / stride_;
  MCF0_CHECK(q * stride_ == directions.size());
  // The rank r is at most q: room for the representative and 2q + 1
  // values while the basis grows in the first slots after it, trimmed to
  // 2r + 2 once the suffixes are in.
  words_.resize((2 * q + 2) * stride_);
  pivots_.reserve(q);
  uint64_t* basis = words_.data() + stride_;
  std::copy(directions.begin(), directions.end(), basis);
  size_t r = 0;
  for (size_t k = 0; k < q; ++k) {
    // Slots r..k hold spent directions, so slot r takes the candidate.
    uint64_t* v = basis + r * stride_;
    if (k != r) std::copy_n(basis + k * stride_, stride_, v);
    // Basis vectors vanish on each other's pivots, so v's own pivot bits
    // are the reduction coefficients.
    for (size_t i = 0; i < r; ++i) {
      XorIf(v, basis + i * stride_, BitAt(v, pivots_[i]), stride_);
    }
    const uint64_t* lead =
        std::find_if(v, v + stride_, [](uint64_t w) { return w != 0; });
    if (lead == v + stride_) continue;  // dependent on earlier directions
    const int pivot =
        static_cast<int>(lead - v) * 64 + std::countl_zero(*lead);
    // Back-substitute so the earlier vectors vanish at the new pivot.
    for (size_t i = 0; i < r; ++i) {
      uint64_t* u = basis + i * stride_;
      XorIf(u, v, BitAt(u, pivot), stride_);
    }
    const auto at = std::lower_bound(pivots_.begin(), pivots_.end(), pivot);
    const size_t pos = static_cast<size_t>(at - pivots_.begin());
    pivots_.insert(at, pivot);
    std::rotate(basis + pos * stride_, v, v + stride_);
    ++r;
  }
  // Representative: the offset with every pivot bit cleared.
  uint64_t* rep = words_.data();
  std::copy(offset.begin(), offset.end(), rep);
  for (size_t i = 0; i < r; ++i) {
    XorIf(rep, basis + i * stride_, BitAt(rep, pivots_[i]), stride_);
  }
  // Suffix XORs over the spent direction slots; suffix_r = 0.
  uint64_t* suffix = basis + r * stride_;
  std::fill_n(suffix + r * stride_, stride_, 0);
  for (size_t i = r; i-- > 0;) {
    for (size_t w = 0; w < stride_; ++w) {
      suffix[i * stride_ + w] =
          suffix[(i + 1) * stride_ + w] ^ basis[i * stride_ + w];
    }
  }
  words_.resize((2 * r + 2) * stride_);
}

std::optional<AffineImage> AffineImage::FromSolutionSpace(const Gf2Matrix& a,
                                                          const BitVec& b) {
  auto sol = SolveLinearSystem(a, b);
  if (!sol.has_value()) return std::nullopt;
  // {x : A x = b} = { K t + x0 : t } with K the kernel-basis columns.
  return AffineImage(sol->kernel, sol->x0);
}

bool AffineImage::Step(uint64_t* e, uint64_t* tau) const {
  const int r = dim();
  const int ones = std::countr_one(*tau);
  if (ones >= r) return false;  // tau = 2^r - 1: the last element
  MCF0_CHECK(ones < 64);        // past 2^64 elements (r > 64 only)
  // tau + 1 flips positions r - 1 - ones .. r - 1: one suffix XOR.
  const uint64_t* s = Suffix(r - 1 - ones);
  for (size_t w = 0; w < stride_; ++w) e[w] ^= s[w];
  ++*tau;
  return true;
}

BitVec AffineImage::Element(const BitVec& tau) const {
  MCF0_CHECK(tau.size() == dim());
  std::vector<uint64_t> e(Rep(), Rep() + stride_);
  for (int i = 0; i < dim(); ++i) {
    XorIf(e.data(), Basis(i), tau.Get(i), stride_);
  }
  return BitVec::FromWords(width_, std::move(e));
}

BitVec AffineImage::Min() const {
  return BitVec::FromWords(width_,
                           std::vector<uint64_t>(Rep(), Rep() + stride_));
}

BitVec AffineImage::Max() const {
  std::vector<uint64_t> e(Rep(), Rep() + stride_);
  XorIf(e.data(), Suffix(0), 1, stride_);
  return BitVec::FromWords(width_, std::move(e));
}

bool AffineImage::Contains(const BitVec& y) const {
  if (y.size() != width_) return false;
  // The representative is zero on every pivot, so y is a member iff
  // y ^ rep equals the basis combination that y's own pivot bits select.
  const uint64_t* yw = y.words().data();
  for (size_t w = 0; w < stride_; ++w) {
    uint64_t z = yw[w] ^ Rep()[w];
    for (int i = 0; i < dim(); ++i) {
      z ^= Basis(i)[w] & (0 - BitAt(yw, pivots_[i]));
    }
    if (z != 0) return false;
  }
  return true;
}

std::optional<BitVec> AffineImage::Descend(const BitVec& y, bool strict) const {
  MCF0_CHECK(y.size() == width_);
  // Walk the coefficient tree from the most significant coefficient. The
  // set's elements are ordered exactly as their coefficient words tau, so
  // the answer lies in the leftmost subtree whose maximum is >= y (> y
  // when strict). Subtree maxima are acc ^ suffix, compared word by word.
  const uint64_t* yw = y.words().data();
  if (!XorAbove(Rep(), Suffix(0), yw, stride_, strict)) return std::nullopt;
  std::vector<uint64_t> acc(Rep(), Rep() + stride_);
  for (int i = 0; i < dim(); ++i) {
    if (!XorAbove(acc.data(), Suffix(i + 1), yw, stride_, strict)) {
      XorIf(acc.data(), Basis(i), 1, stride_);  // descend right
    }
    // else descend left (coefficient 0): acc unchanged.
  }
  return BitVec::FromWords(width_, std::move(acc));
}

std::optional<BitVec> AffineImage::MinGeq(const BitVec& y) const {
  return Descend(y, /*strict=*/false);
}

std::optional<BitVec> AffineImage::MinGt(const BitVec& y) const {
  return Descend(y, /*strict=*/true);
}

std::vector<BitVec> AffineImage::FirstP(uint64_t p) const {
  std::vector<BitVec> out;
  if (p == 0) return out;
  if (dim() <= 63) out.reserve(std::min(p, CountU64()));
  std::vector<uint64_t> e(Rep(), Rep() + stride_);
  uint64_t tau = 0;
  do {
    out.push_back(BitVec::FromWords(width_, e));
  } while (out.size() < p && Step(e.data(), &tau));
  return out;
}

int AffineImage::MaxTrailingZeros() const {
  // Largest t such that the linear system "last t bits of rep + sum eps_i
  // basis_i are all zero" is satisfiable in eps. Add one equation per bit
  // position from the end until inconsistent.
  Gf2Eliminator elim(dim());
  int t = 0;
  for (int j = width_ - 1; j >= 0; --j) {
    BitVec row(dim());
    for (int i = 0; i < dim(); ++i) {
      if (BitAt(Basis(i), j) != 0) row.Set(i, true);
    }
    if (elim.AddEquation(row, BitAt(Rep(), j) != 0) ==
        AddResult::kInconsistent) {
      break;
    }
    ++t;
  }
  return t;
}

UnionLexEnumerator::UnionLexEnumerator(std::vector<AffineImage> sets)
    : sets_(std::move(sets)) {
  if (!sets_.empty()) {
    width_ = sets_.front().width();
    stride_ = sets_.front().stride_;
  }
  next_.resize(sets_.size() * stride_);
  tau_.assign(sets_.size(), 0);
  last_.assign(std::max<size_t>(stride_, 1), 0);  // data() is never null
  heap_.reserve(sets_.size());
  for (size_t s = 0; s < sets_.size(); ++s) {
    MCF0_CHECK(sets_[s].width() == width_);
    // tau = 0: each set starts at its minimum, the representative.
    std::copy_n(sets_[s].Rep(), stride_, next_.data() + s * stride_);
    heap_.push_back(static_cast<uint32_t>(s));
  }
  std::make_heap(heap_.begin(), heap_.end(),
                 [this](uint32_t a, uint32_t b) { return Above(a, b); });
}

bool UnionLexEnumerator::Above(uint32_t a, uint32_t b) const {
  const uint64_t* x = next_.data() + a * stride_;
  const uint64_t* y = next_.data() + b * stride_;
  return std::lexicographical_compare(y, y + stride_, x, x + stride_);
}

const uint64_t* UnionLexEnumerator::NextWords() {
  if (heap_.empty()) return nullptr;
  const auto above = [this](uint32_t a, uint32_t b) { return Above(a, b); };
  std::copy_n(next_.data() + heap_.front() * stride_, stride_, last_.data());
  // Step every set whose next element is the one emitted: overlapping
  // images share elements, and each is emitted once.
  while (!heap_.empty() &&
         std::equal(last_.begin(), last_.begin() + stride_,
                    next_.data() + heap_.front() * stride_)) {
    std::pop_heap(heap_.begin(), heap_.end(), above);
    const uint32_t s = heap_.back();
    if (sets_[s].Step(next_.data() + s * stride_, &tau_[s])) {
      std::push_heap(heap_.begin(), heap_.end(), above);
    } else {
      heap_.pop_back();
    }
  }
  return last_.data();
}

std::optional<BitVec> UnionLexEnumerator::Next() {
  const uint64_t* e = NextWords();
  if (e == nullptr) return std::nullopt;
  return BitVec::FromWords(width_, std::vector<uint64_t>(e, e + stride_));
}

std::vector<BitVec> UnionLexEnumerator::FirstP(uint64_t p) {
  // No reserve: p may be a huge Thresh for a small union.
  std::vector<BitVec> out;
  for (uint64_t i = 0; i < p; ++i) {
    auto next = Next();
    if (!next.has_value()) break;
    out.push_back(std::move(*next));
  }
  return out;
}

}  // namespace mcf0
