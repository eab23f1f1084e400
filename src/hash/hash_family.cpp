#include "hash/hash_family.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "common/rng.hpp"
#include "hash/gf2_kernels.hpp"

namespace mcf0 {

AffineHash::AffineHash(int n, int m, BitVec seed, BitVec b,
                       AffineHashKind kind, size_t repr_bits)
    : n_(n),
      m_(m),
      b_(std::move(b)),
      kind_(kind),
      repr_bits_(repr_bits),
      seed_(std::move(seed)) {
  MCF0_CHECK(n >= 1 && m >= 1 && seed_.size() == n + m - 1 &&
             b_.size() == m);
}

AffineHash::AffineHash(Gf2Matrix a, BitVec b, AffineHashKind kind,
                       size_t repr_bits)
    : n_(a.cols()),
      m_(a.rows()),
      b_(std::move(b)),
      kind_(kind),
      repr_bits_(repr_bits) {
  if (n_ <= 64) {
    packed_rows_.reserve(static_cast<size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      packed_rows_.push_back(n_ == 0 ? 0 : a.Row(i).words()[0]);
    }
  }
  rows_ = std::make_shared<const Gf2Matrix>(std::move(a));
}

AffineHash AffineHash::SampleToeplitz(int n, int m, Rng& rng) {
  MCF0_CHECK(n >= 1 && m >= 1);
  // Seed then offset: the draw order every seeded sketch depends on.
  BitVec seed = BitVec::Random(n + m - 1, rng);
  BitVec b = BitVec::Random(m, rng);
  const size_t repr = static_cast<size_t>(seed.size()) + static_cast<size_t>(m);
  return AffineHash(n, m, std::move(seed), std::move(b),
                    AffineHashKind::kToeplitz, repr);
}

AffineHash AffineHash::SampleXor(int n, int m, Rng& rng) {
  MCF0_CHECK(n >= 1 && m >= 1);
  Gf2Matrix a = Gf2Matrix::Random(m, n, rng);
  BitVec b = BitVec::Random(m, rng);
  const size_t repr = static_cast<size_t>(m) * static_cast<size_t>(n) +
                      static_cast<size_t>(m);
  return AffineHash(std::move(a), std::move(b), AffineHashKind::kXor, repr);
}

AffineHash AffineHash::SampleSparseXor(int n, int m, double row_density,
                                       Rng& rng) {
  MCF0_CHECK(n >= 1 && m >= 1);
  MCF0_CHECK(row_density > 0.0 && row_density <= 1.0);
  Gf2Matrix a = Gf2Matrix::RandomSparse(m, n, row_density, rng);
  BitVec b = BitVec::Random(m, rng);
  const size_t repr = static_cast<size_t>(m) * static_cast<size_t>(n) +
                      static_cast<size_t>(m);
  return AffineHash(std::move(a), std::move(b), AffineHashKind::kSparseXor,
                    repr);
}

AffineHash AffineHash::FromParts(Gf2Matrix a, BitVec b, AffineHashKind kind,
                                 size_t repr_bits) {
  MCF0_CHECK(b.size() == a.rows());
  const size_t repr = repr_bits > 0
                          ? repr_bits
                          : static_cast<size_t>(a.rows()) *
                                    static_cast<size_t>(a.cols()) +
                                static_cast<size_t>(a.rows());
  AffineHash h(std::move(a), std::move(b), kind, repr);
  if (kind == AffineHashKind::kToeplitz && h.n_ >= 1 && h.m_ >= 1 &&
      h.HasToeplitzMatrix()) {
    // Same function, seed form: evaluation takes the middle product, and
    // operator== can compare seeds with sampled hashes.
    return AffineHash(h.n_, h.m_, h.ToeplitzSeed(), std::move(h.b_), kind,
                      repr);
  }
  return h;
}

AffineHash AffineHash::FromToeplitzSeed(int n, int m, const BitVec& seed,
                                        BitVec b, size_t repr_bits) {
  MCF0_CHECK(n >= 1 && m >= 1);
  MCF0_CHECK(seed.size() == n + m - 1);
  return AffineHash(n, m, seed, std::move(b), AffineHashKind::kToeplitz,
                    repr_bits);
}

BitVec AffineHash::Row(int i) const {
  MCF0_CHECK(i >= 0 && i < m_);
  // row_i[j] = seed[i + n - 1 - j]: the window [i, i + n) reversed.
  if (!seed_.empty()) return seed_.Slice(i, n_).Reversed();
  return rows_->Row(i);
}

std::vector<uint64_t> AffineHash::Columns() const {
  const size_t width = static_cast<size_t>(OutputWords());
  std::vector<uint64_t> columns(static_cast<size_t>(n_) * width);
  const uint64_t tail =
      (m_ & 63) == 0 ? ~0ull : ~0ull << (64 - (m_ & 63));  // last word
  for (int j = 0; j < n_; ++j) {
    uint64_t* column = columns.data() + static_cast<size_t>(j) * width;
    if (seed_.empty()) {
      for (int i = 0; i < m_; ++i) {
        if (rows_->Get(i, j)) column[i >> 6] |= 1ull << (63 - (i & 63));
      }
      continue;
    }
    // Column j reads T[i][j] = seed[i + n - 1 - j] down i: the m-bit
    // window at bit n - 1 - j, one funnel shift per output word.
    const std::vector<uint64_t>& seed = seed_.words();
    const int start = n_ - 1 - j;
    const size_t first = static_cast<size_t>(start >> 6);
    const int shift = start & 63;
    for (size_t w = 0; w < width; ++w) {
      const size_t at = first + w;
      const uint64_t hi = at < seed.size() ? seed[at] : 0;
      const uint64_t lo = at + 1 < seed.size() ? seed[at + 1] : 0;
      column[w] = shift == 0 ? hi : (hi << shift) | (lo >> (64 - shift));
    }
    column[width - 1] &= tail;
  }
  return columns;
}

bool AffineHash::HasToeplitzMatrix() const {
  if (!seed_.empty()) return true;
  // Constant along diagonals: every entry equals its upper-left neighbor.
  const Gf2Matrix& a = *rows_;
  for (int i = 1; i < m_; ++i) {
    for (int j = 1; j < n_; ++j) {
      if (a.Get(i, j) != a.Get(i - 1, j - 1)) return false;
    }
  }
  return true;
}

BitVec AffineHash::ToeplitzSeed() const {
  if (!seed_.empty()) return seed_;
  MCF0_DCHECK(HasToeplitzMatrix());
  // T[i][j] = seed[i - j + n - 1]: indices [0, n) come from the first row
  // (right to left), indices [n, n + m - 1) run down the first column.
  const Gf2Matrix& a = *rows_;
  BitVec seed(n_ + m_ - 1);
  for (int j = 0; j < n_; ++j) seed.Set(n_ - 1 - j, a.Get(0, j));
  for (int i = 1; i < m_; ++i) seed.Set(i + n_ - 1, a.Get(i, 0));
  return seed;
}

void AffineHash::EvalRowsInto(std::span<const uint64_t> x, int l,
                              std::span<uint64_t> y) const {
  if (!seed_.empty()) {
    gf2k::ToeplitzAffine(seed_.words(), n_, l, b_.words(), x, y);
    return;
  }
  // Row hashes: one word-parallel row dot per output bit.
  std::fill(y.begin(), y.end(), 0);
  const Gf2Matrix& a = *rows_;
  for (int i = 0; i < l; ++i) {
    const std::vector<uint64_t>& row = a.Row(i).words();
    uint64_t acc = 0;
    for (size_t w = 0; w < row.size(); ++w) acc ^= row[w] & x[w];
    if ((std::popcount(acc) & 1) != static_cast<int>(b_.Get(i))) {
      y[static_cast<size_t>(i) >> 6] |= 1ull << (63 - (i & 63));
    }
  }
}

BitVec AffineHash::Eval(const BitVec& x) const {
  MCF0_CHECK(x.size() == n_);
  std::vector<uint64_t> y(static_cast<size_t>(OutputWords()));
  EvalRowsInto(x.words(), m_, y);
  return BitVec::FromWords(m_, std::move(y));
}

void AffineHash::EvalBatch(std::span<const uint64_t> xs,
                           std::span<uint64_t> ys) const {
  MCF0_CHECK(n_ >= 1 && n_ <= 64);
  const size_t width = static_cast<size_t>(OutputWords());
  MCF0_CHECK(ys.size() == xs.size() * width);
  // Elements in the BitVec layout: the low n bits at the top of the word.
  std::array<uint64_t, 256> packed;
  for (size_t base = 0; base < xs.size(); base += packed.size()) {
    const size_t len = std::min(packed.size(), xs.size() - base);
    for (size_t i = 0; i < len; ++i) {
      const uint64_t x = xs[base + i];
      packed[i] = n_ == 64 ? x : x << (64 - n_);
    }
    const std::span<const uint64_t> block(packed.data(), len);
    const std::span<uint64_t> out = ys.subspan(base * width, len * width);
    if (!seed_.empty()) {
      gf2k::ToeplitzAffine(seed_.words(), n_, m_, b_.words(), block, out);
    } else {
      for (size_t i = 0; i < len; ++i) {
        EvalRowsInto(block.subspan(i, 1), m_, out.subspan(i * width, width));
      }
    }
  }
}

BitVec AffineHash::EvalPrefix(const BitVec& x, int l) const {
  MCF0_CHECK(l >= 0 && l <= m());
  MCF0_CHECK(x.size() == n_);
  std::vector<uint64_t> y(static_cast<size_t>(l + 63) / 64);
  if (l > 0) EvalRowsInto(x.words(), l, y);
  return BitVec::FromWords(l, std::move(y));
}

uint64_t AffineHash::Eval64(uint64_t x) const {
  MCF0_CHECK(n() <= 64 && m() <= 64);
  // Pack x the way BitVec::FromU64 does (big-endian at the top of the
  // word); the result is the m-bit value most-significant-first, matching
  // BitVec::ToU64.
  const uint64_t xw =
      (n() == 64) ? x : ((x & ((1ull << n()) - 1)) << (64 - n()));
  if (!seed_.empty()) {
    uint64_t y = 0;
    gf2k::ToeplitzAffine(seed_.words(), n_, m_, b_.words(),
                         std::span<const uint64_t>(&xw, 1),
                         std::span<uint64_t>(&y, 1));
    return m_ == 64 ? y : y >> (64 - m_);
  }
  // Row hashes: each output bit is parity(row_word & x_word).
  uint64_t out = 0;
  for (int i = 0; i < m(); ++i) {
    out = (out << 1) |
          static_cast<uint64_t>(
              std::popcount(packed_rows_[static_cast<size_t>(i)] & xw) & 1);
  }
  return out ^ b_.ToU64();
}

AffineHash AffineHash::PrefixHash(int l) const {
  MCF0_CHECK(l >= 1 && l <= m());
  if (!seed_.empty()) {
    // Rows [0, l) of a Toeplitz matrix read seed bits [0, n + l - 1).
    return AffineHash(n_, l, seed_.Prefix(n_ + l - 1), b_.Prefix(l), kind_,
                      repr_bits_);
  }
  return AffineHash(rows_->PrefixRows(l), b_.Prefix(l), kind_, repr_bits_);
}

size_t AffineHash::RepresentationBits() const { return repr_bits_; }

bool AffineHash::operator==(const AffineHash& o) const {
  if (kind_ != o.kind_ || n_ != o.n_ || !(b_ == o.b_)) return false;
  // A kToeplitz hash is in seed form exactly when its matrix is Toeplitz,
  // so a seed-form and a row-form hash of one kind never share a matrix.
  if (!seed_.empty() || !o.seed_.empty()) return seed_ == o.seed_;
  return *rows_ == *o.rows_;
}

}  // namespace mcf0
