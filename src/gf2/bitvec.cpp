#include "gf2/bitvec.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "common/rng.hpp"

namespace mcf0 {

BitVec BitVec::FromU64(uint64_t value, int nbits) {
  MCF0_CHECK(nbits >= 0 && nbits <= 64);
  MCF0_CHECK(nbits == 64 || value < (1ull << nbits));
  BitVec v(nbits);
  if (nbits > 0) {
    // Place the nbits-bit big-endian representation at the top of word 0.
    v.words_[0] = value << (64 - nbits);
  }
  return v;
}

BitVec BitVec::FromWords(int size, std::vector<uint64_t> words) {
  MCF0_CHECK(size >= 0 && words.size() == static_cast<size_t>(NumWords(size)));
  BitVec v;
  v.size_ = size;
  v.words_ = std::move(words);
  v.MaskTail();
  return v;
}

BitVec BitVec::FromString(const std::string& s) {
  BitVec v(static_cast<int>(s.size()));
  for (int i = 0; i < v.size_; ++i) {
    MCF0_CHECK(s[i] == '0' || s[i] == '1');
    v.Set(i, s[i] == '1');
  }
  return v;
}

BitVec BitVec::Random(int size, Rng& rng) {
  BitVec v(size);
  for (auto& w : v.words_) w = rng.NextU64();
  v.MaskTail();
  return v;
}

BitVec BitVec::Ones(int size) {
  BitVec v(size);
  for (auto& w : v.words_) w = ~0ull;
  v.MaskTail();
  return v;
}

void BitVec::MaskTail() {
  const int rem = size_ & 63;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= ~0ull << (64 - rem);
  }
}

BitVec& BitVec::operator^=(const BitVec& o) {
  MCF0_DCHECK(size_ == o.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
  return *this;
}

BitVec& BitVec::operator&=(const BitVec& o) {
  MCF0_DCHECK(size_ == o.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& o) {
  MCF0_DCHECK(size_ == o.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

int BitVec::Popcount() const {
  int c = 0;
  for (uint64_t w : words_) c += std::popcount(w);
  return c;
}

bool BitVec::IsZero() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool BitVec::DotF2(const BitVec& o) const {
  MCF0_DCHECK(size_ == o.size_);
  uint64_t acc = 0;
  for (size_t i = 0; i < words_.size(); ++i) acc ^= words_[i] & o.words_[i];
  return std::popcount(acc) & 1;
}

int BitVec::LeadingBit() const {
  for (size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] != 0) {
      return static_cast<int>(i) * 64 + std::countl_zero(words_[i]);
    }
  }
  return -1;
}

int BitVec::TrailingZeros() const {
  if (size_ == 0) return 0;
  int count = 0;
  // Final (possibly partial) word: its used bits occupy the high
  // `used` positions; the string's last bit sits at bit (64 - used).
  const int used = size_ - 64 * (static_cast<int>(words_.size()) - 1);
  const uint64_t last = words_.back() >> (64 - used);
  if (last != 0) return std::min(std::countr_zero(last), used);
  count += used;
  for (int i = static_cast<int>(words_.size()) - 2; i >= 0; --i) {
    if (words_[i] != 0) return count + std::countr_zero(words_[i]);
    count += 64;
  }
  return count;  // all-zero vector
}

BitVec BitVec::Prefix(int l) const {
  MCF0_CHECK(l >= 0 && l <= size_);
  BitVec out(l);
  const int nw = NumWords(l);
  for (int i = 0; i < nw; ++i) out.words_[i] = words_[i];
  out.MaskTail();
  return out;
}

BitVec BitVec::Slice(int start, int len) const {
  MCF0_CHECK(start >= 0 && len >= 0 && start + len <= size_);
  BitVec out(len);
  if (len == 0) return out;
  const int w0 = start >> 6;
  const int shift = start & 63;
  for (size_t k = 0; k < out.words_.size(); ++k) {
    uint64_t v = words_[w0 + k] << shift;
    if (shift != 0 && w0 + k + 1 < words_.size()) {
      v |= words_[w0 + k + 1] >> (64 - shift);
    }
    out.words_[k] = v;
  }
  out.MaskTail();
  return out;
}

BitVec BitVec::Reversed() const {
  BitVec out(size_);
  for (int i = 0; i < size_; ++i) out.Set(i, Get(size_ - 1 - i));
  return out;
}

BitVec BitVec::Concat(const BitVec& o) const {
  BitVec out(size_ + o.size_);
  for (int i = 0; i < size_; ++i) out.Set(i, Get(i));
  for (int i = 0; i < o.size_; ++i) out.Set(size_ + i, o.Get(i));
  return out;
}

bool BitVec::Increment() {
  // Big-endian +1: carry propagates from the last string position backward,
  // i.e. from the low bits of the last word toward word 0. Unused tail bits
  // of the final word are zero, so seed the carry at the tail position.
  const int rem = size_ & 63;
  const uint64_t one = (rem == 0) ? 1ull : (1ull << (64 - rem));
  if (words_.empty()) return false;
  uint64_t carry = one;
  for (int i = static_cast<int>(words_.size()) - 1; i >= 0 && carry != 0; --i) {
    const uint64_t before = words_[i];
    words_[i] = before + carry;
    carry = (words_[i] < before) ? 1 : 0;
  }
  MaskTail();
  return carry == 0;
}

uint64_t BitVec::ToU64() const {
  MCF0_CHECK(size_ <= 64);
  if (size_ == 0) return 0;
  return words_[0] >> (64 - size_);
}

double BitVec::ToDouble() const {
  // sum_i words_[i] * 2^(size - 64*(i+1)); accumulate then rescale once.
  double val = 0.0;
  for (const uint64_t w : words_) {
    val = val * 0x1.0p64 + static_cast<double>(w);
  }
  const int shift = size_ - 64 * static_cast<int>(words_.size());
  return std::ldexp(val, shift);
}

std::string BitVec::ToString() const {
  std::string s(size_, '0');
  for (int i = 0; i < size_; ++i) {
    if (Get(i)) s[i] = '1';
  }
  return s;
}

uint64_t BitVec::Hash64() const {
  // FNV-1a over words mixed with the length; adequate for hash containers.
  uint64_t h = 0xcbf29ce484222325ull ^ static_cast<uint64_t>(size_);
  for (uint64_t w : words_) {
    h ^= w;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  }
  return h;
}

std::strong_ordering BitVec::operator<=>(const BitVec& o) const {
  const size_t common = std::min(words_.size(), o.words_.size());
  for (size_t i = 0; i < common; ++i) {
    if (words_[i] != o.words_[i]) {
      return words_[i] < o.words_[i] ? std::strong_ordering::less
                                     : std::strong_ordering::greater;
    }
  }
  // Equal on the common prefix: the shorter string is lexicographically
  // smaller (it is a proper prefix) unless equal length.
  return size_ <=> o.size_;
}

}  // namespace mcf0
