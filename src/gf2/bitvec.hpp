/// \file bitvec.hpp
/// \brief Dynamic bit vector with MSB-first (lexicographic) semantics.
///
/// A `BitVec` models a bit string y1 y2 ... ym as used throughout the paper:
/// index 0 is the *first* character of the string, so lexicographic order on
/// strings equals the natural order defined here. Internally bits are packed
/// into 64-bit words with string position j stored at bit (63 - j % 64) of
/// word j/64, which makes lexicographic comparison a plain big-endian word
/// comparison and keeps XOR/AND/dot-product word-parallel.
///
/// The paper's primitives map directly:
///  * prefix slice h_m(x) = "first m bits"      -> Prefix(m)
///  * TrailZero(z) = longest all-zero suffix    -> TrailingZeros()
///  * lexicographic minimum / comparisons       -> operator<=>
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace mcf0 {

class Rng;

/// Fixed-length bit string over {0,1} with word-packed storage.
class BitVec {
 public:
  /// Empty (zero-length) string.
  BitVec() = default;

  /// All-zero string of `size` bits.
  explicit BitVec(int size) : size_(size), words_(NumWords(size), 0) {
    MCF0_CHECK(size >= 0);
  }

  /// The `nbits`-bit big-endian representation of `value`; position 0 is the
  /// most significant of the `nbits` bits. Requires value < 2^nbits when
  /// nbits < 64.
  static BitVec FromU64(uint64_t value, int nbits);

  /// Adopts `words` (the layout above, ceil(size / 64) of them) as a
  /// `size`-bit string; bits past `size` in the last word are cleared.
  /// How word-level kernels (gf2k::ToeplitzAffine) hand back a BitVec
  /// without a per-bit copy.
  static BitVec FromWords(int size, std::vector<uint64_t> words);

  /// Parses a string of '0'/'1' characters.
  static BitVec FromString(const std::string& s);

  /// Uniformly random string of `size` bits.
  static BitVec Random(int size, Rng& rng);

  /// All-ones string of `size` bits.
  static BitVec Ones(int size);

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Reads the bit at string position `i` (0 = first / most significant).
  bool Get(int i) const {
    MCF0_DCHECK(i >= 0 && i < size_);
    return (words_[i >> 6] >> (63 - (i & 63))) & 1u;
  }

  /// Writes the bit at string position `i`.
  void Set(int i, bool v) {
    MCF0_DCHECK(i >= 0 && i < size_);
    const uint64_t mask = 1ull << (63 - (i & 63));
    if (v) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  /// Flips the bit at string position `i`.
  void Flip(int i) {
    MCF0_DCHECK(i >= 0 && i < size_);
    words_[i >> 6] ^= 1ull << (63 - (i & 63));
  }

  /// In-place XOR with a same-length vector.
  BitVec& operator^=(const BitVec& o);
  /// In-place AND with a same-length vector.
  BitVec& operator&=(const BitVec& o);
  /// In-place OR with a same-length vector.
  BitVec& operator|=(const BitVec& o);

  friend BitVec operator^(BitVec a, const BitVec& b) { return a ^= b; }
  friend BitVec operator&(BitVec a, const BitVec& b) { return a &= b; }
  friend BitVec operator|(BitVec a, const BitVec& b) { return a |= b; }

  /// Number of set bits.
  int Popcount() const;

  /// True iff all bits are zero.
  bool IsZero() const;

  /// GF(2) inner product: parity of (*this AND o). Vectors must have equal
  /// length.
  bool DotF2(const BitVec& o) const;

  /// Index of the first (most significant) set bit, or -1 if zero.
  int LeadingBit() const;

  /// Length of the all-zero *suffix* — the paper's TrailZero. Returns size()
  /// for the zero vector.
  int TrailingZeros() const;

  /// First `l` bits as a new vector (the paper's prefix slice). l <= size().
  BitVec Prefix(int l) const;

  /// Contiguous window [start, start + len) as a new vector. Word-parallel
  /// (shift-and-merge per output word, not per-bit Get/Set).
  BitVec Slice(int start, int len) const;

  /// The string read back-to-front: Reversed()[p] = (*this)[size()-1-p].
  /// A Toeplitz row is a reversed window of the diagonal seed.
  BitVec Reversed() const;

  /// Concatenation: *this followed by `o`.
  BitVec Concat(const BitVec& o) const;

  /// Interprets the string as a big-endian integer and adds one.
  /// Returns false on overflow (string was all ones; result wraps to zero).
  bool Increment();

  /// Value as uint64; requires size() <= 64. Bit 0 of the string is the most
  /// significant bit of the result's low size() bits.
  uint64_t ToU64() const;

  /// Value as a double, interpreting the string as a big-endian integer.
  /// Exact up to 53 significant bits; used for ratio estimates like
  /// Thresh * 2^m / max(S), where rounding is negligible.
  double ToDouble() const;

  /// "0101..."-style rendering.
  std::string ToString() const;

  /// 64-bit mixing hash for container use (not a hash-family member).
  uint64_t Hash64() const;

  /// Lexicographic comparison; for equal-length vectors this is also
  /// big-endian numeric comparison.
  std::strong_ordering operator<=>(const BitVec& o) const;
  bool operator==(const BitVec& o) const {
    return size_ == o.size_ && words_ == o.words_;
  }

  /// Direct word access (row operations in Gf2Matrix / the SAT solver's
  /// Gaussian elimination run word-parallel over these).
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  static int NumWords(int size) { return (size + 63) / 64; }
  /// Zeroes the unused low bits of the final word (invariant after ops).
  void MaskTail();

  int size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace mcf0

namespace std {
template <>
struct hash<mcf0::BitVec> {
  size_t operator()(const mcf0::BitVec& v) const { return v.Hash64(); }
};
}  // namespace std
