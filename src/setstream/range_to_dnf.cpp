#include "setstream/range_to_dnf.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace mcf0 {
namespace {

/// Appends the term fixing the top (nbits - j) bits of the coordinate to
/// `prefix_value >> j`, i.e. the dyadic cube [prefix, prefix + 2^j - 1].
/// Low bits fixed by `low_mask_bits`/`low_value` (arithmetic progressions)
/// are conjoined; an inconsistent combination yields no term.
void EmitCube(uint64_t base, int free_bits, int nbits, int var_offset,
              int fixed_low_bits, uint64_t low_value, std::vector<Term>* out) {
  std::vector<Lit> lits;
  lits.reserve(nbits);
  // Fixed high bits: positions 0 .. nbits - free_bits - 1 (MSB first).
  for (int pos = 0; pos < nbits - free_bits; ++pos) {
    const bool bit = (base >> (nbits - 1 - pos)) & 1;
    lits.emplace_back(var_offset + pos, !bit);
  }
  // Fixed low bits from the progression step (may overlap the cube's fixed
  // high bits; Term::Make rejects contradictions).
  for (int i = 0; i < fixed_low_bits; ++i) {
    const bool bit = (low_value >> i) & 1;
    lits.emplace_back(var_offset + nbits - 1 - i, !bit);
  }
  auto term = Term::Make(std::move(lits));
  if (term.has_value()) out->push_back(std::move(*term));
}

}  // namespace

std::vector<Term> RangeDimensionTerms(uint64_t lo, uint64_t hi, int log2_step,
                                      int nbits, int var_offset) {
  MCF0_CHECK(nbits >= 1 && nbits <= kMaxRangeDimensionBits);
  MCF0_CHECK(lo <= hi && hi < (1ull << nbits));
  MCF0_CHECK(log2_step >= 0 && log2_step < nbits);
  std::vector<Term> terms;
  // Standard dyadic decomposition of [lo, hi]: greedily peel maximal
  // aligned cubes from both ends. At most 2 * nbits cubes.
  uint64_t a = lo;
  const uint64_t b_plus = hi + 1;  // work half-open [a, b_plus)
  const uint64_t low_value =
      lo & ((log2_step > 0) ? ((1ull << log2_step) - 1) : 0);
  while (a < b_plus) {
    // Largest aligned cube starting at a that fits in [a, b_plus):
    // size 2^j with j bounded by the alignment of a and by the remainder.
    const uint64_t remaining = b_plus - a;
    int j = (a == 0) ? nbits : std::min(nbits, std::countr_zero(a));
    j = std::min(j, 63 - std::countl_zero(remaining));
    EmitCube(a, j, nbits, var_offset, log2_step, low_value, &terms);
    a += 1ull << j;
  }
  return terms;
}

RangeTermEnumerator::RangeTermEnumerator(const MultiDimRange& range) {
  num_vars_ = range.TotalBits();
  per_dim_.reserve(range.dims());
  int offset = 0;
  for (int j = 0; j < range.dims(); ++j) {
    const DimRange& d = range.Dim(j);
    per_dim_.push_back(RangeDimensionTerms(d.lo, d.hi, d.log2_step,
                                           range.bits()[j], offset));
    offset += range.bits()[j];
  }
}

namespace {

/// a * b, or UINT64_MAX when the product does not fit.
uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  uint64_t product = 0;
  return __builtin_mul_overflow(a, b, &product) ? UINT64_MAX : product;
}

}  // namespace

uint64_t RangeTermEnumerator::NumTerms() const {
  uint64_t count = 1;
  for (const auto& terms : per_dim_) {
    count = SaturatingMul(count, static_cast<uint64_t>(terms.size()));
  }
  return count;
}

uint64_t RangeTermEnumerator::LiteralBound() const {
  return SaturatingMul(NumTerms(), static_cast<uint64_t>(num_vars_));
}

Term RangeTermEnumerator::TermAt(uint64_t i) const {
  MCF0_CHECK(i < NumTerms());
  std::vector<Lit> lits;
  // Mixed-radix digit decomposition of i selects one dyadic piece per dim.
  for (const auto& terms : per_dim_) {
    const uint64_t radix = terms.size();
    const Term& piece = terms[i % radix];
    i /= radix;
    lits.insert(lits.end(), piece.lits().begin(), piece.lits().end());
  }
  auto term = Term::Make(std::move(lits));
  MCF0_CHECK(term.has_value());  // disjoint variable blocks cannot clash
  return std::move(*term);
}

std::vector<Term> RangeTermEnumerator::AllTerms() const {
  const uint64_t count = NumTerms();
  std::vector<Term> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) out.push_back(TermAt(i));
  return out;
}

Dnf RangeToDnf(const MultiDimRange& range) {
  RangeTermEnumerator terms(range);
  Dnf dnf(terms.num_vars());
  const uint64_t count = terms.NumTerms();
  for (uint64_t i = 0; i < count; ++i) dnf.AddTerm(terms.TermAt(i));
  return dnf;
}

}  // namespace mcf0
