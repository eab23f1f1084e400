#include "hash/gf2_poly.hpp"

#include <array>
#include <bit>
#include <mutex>
#include <optional>

#include "common/rng.hpp"
#include "hash/gf2_kernels.hpp"
#include "obs/metrics.hpp"

namespace mcf0 {
namespace {

/// Polynomial over GF(2) of degree <= 127 as two words (lo = x^0..x^63).
struct Poly128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool IsZero() const { return hi == 0 && lo == 0; }

  int Degree() const {
    if (hi != 0) return 127 - std::countl_zero(hi);
    if (lo != 0) return 63 - std::countl_zero(lo);
    return -1;  // zero polynomial
  }

  void XorShifted(Poly128 f, int shift) {
    // *this ^= f * x^shift; caller guarantees no overflow past bit 127.
    if (shift == 0) {
      hi ^= f.hi;
      lo ^= f.lo;
      return;
    }
    if (shift >= 64) {
      hi ^= f.lo << (shift - 64);
      return;
    }
    hi ^= (f.hi << shift) | (f.lo >> (64 - shift));
    lo ^= f.lo << shift;
  }
};

/// p mod f for a nonzero modulus polynomial f (deg f >= 0; anything mod a
/// nonzero constant is 0, which the loop below produces naturally).
Poly128 PolyMod(Poly128 p, Poly128 f) {
  const int df = f.Degree();
  MCF0_DCHECK(df >= 0);
  int dp = p.Degree();
  while (dp >= df) {
    p.XorShifted(f, dp - df);
    dp = p.Degree();
  }
  return p;
}

Poly128 PolyGcd(Poly128 a, Poly128 b) {
  while (!b.IsZero()) {
    Poly128 r = PolyMod(a, b);
    a = b;
    b = r;
  }
  return a;
}

Poly128 ModulusPoly(uint64_t poly_low, int degree) {
  Poly128 f;
  f.lo = poly_low;
  if (degree == 64) {
    f.hi = 1;
  } else {
    f.lo |= 1ull << degree;
  }
  return f;
}

}  // namespace

bool Gf2Field::IsIrreducible(uint64_t poly_low, int degree) {
  MCF0_CHECK(degree >= 1 && degree <= 64);
  if (degree == 1) return true;  // x + c is always irreducible
  if ((poly_low & 1) == 0) return false;  // divisible by x
  const Poly128 f = ModulusPoly(poly_low, degree);

  // Rabin: f (deg d) is irreducible iff x^(2^d) == x (mod f) and for every
  // prime p | d, gcd(x^(2^(d/p)) - x, f) = 1. The repeated squarings mod
  // the candidate run on the gf2k kernels (f = x^degree + poly_low is
  // exactly the fold-reduction form).
  auto x_to_2_to = [&](int k) {
    uint64_t e = 2;  // x
    for (int i = 0; i < k; ++i) e = gf2k::Mul(e, e, degree, poly_low);
    return e;
  };

  if (x_to_2_to(degree) != 2) return false;

  // For each prime p | d, gcd(x^(2^(d/p)) - x, f) must be 1. A zero
  // witness means f divides x^(2^(d/p)) - x, i.e. every factor of f has
  // degree dividing d/p < d — certainly reducible.
  auto factor_check = [&](int p) {
    Poly128 g;
    g.lo = x_to_2_to(degree / p) ^ 2;  // x^(2^(d/p)) - x  (mod f)
    if (g.IsZero()) return false;
    return PolyGcd(f, g).Degree() <= 0;
  };
  int d = degree;
  for (int p = 2; p * p <= d; ++p) {
    if (d % p != 0) continue;
    while (d % p == 0) d /= p;
    if (!factor_check(p)) return false;
  }
  if (d > 1 && !factor_check(d)) return false;  // remaining prime factor
  return true;
}

namespace {

/// One actual irreducibility scan for degree w. Counted so the interned
/// fields below can be pinned to "one scan per degree, ever"
/// (tests/gf2_poly_test.cpp).
uint64_t ScanForModulusLow(int w) {
  static obs::Counter* scans =
      obs::Registry::Global().GetCounter("mcf0_gf2_modulus_scans_total");
  scans->Increment();
  const uint64_t mask = (w == 64) ? ~0ull : ((1ull << w) - 1);
  // Scan odd low-parts for the first irreducible modulus. Irreducible
  // polynomials have density ~1/w, so this terminates quickly.
  for (uint64_t low = 1;; low += 2) {
    MCF0_CHECK(low <= mask);
    if (Gf2Field::IsIrreducible(low, w)) return low;
  }
}

}  // namespace

const Gf2Field& Gf2Field::Of(int w) {
  MCF0_CHECK(w >= 1 && w <= 64);
  struct Slot {
    std::once_flag once;
    std::optional<Gf2Field> field;
  };
  // Indexed by w in [1, 64]. Never destroyed, so a hash in a sketch of
  // static storage duration never dangles at exit. call_once keeps each
  // scan thread-safe and at-most-once.
  static auto& slots = *new std::array<Slot, 65>();
  Slot& slot = slots[static_cast<size_t>(w)];
  std::call_once(slot.once, [&slot, w] {
    slot.field = Gf2Field(w, ScanForModulusLow(w));
  });
  return *slot.field;
}

Gf2Field::Gf2Field(int w) : Gf2Field(Of(w)) {}

namespace {

/// The low w bits of floor(x^(2w) / f) for f = x^w + mod_low, by long
/// division. Only the remainder's bits at x^w and up steer the quotient,
/// and after the leading step (quotient bit w, which leaves mod_low x^w)
/// they fit one word: bit k of `top` is the coefficient of x^(w+k).
uint64_t BarrettMuLow(int w, uint64_t mod_low) {
  uint64_t top = mod_low;
  uint64_t mu_low = 0;
  for (int k = w - 1; k >= 0; --k) {
    if (((top >> k) & 1) == 0) continue;
    mu_low |= 1ull << k;
    // Subtract f x^k: clears bit k and adds mod_low x^k's part >= x^w.
    top ^= (1ull << k) | (w - k >= 64 ? 0 : mod_low >> (w - k));
  }
  return mu_low;
}

}  // namespace

Gf2Field::Gf2Field(int w, uint64_t mod_low)
    : w_(w),
      mod_low_(mod_low),
      mu_low_(BarrettMuLow(w, mod_low)),
      mask_((w == 64) ? ~0ull : ((1ull << w) - 1)) {}

uint64_t Gf2Field::Mul(uint64_t a, uint64_t b) const {
  MCF0_DCHECK((a & ~mask_) == 0 && (b & ~mask_) == 0);
  return gf2k::Mul(a, b, w_, mod_low_);
}

uint64_t Gf2Field::Pow(uint64_t a, uint64_t e) const {
  uint64_t result = 1;
  uint64_t base = a;
  while (e != 0) {
    if (e & 1) result = Mul(result, base);
    base = Mul(base, base);
    e >>= 1;
  }
  return result;
}

PolynomialHash::PolynomialHash(const Gf2Field* field,
                               std::vector<uint64_t> coeffs)
    : field_(field), coeffs_(std::move(coeffs)) {
  MCF0_CHECK(field_ != nullptr);
  MCF0_CHECK(!coeffs_.empty());
}

PolynomialHash PolynomialHash::Sample(const Gf2Field* field, int s, Rng& rng) {
  MCF0_CHECK(s >= 1);
  const uint64_t mask =
      (field->degree() == 64) ? ~0ull : ((1ull << field->degree()) - 1);
  std::vector<uint64_t> coeffs(s);
  for (auto& c : coeffs) c = rng.NextU64() & mask;
  return PolynomialHash(field, std::move(coeffs));
}

uint64_t PolynomialHash::Eval(uint64_t x) const {
  const uint64_t mask =
      (field_->degree() == 64) ? ~0ull : ((1ull << field_->degree()) - 1);
  x &= mask;
  // Horner: (((a_{s-1} x + a_{s-2}) x + ...) x + a_0).
  uint64_t acc = coeffs_.back();
  for (size_t i = coeffs_.size() - 1; i-- > 0;) {
    acc = field_->Mul(acc, x) ^ coeffs_[i];
  }
  return acc;
}

void PolynomialHash::EvalBatch(std::span<const uint64_t> xs,
                               std::span<uint64_t> out) const {
  MCF0_CHECK(xs.size() == out.size());
  gf2k::HornerBatch(coeffs_, xs, out, field_->degree(),
                    field_->modulus_low());
}

}  // namespace mcf0
