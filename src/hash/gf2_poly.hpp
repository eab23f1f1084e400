/// \file gf2_poly.hpp
/// \brief Arithmetic in GF(2^w) for w in [1, 64] and the s-wise independent
/// polynomial hash family H_{s-wise}(w, w) used by the Estimation sketch.
///
/// Field elements are uint64 coefficient masks (bit i = coefficient of x^i).
/// The modulus is found by scanning for an irreducible polynomial of
/// degree w, verified with Rabin's irreducibility test — no hard-coded
/// tables, so every w in [1, 64] works — once per degree per process
/// (Gf2Field::Of).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace mcf0 {

class Rng;

/// The finite field GF(2^w).
class Gf2Field {
 public:
  /// The process's one GF(2^w), w in [1, 64]: immutable and never
  /// destroyed, so hashes (and the sketches holding them) point at it and
  /// stay copyable. The first call for a degree scans for the smallest
  /// irreducible modulus (O(w^4 / 64)), counted by the
  /// `mcf0_gf2_modulus_scans_total` metric (at most 64 per process), and
  /// derives its Barrett constant (at most w + 1 shift-XOR steps).
  /// Thread-safe.
  static const Gf2Field& Of(int w);

  /// A copy of Of(w).
  explicit Gf2Field(int w);

  int degree() const { return w_; }

  /// Low-order bits of the modulus (the x^w term is implicit).
  uint64_t modulus_low() const { return mod_low_; }

  /// Low-order bits of the Barrett constant mu = floor(x^(2w) / f) (the
  /// x^w term is implicit): what gf2k::SharedPowersBatch reduces with.
  uint64_t barrett_mu_low() const { return mu_low_; }

  /// Field addition (= XOR).
  static uint64_t Add(uint64_t a, uint64_t b) { return a ^ b; }

  /// Field multiplication: carry-less product reduced mod the modulus.
  /// Runs on the active gf2k kernel tier (PCLMULQDQ / PMULL / portable);
  /// the result is tier-independent.
  uint64_t Mul(uint64_t a, uint64_t b) const;

  /// a^e by square-and-multiply.
  uint64_t Pow(uint64_t a, uint64_t e) const;

  /// Rabin's irreducibility test for f = x^degree + poly_low over GF(2).
  static bool IsIrreducible(uint64_t poly_low, int degree);

 private:
  Gf2Field(int w, uint64_t mod_low);

  int w_;
  uint64_t mod_low_;
  uint64_t mu_low_;
  uint64_t mask_;  // low w bits
};

/// A hash function drawn from the s-wise independent family of degree-(s-1)
/// polynomials over GF(2^w) (the paper's H_{s-wise}(n, n) with n = w).
/// Evaluation is Horner's rule: s-1 field multiplications.
class PolynomialHash {
 public:
  /// coeffs[0] is the constant term; coeffs.size() = s.
  PolynomialHash(const Gf2Field* field, std::vector<uint64_t> coeffs);

  /// Samples a uniform member of the family with s coefficients.
  static PolynomialHash Sample(const Gf2Field* field, int s, Rng& rng);

  /// h(x) for x interpreted as a field element (low w bits used).
  uint64_t Eval(uint64_t x) const;

  /// Batched Eval: out[i] = Eval(xs[i]), bit-for-bit. One call shares
  /// the coefficient array, modulus, and kernel-tier dispatch across the
  /// whole block (gf2k::HornerBatch), which is the hash hot path the
  /// span-Add absorb surface feeds.
  void EvalBatch(std::span<const uint64_t> xs, std::span<uint64_t> out) const;

  /// Independence degree s of the family this was drawn from.
  int s() const { return static_cast<int>(coeffs_.size()); }

  /// Degree w of the underlying GF(2^w) — the bit width of every
  /// coefficient, which the v2 sketch codec uses to pack them.
  int field_degree() const { return field_->degree(); }

  /// Coefficient masks, constant term first — the full sampled state, used
  /// by the sketch codec (src/engine) to serialize Estimation rows.
  const std::vector<uint64_t>& coeffs() const { return coeffs_; }

  /// Same polynomial over the same field degree. (A hash built over a
  /// field of its own, rather than Gf2Field::Of, holds a different
  /// pointer; the modulus search is deterministic per degree, so degree
  /// equality implies the same field.)
  bool operator==(const PolynomialHash& o) const {
    return field_->degree() == o.field_->degree() && coeffs_ == o.coeffs_;
  }

 private:
  const Gf2Field* field_;  // not owned; usually Gf2Field::Of(degree)
  std::vector<uint64_t> coeffs_;
};

/// Number of trailing zero bits of the w-bit value `z` (the paper's
/// TrailZero for machine-word hash outputs); returns w when z == 0.
inline int TrailZero64(uint64_t z, int w) {
  MCF0_DCHECK(w >= 1 && w <= 64);
  return std::min(std::countr_zero(z), w);
}

}  // namespace mcf0
