/// \file find_min.hpp
/// \brief The FindMin subroutine (Propositions 2 and 4).
///
/// FindMin(phi, h, p) returns the p lexicographically smallest elements of
/// B = h(Sol(phi)) — all of B if |B| <= p. This is the solver-side
/// construction of the Minimum (KMV) sketch property P2.
///
///  * DNF (Proposition 2): each term contributes h(Sol(T)), an affine image
///    of the term's free variables; the union is merged lexicographically.
///    Polynomial time, no oracle.
///  * CNF (Proposition 2): prefix search driven by the NP oracle, O(p * m)
///    oracle calls. Models returned by SAT calls are used as witnesses to
///    skip queries whose answer they already certify (a standard
///    model-guided refinement that only reduces the call count).
///  * Affine streams (Proposition 4): Sol(<A, B>) is itself an affine
///    subspace; composing with h keeps it affine, so AffineFindMin is pure
///    linear algebra in O(n^3 / 64 + p n) time.
#pragma once

#include <cstdint>
#include <vector>

#include "formula/formula.hpp"
#include "gf2/affine_image.hpp"
#include "gf2/gauss.hpp"
#include "hash/hash_family.hpp"
#include "oracle/cnf_oracle.hpp"

namespace mcf0 {

/// h(Sol(T)) for many terms T under one hash, built on words. The hash's
/// n columns are read once (AffineHash::Columns: seed windows for a
/// Toeplitz hash); per term the offset is b XOR the columns of the
/// positive literals, and the directions are the free columns, reduced to
/// the canonical basis by AffineImage's word builder.
class TermImageBuilder {
 public:
  explicit TermImageBuilder(const AffineHash& h);

  /// h(Sol(term)); the term's variables must lie below h.n().
  AffineImage operator()(const Term& term);

 private:
  int n_;
  int m_;
  size_t stride_;  // words per column
  std::vector<uint64_t> columns_;
  std::vector<uint64_t> b_;
  /// Scratch reused across terms: the offset and the free columns.
  std::vector<uint64_t> offset_;
  std::vector<uint64_t> free_;
};

/// h(Sol(term)) as an affine image in {0,1}^m: the hash matrix restricted
/// to the term's free variables, offset by the image of the fixed part.
/// One TermImageBuilder call; callers with many terms keep the builder.
AffineImage TermImageUnderHash(const Term& term, int num_vars,
                               const AffineHash& h);

/// Proposition 2, DNF case (PTIME).
std::vector<BitVec> FindMinDnf(const Dnf& dnf, const AffineHash& h, uint64_t p);

/// Proposition 2, CNF case (NP oracle; O(p * m) calls).
std::vector<BitVec> FindMinCnf(CnfOracle& oracle, const AffineHash& h,
                               uint64_t p);

/// Proposition 4: p smallest elements of h(Sol(A x = b)); empty if the
/// system is inconsistent.
std::vector<BitVec> AffineFindMin(const Gf2Matrix& a, const BitVec& b,
                                  const AffineHash& h, uint64_t p);

/// h(Sol(A x = b)) as an affine image (nullopt if inconsistent) — the §5
/// affine-stream per-item object.
std::optional<AffineImage> AffineImageUnderHash(const Gf2Matrix& a,
                                                const BitVec& b,
                                                const AffineHash& h);

/// h(x0 + span(K)) for an already solved system: the offset h(x0) and the
/// directions A k read from the hash's columns. A stream item solves its
/// system once and maps the solution through every row's hash.
AffineImage AffineImageUnderHash(const LinearSystemSolution& sol,
                                 const AffineHash& h);

}  // namespace mcf0
