#include "oracle/bounded_sat.hpp"

namespace mcf0 {

BoundedSatResult BoundedSatCnf(CnfOracle& oracle, const AffineHash& h, int m,
                               uint64_t p) {
  BoundedSatResult result;
  result.solutions = oracle.Enumerate(HashPrefixConstraints(h, m), p);
  result.saturated = result.solutions.size() == p;
  return result;
}

std::optional<AffineImage> TermCellSolutions(const Term& term, int num_vars,
                                             const AffineHash& h, int m) {
  MCF0_CHECK(m >= 0 && m <= h.m());
  // Stack the term's unit equations (x_v = value) on top of the cell's
  // parity equations (A_i . x = b_i) and parametrize the solution space.
  Gf2Matrix a(term.Width() + m, num_vars);
  BitVec b(term.Width() + m);
  int r = 0;
  for (const Lit& l : term.lits()) {
    a.Set(r, l.var, true);
    b.Set(r, !l.neg);  // positive literal forces 1
    ++r;
  }
  for (int i = 0; i < m; ++i) {
    a.MutableRow(r) = h.Row(i);
    b.Set(r, h.b().Get(i));
    ++r;
  }
  return AffineImage::FromSolutionSpace(a, b);
}

BoundedSatResult BoundedSatDnf(const Dnf& dnf, const AffineHash& h, int m,
                               uint64_t p) {
  std::vector<AffineImage> pieces;
  pieces.reserve(dnf.num_terms());
  for (const Term& t : dnf.terms()) {
    auto piece = TermCellSolutions(t, dnf.num_vars(), h, m);
    if (piece.has_value()) pieces.push_back(std::move(*piece));
  }
  UnionLexEnumerator merge(std::move(pieces));
  BoundedSatResult result;
  result.solutions = merge.FirstP(p);
  result.saturated = result.solutions.size() == p;
  return result;
}

}  // namespace mcf0
