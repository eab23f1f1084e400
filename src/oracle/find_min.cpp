#include "oracle/find_min.hpp"

#include <span>

namespace mcf0 {

namespace {

/// out ^= column j of A (`stride` words per column).
void XorColumn(std::span<const uint64_t> columns, size_t stride, int j,
               uint64_t* out) {
  const uint64_t* column = columns.data() + static_cast<size_t>(j) * stride;
  for (size_t w = 0; w < stride; ++w) out[w] ^= column[w];
}

}  // namespace

TermImageBuilder::TermImageBuilder(const AffineHash& h)
    : n_(h.n()),
      m_(h.m()),
      stride_(static_cast<size_t>(h.OutputWords())),
      columns_(h.Columns()),
      b_(h.b().words()) {}

AffineImage TermImageBuilder::operator()(const Term& term) {
  // Literals are sorted by variable with no repeats (Term's invariant),
  // so the free variables are the gaps between them.
  offset_.assign(b_.begin(), b_.end());
  free_.clear();
  int v = 0;
  const auto take_free_below = [&](int end) {
    for (; v < end; ++v) {
      const uint64_t* column =
          columns_.data() + static_cast<size_t>(v) * stride_;
      free_.insert(free_.end(), column, column + stride_);
    }
  };
  for (const Lit& l : term.lits()) {
    MCF0_CHECK(l.var >= v && l.var < n_);
    take_free_below(l.var);
    if (!l.neg) XorColumn(columns_, stride_, l.var, offset_.data());
    v = l.var + 1;
  }
  take_free_below(n_);
  return AffineImage(m_, free_, offset_);
}

AffineImage TermImageUnderHash(const Term& term, int num_vars,
                               const AffineHash& h) {
  MCF0_CHECK(h.n() == num_vars);
  return TermImageBuilder(h)(term);
}

std::vector<BitVec> FindMinDnf(const Dnf& dnf, const AffineHash& h,
                               uint64_t p) {
  MCF0_CHECK(h.n() == dnf.num_vars());
  TermImageBuilder image_of(h);
  std::vector<AffineImage> images;
  images.reserve(dnf.num_terms());
  for (const Term& t : dnf.terms()) images.push_back(image_of(t));
  UnionLexEnumerator merge(std::move(images));
  return merge.FirstP(p);
}

std::optional<AffineImage> AffineImageUnderHash(const Gf2Matrix& a,
                                                const BitVec& b,
                                                const AffineHash& h) {
  MCF0_CHECK(a.cols() == h.n());
  auto sol = SolveLinearSystem(a, b);
  if (!sol.has_value()) return std::nullopt;
  return AffineImageUnderHash(*sol, h);
}

AffineImage AffineImageUnderHash(const LinearSystemSolution& sol,
                                 const AffineHash& h) {
  MCF0_CHECK(sol.x0.size() == h.n());
  // Sol = x0 + span(K); its image under h is h(x0) + (A K) t, and every
  // product with A XORs the hash's columns.
  const std::vector<uint64_t> columns = h.Columns();
  const size_t stride = static_cast<size_t>(h.OutputWords());
  std::vector<uint64_t> offset = h.b().words();
  std::vector<uint64_t> directions(static_cast<size_t>(sol.kernel.cols()) *
                                   stride);
  for (int j = 0; j < h.n(); ++j) {
    if (sol.x0.Get(j)) XorColumn(columns, stride, j, offset.data());
    for (int t = 0; t < sol.kernel.cols(); ++t) {
      if (sol.kernel.Get(j, t)) {
        XorColumn(columns, stride, j, directions.data() + t * stride);
      }
    }
  }
  return AffineImage(h.m(), directions, offset);
}

std::vector<BitVec> AffineFindMin(const Gf2Matrix& a, const BitVec& b,
                                  const AffineHash& h, uint64_t p) {
  auto image = AffineImageUnderHash(a, b, h);
  if (!image.has_value()) return {};
  return image->FirstP(p);
}

namespace {

/// Oracle query: is there x |= phi with the first `prefix.size()` bits of
/// h(x) equal to `prefix`? On success also reports h(x) of the witness.
std::optional<BitVec> QueryPrefix(CnfOracle& oracle, const AffineHash& h,
                                  const BitVec& prefix) {
  std::vector<XorConstraint> xors;
  xors.reserve(prefix.size());
  for (int i = 0; i < prefix.size(); ++i) {
    // Bit i of h(x) equals prefix_i  <=>  A_i.x = b_i XOR prefix_i.
    xors.push_back(XorConstraint{h.Row(i), h.b().Get(i) != prefix.Get(i)});
  }
  auto model = oracle.Solve(xors);
  if (!model.has_value()) return std::nullopt;
  return h.Eval(*model);
}

/// Greedy minimal extension of a feasible prefix to a full member of
/// h(Sol(phi)), using the witness hash value to skip settled bits.
BitVec ExtendMin(CnfOracle& oracle, const AffineHash& h, BitVec prefix,
                 BitVec witness) {
  const int m = h.m();
  int l = prefix.size();
  while (l < m) {
    if (!witness.Get(l)) {
      // The witness itself certifies that bit l can be 0.
      prefix = prefix.Concat(BitVec(1));
      ++l;
      continue;
    }
    BitVec candidate = prefix.Concat(BitVec(1));  // try 0
    auto better = QueryPrefix(oracle, h, candidate);
    if (better.has_value()) {
      witness = std::move(*better);
      prefix = std::move(candidate);
    } else {
      BitVec one(1);
      one.Set(0, true);
      prefix = prefix.Concat(one);  // bit forced to 1; witness still valid
    }
    ++l;
  }
  return prefix;
}

}  // namespace

std::vector<BitVec> FindMinCnf(CnfOracle& oracle, const AffineHash& h,
                               uint64_t p) {
  const int m = h.m();
  std::vector<BitVec> mins;
  // First minimum: greedy extension of the empty prefix.
  auto witness = QueryPrefix(oracle, h, BitVec(0));
  if (!witness.has_value()) return mins;  // phi unsatisfiable
  mins.push_back(ExtendMin(oracle, h, BitVec(0), std::move(*witness)));
  // Successive minima via the paper's rightmost-zero prefix strategy.
  while (mins.size() < p) {
    const BitVec& y = mins.back();
    bool found = false;
    // Try flipping each 0 of y to 1 (rightmost first), keeping the prefix.
    for (int r = m - 1; r >= 0 && !found; --r) {
      if (y.Get(r)) continue;
      BitVec candidate = y.Prefix(r);
      BitVec one(1);
      one.Set(0, true);
      candidate = candidate.Concat(one);
      auto wit = QueryPrefix(oracle, h, candidate);
      if (wit.has_value()) {
        mins.push_back(
            ExtendMin(oracle, h, std::move(candidate), std::move(*wit)));
        found = true;
      }
    }
    if (!found) break;  // y was the maximum of h(Sol(phi))
  }
  return mins;
}

}  // namespace mcf0
