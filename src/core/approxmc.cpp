#include "core/approxmc.hpp"

#include <cmath>
#include <functional>

#include "common/median.hpp"
#include "common/paper_sizing.hpp"
#include "common/rng.hpp"
#include "oracle/bounded_sat.hpp"

namespace mcf0 {

uint64_t CountingThresh(const CountingParams& params) {
  if (params.thresh_override > 0) return params.thresh_override;
  return PaperThresh(params.eps);
}

int CountingRows(const CountingParams& params) {
  if (params.rows_override > 0) return params.rows_override;
  return PaperRows(params.delta);
}

AffineHash SampleCountingHash(int n, int m, const CountingParams& params,
                              Rng& rng) {
  if (params.sparse_density > 0.0) {
    return AffineHash::SampleSparseXor(n, m, params.sparse_density, rng);
  }
  switch (params.hash_kind) {
    case AffineHashKind::kToeplitz:
      return AffineHash::SampleToeplitz(n, m, rng);
    case AffineHashKind::kXor:
    case AffineHashKind::kSparseXor:
      return AffineHash::SampleXor(n, m, rng);
  }
  MCF0_CHECK(false);
  return AffineHash::SampleXor(n, m, rng);
}

namespace {

/// Core of Algorithm 5, generic over the BoundedSAT backend. `cell_count`
/// returns min(thresh, |Sol cap cell_m|). Produces one row estimate.
double ApproxMcRow(int n, uint64_t thresh, bool binary_search,
                   const std::function<uint64_t(int)>& cell_count) {
  const uint64_t c0 = cell_count(0);
  if (c0 < thresh) {
    // Fewer than Thresh solutions overall: the count is exact.
    return static_cast<double>(c0);
  }
  if (!binary_search) {
    // Linear scan of Algorithm 5 lines 8-10.
    for (int m = 1; m <= n; ++m) {
      const uint64_t c = cell_count(m);
      if (c < thresh) return static_cast<double>(c) * std::pow(2.0, m);
    }
    // Even the 2^n-cell hash is saturated (possible only when the hash is
    // far from injective); report the saturation cap.
    return static_cast<double>(thresh) * std::pow(2.0, n);
  }
  // ApproxMC2-style binary search for the smallest m with |cell| < thresh.
  // Cell counts are non-increasing in m (cells are nested), so the
  // predicate is monotone.
  int lo = 0;   // known saturated
  int hi = n;   // search upper bound
  uint64_t count_at_hi = 0;
  bool have_hi_count = false;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    const uint64_t c = cell_count(mid);
    if (c < thresh) {
      hi = mid;
      count_at_hi = c;
      have_hi_count = true;
    } else {
      lo = mid;
    }
  }
  if (!have_hi_count) count_at_hi = cell_count(hi);
  if (count_at_hi >= thresh) {
    return static_cast<double>(thresh) * std::pow(2.0, n);
  }
  return static_cast<double>(count_at_hi) * std::pow(2.0, hi);
}

}  // namespace

CountResult ApproxMcCnf(const Cnf& cnf, const CountingParams& params) {
  CountResult result;
  result.thresh = CountingThresh(params);
  result.rows = CountingRows(params);
  Rng rng(params.seed);
  CnfOracle oracle(cnf);
  oracle.SetUseTseitin(params.use_tseitin);
  const int n = cnf.num_vars();
  for (int i = 0; i < result.rows; ++i) {
    const AffineHash h = SampleCountingHash(n, n, params, rng);
    auto cell_count = [&](int m) {
      return BoundedSatCnf(oracle, h, m, result.thresh).count();
    };
    result.row_estimates.push_back(
        ApproxMcRow(n, result.thresh, params.binary_search, cell_count));
  }
  result.estimate = Median(result.row_estimates);
  result.oracle_calls = oracle.num_calls();
  return result;
}

CountResult ApproxMcDnf(const Dnf& dnf, const CountingParams& params) {
  CountResult result;
  result.thresh = CountingThresh(params);
  result.rows = CountingRows(params);
  Rng rng(params.seed);
  const int n = dnf.num_vars();
  for (int i = 0; i < result.rows; ++i) {
    const AffineHash h = SampleCountingHash(n, n, params, rng);
    auto cell_count = [&](int m) {
      return BoundedSatDnf(dnf, h, m, result.thresh).count();
    };
    result.row_estimates.push_back(
        ApproxMcRow(n, result.thresh, params.binary_search, cell_count));
  }
  result.estimate = Median(result.row_estimates);
  result.oracle_calls = 0;  // PTIME path
  return result;
}

}  // namespace mcf0
