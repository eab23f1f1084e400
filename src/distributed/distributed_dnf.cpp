#include "distributed/distributed_dnf.hpp"

#include <algorithm>
#include <cmath>

#include "common/median.hpp"
#include "common/paper_sizing.hpp"
#include "common/rng.hpp"
#include "engine/sketch_merge.hpp"
#include "hash/gf2_poly.hpp"
#include "hash/hash_family.hpp"
#include "oracle/bounded_sat.hpp"
#include "oracle/find_max_range.hpp"
#include "oracle/find_min.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {
namespace {

uint64_t DistThresh(const DistributedParams& p) {
  if (p.thresh_override > 0) return p.thresh_override;
  return PaperThresh(p.eps);
}

int DistRows(const DistributedParams& p) {
  if (p.rows_override > 0) return p.rows_override;
  return PaperRows(p.delta);
}

int CeilLog2(uint64_t v) {
  int bits = 0;
  while ((1ull << bits) < v) ++bits;
  return bits;
}

/// The hash with rows (and offset bits) reversed: the first m rows of the
/// reversed hash are the last m rows of the original, so prefix-cell
/// machinery computes trailing-zero cells.
AffineHash ReverseHash(const AffineHash& h) {
  Gf2Matrix a(h.m(), h.n());
  BitVec b(h.m());
  for (int i = 0; i < h.m(); ++i) {
    a.MutableRow(i) = h.Row(h.m() - 1 - i);
    b.Set(i, h.b().Get(h.m() - 1 - i));
  }
  return AffineHash::FromParts(std::move(a), std::move(b), h.kind());
}

int NumVarsOf(const std::vector<Dnf>& sites) {
  MCF0_CHECK(!sites.empty());
  const int n = sites[0].num_vars();
  for (const Dnf& d : sites) MCF0_CHECK(d.num_vars() == n);
  return n;
}

}  // namespace

std::vector<Dnf> PartitionDnf(const Dnf& dnf, int k) {
  MCF0_CHECK(k >= 1);
  std::vector<Dnf> sites(k, Dnf(dnf.num_vars()));
  for (int i = 0; i < dnf.num_terms(); ++i) {
    sites[i % k].AddTerm(dnf.terms()[i]);
  }
  return sites;
}

DistributedResult DistributedBucketingDnf(const std::vector<Dnf>& sites,
                                          const DistributedParams& params) {
  DistributedResult result;
  result.thresh = DistThresh(params);
  result.rows = DistRows(params);
  const int n = NumVarsOf(sites);
  const auto k = static_cast<uint64_t>(sites.size());
  Rng rng(params.seed);

  // Fingerprint width: union-bound birthday collisions among all shipped
  // tuples below delta/2.
  const uint64_t max_tuples = k * result.rows * result.thresh;
  const int fp_bits = std::min(
      64, 2 * CeilLog2(std::max<uint64_t>(2, max_tuples)) +
              CeilLog2(static_cast<uint64_t>(std::ceil(2.0 / params.delta))) +
                  1);
  const AffineHash g = AffineHash::SampleXor(n, fp_bits, rng);

  std::vector<double> row_estimates;
  const int tz_bits = CeilLog2(static_cast<uint64_t>(n) + 1);
  for (int i = 0; i < result.rows; ++i) {
    const AffineHash h = AffineHash::SampleToeplitz(n, n, rng);
    const AffineHash h_rev = ReverseHash(h);
    // Coordinator ships H[i] and (once, amortized here per row) G.
    result.comm.ChargeToSites(k * h.RepresentationBits());
    // The union rebuild is the engine's bucketing coordinator: tuples of
    // (fingerprint, trailing-zero depth) deduped by fingerprint, then the
    // level escalated until the union's cell de-saturates.
    BucketingCoordinator coordinator;
    int level = 0;
    for (const Dnf& site : sites) {
      // Site: smallest cell level at which BoundedSAT de-saturates.
      int m = 0;
      BoundedSatResult cell = BoundedSatDnf(site, h_rev, m, result.thresh);
      while (cell.saturated && m < n) {
        ++m;
        cell = BoundedSatDnf(site, h_rev, m, result.thresh);
      }
      level = std::max(level, m);
      result.comm.ChargeFromSites(cell.count() *
                                  static_cast<uint64_t>(fp_bits + tz_bits));
      for (const BitVec& x : cell.solutions) {
        coordinator.AddTuple(g.Eval(x).ToU64(), h.Eval(x).TrailingZeros());
      }
    }
    const auto resolved = coordinator.Resolve(result.thresh, level, n);
    row_estimates.push_back(static_cast<double>(resolved.count) *
                            std::pow(2.0, resolved.level));
  }
  result.comm.ChargeToSites(k * g.RepresentationBits());
  result.estimate = Median(std::move(row_estimates));
  return result;
}

DistributedResult DistributedMinimumDnf(const std::vector<Dnf>& sites,
                                        const DistributedParams& params) {
  DistributedResult result;
  result.thresh = DistThresh(params);
  result.rows = DistRows(params);
  const int n = NumVarsOf(sites);
  const auto k = static_cast<uint64_t>(sites.size());
  Rng rng(params.seed);

  std::vector<double> row_estimates;
  for (int i = 0; i < result.rows; ++i) {
    AffineHash h = AffineHash::SampleToeplitz(n, 3 * n, rng);
    result.comm.ChargeToSites(k * h.RepresentationBits());
    MinimumSketchRow row(h, result.thresh);
    for (const Dnf& site : sites) {
      const std::vector<BitVec> mins = FindMinDnf(site, h, result.thresh);
      result.comm.ChargeFromSites(mins.size() * static_cast<uint64_t>(3 * n));
      for (const BitVec& v : mins) row.AddHashed(v);
    }
    row_estimates.push_back(row.Estimate());
  }
  result.estimate = Median(std::move(row_estimates));
  return result;
}

DistributedResult DistributedEstimationDnf(const std::vector<Dnf>& sites,
                                           const DistributedParams& params) {
  DistributedResult result;
  result.thresh = DistThresh(params);
  result.rows = DistRows(params);
  const int n = NumVarsOf(sites);
  const auto k = static_cast<uint64_t>(sites.size());
  Rng rng(params.seed);
  const int tz_bits = CeilLog2(static_cast<uint64_t>(n) + 1);

  // FM rough estimate for r: one pairwise hash per row; sites report their
  // local max trailing-zero depth, the coordinator takes maxima and the
  // median across rows.
  std::vector<double> fm_estimates;
  for (int i = 0; i < result.rows; ++i) {
    const AffineHash fm = AffineHash::SampleXor(n, n, rng);
    result.comm.ChargeToSites(k * fm.RepresentationBits());
    int best = -1;
    for (const Dnf& site : sites) {
      const int t = FindMaxRangeDnf(site, fm);
      result.comm.ChargeFromSites(tz_bits);
      best = std::max(best, t);
    }
    fm_estimates.push_back(best < 0 ? 0.0 : std::pow(2.0, best));
  }
  const double rough = Median(std::move(fm_estimates));
  if (rough < 1.0) return result;  // all sites empty
  const int r = std::clamp(
      static_cast<int>(std::lround(std::log2(10.0 * rough))), 1, n);

  std::vector<double> row_estimates;
  for (int i = 0; i < result.rows; ++i) {
    EstimationSketchRow row(static_cast<int>(result.thresh));
    for (uint64_t j = 0; j < result.thresh; ++j) {
      const AffineHash h = AffineHash::SampleToeplitz(n, n, rng);
      result.comm.ChargeToSites(k * h.RepresentationBits());
      for (const Dnf& site : sites) {
        const int t = FindMaxRangeDnf(site, h);
        result.comm.ChargeFromSites(tz_bits);
        if (t >= 0) row.Merge(static_cast<int>(j), t);
      }
    }
    row_estimates.push_back(row.EstimateWithR(r));
  }
  result.estimate = Median(std::move(row_estimates));
  return result;
}

}  // namespace mcf0
