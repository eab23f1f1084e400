// E2 — sketch space and per-item update time: both must be
// poly(1/eps, log N), independent of the stream length. Space table
// across eps, a kernel-tier table (scalar vs batched absorb of the
// Estimation, Minimum and Bucketing sketches on every GF(2) kernel tier
// this CPU offers, medians of 5) feeding BENCH_e02_hash.json, and
// google-benchmark timings for Add() when the library is available.
//
// The tier table doubles as a gate: the batched span-Add path must not
// be slower than item-at-a-time Add on any tier, and every (tier, path)
// combination must produce byte-identical sketch encodings — tiers and
// batching change the implementation, never the result. On a hardware
// tier, batched Estimation must also absorb at least kEstimationFloor
// times the scalar rate: its span path shares each point's powers across
// a row's columns and reduces once per column (gf2k::SharedPowersBatch),
// while item Add runs Horner per column. Any violation exits 1.
// `--smoke` shrinks the stream for CI and skips the gbench section.
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "engine/sketch_codec.hpp"
#include "hash/gf2_kernels.hpp"
#include "streaming/f0_sketch.hpp"

#if defined(MCF0_HAVE_GBENCH)
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace mcf0;

F0Params MakeParams(F0Algorithm alg, double eps) {
  F0Params params;
  params.n = 32;
  params.eps = eps;
  params.delta = 0.2;
  params.algorithm = alg;
  params.rows_override = 11;
  params.seed = 42;
  if (alg == F0Algorithm::kEstimation) {
    // Trim the per-item constant so benchmark calibration stays fast.
    params.thresh_override =
        static_cast<uint64_t>(std::ceil(24.0 / (eps * eps)));
    params.s_override = 5;
  }
  return params;
}

#if defined(MCF0_HAVE_GBENCH)
void BM_SketchAdd(benchmark::State& state) {
  const auto alg = static_cast<F0Algorithm>(state.range(0));
  const double eps = state.range(1) / 100.0;
  F0Estimator est(MakeParams(alg, eps));
  Rng rng(7);
  // Pre-fill so the steady-state path (saturated sketch) is measured.
  for (int i = 0; i < 4000; ++i) est.Add(rng.NextBelow(1u << 28));
  for (auto _ : state) {
    est.Add(rng.NextBelow(1u << 28));
  }
  state.counters["space_KiB"] =
      static_cast<double>(est.SpaceBits()) / 8192.0;
}

BENCHMARK(BM_SketchAdd)
    ->ArgsProduct({{static_cast<int>(F0Algorithm::kBucketing),
                    static_cast<int>(F0Algorithm::kMinimum),
                    static_cast<int>(F0Algorithm::kEstimation)},
                   {80, 40}})
    ->ArgNames({"alg", "eps_pct"});
#endif  // MCF0_HAVE_GBENCH

/// Least batched/scalar Estimation absorb ratio on a hardware tier.
constexpr double kEstimationFloor = 3.0;

/// Tiers to benchmark: portable always, plus the hardware tier when the
/// CPU has one (there is at most one per architecture).
std::vector<gf2k::KernelTier> TiersToMeasure() {
  std::vector<gf2k::KernelTier> tiers{gf2k::KernelTier::kPortable};
  const gf2k::KernelTier detected = gf2k::DetectedKernelTier();
  if (detected != gf2k::KernelTier::kPortable) tiers.push_back(detected);
  return tiers;
}

struct AbsorbRates {
  double scalar_elems_per_sec = 0.0;
  double batched_elems_per_sec = 0.0;
  std::string scalar_bytes;   // encoded sketch after the item-Add build
  std::string batched_bytes;  // encoded sketch after the span-Add build
};

/// Medians of `runs` timed builds on the *currently forced* tier: one set
/// item-at-a-time, one through the span path. Construction (hash
/// sampling) is excluded from the timed window.
AbsorbRates MeasureAbsorb(const F0Params& params,
                          const std::vector<uint64_t>& xs, int runs) {
  AbsorbRates rates;
  std::vector<double> scalar_runs;
  std::vector<double> batched_runs;
  // Interleave the two paths so load spikes (shared CI cores) hit both
  // measurements equally instead of biasing whichever ran later.
  for (int r = 0; r < runs; ++r) {
    {
      F0Estimator est(params);
      WallTimer timer;
      for (const uint64_t x : xs) est.Add(x);
      scalar_runs.push_back(static_cast<double>(xs.size()) / timer.Seconds());
      if (r == 0) rates.scalar_bytes = SketchCodec::Encode(est);
    }
    {
      F0Estimator est(params);
      WallTimer timer;
      est.Add(std::span<const uint64_t>(xs));
      batched_runs.push_back(static_cast<double>(xs.size()) / timer.Seconds());
      if (r == 0) rates.batched_bytes = SketchCodec::Encode(est);
    }
  }
  rates.scalar_elems_per_sec = Median(scalar_runs);
  rates.batched_elems_per_sec = Median(batched_runs);
  return rates;
}

/// One (sketch, tier) cell pair of the kernel-tier table.
struct TierRow {
  const char* sketch;
  gf2k::KernelTier tier;
  AbsorbRates rates;
};

/// Measures `params` on every tier, printing and appending one row per
/// tier. False (after saying why) when a tier's sketch bytes differ from
/// the portable item-at-a-time build, or when span-Add is slower than
/// item-at-a-time Add on it.
bool MeasureTiers(const char* sketch, const F0Params& params,
                  const std::vector<uint64_t>& xs, int runs,
                  std::vector<TierRow>* rows) {
  std::string reference_bytes;  // portable scalar build: the ground truth
  for (const gf2k::KernelTier tier : TiersToMeasure()) {
    gf2k::ForceKernelTier(tier);
    const AbsorbRates rates = MeasureAbsorb(params, xs, runs);
    gf2k::ForceKernelTier(std::nullopt);
    if (tier == gf2k::KernelTier::kPortable) {
      reference_bytes = rates.scalar_bytes;
    }
    std::printf("%-10s %-9s %9zu %12.0f %12.0f %8.2fx\n", sketch,
                gf2k::KernelTierName(tier), xs.size(),
                rates.scalar_elems_per_sec, rates.batched_elems_per_sec,
                rates.batched_elems_per_sec / rates.scalar_elems_per_sec);
    if (rates.scalar_bytes != reference_bytes ||
        rates.batched_bytes != reference_bytes) {
      std::printf("  ^ MISMATCH: %s %s sketch bytes diverged from the "
                  "portable scalar build!\n",
                  gf2k::KernelTierName(tier), sketch);
      return false;
    }
    if (rates.batched_elems_per_sec < rates.scalar_elems_per_sec) {
      std::printf("  ^ GATE FAILED: batched %s absorb slower than scalar on "
                  "tier %s\n",
                  sketch, gf2k::KernelTierName(tier));
      return false;
    }
    rows->push_back({sketch, tier, rates});
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  mcf0::bench::Banner(
      "E2: F0 sketch update time and space",
      "per-item time O(1) amortized hash evaluations; space "
      "poly(1/eps, log N) independent of stream length");
  // Space table: fill until saturated, report bits across eps.
  std::printf("%-10s %5s %12s\n", "algorithm", "eps", "space_KiB");
  for (const auto alg : {F0Algorithm::kBucketing, F0Algorithm::kMinimum,
                         F0Algorithm::kEstimation}) {
    for (const double eps : {0.8, 0.4, 0.2}) {
      F0Estimator est(MakeParams(alg, eps));
      Rng rng(3);
      for (int i = 0; i < 8000; ++i) est.Add(rng.NextBelow(1u << 30));
      const char* name = alg == F0Algorithm::kBucketing    ? "Bucketing"
                         : alg == F0Algorithm::kMinimum    ? "Minimum"
                                                           : "Estimation";
      std::printf("%-10s %5.2f %12.1f\n", name, eps,
                  static_cast<double>(est.SpaceBits()) / 8192.0);
    }
  }

  // Kernel-tier table: the Estimation sketch is the polynomial-hash-bound
  // one, so its absorb rate is where the GF(2) kernel tier and the
  // shared-powers row kernel show up; the Minimum sketch is bound by the
  // Toeplitz middle product (ToeplitzAffine) and its flat KMV rows, and
  // the Bucketing sketch by the square Toeplitz hash: its span path
  // hashes a block before it replays the inserts, item Add hashes one
  // item per call. Medians of 5 runs per cell.
  const size_t tier_elements = smoke ? 30000 : 200000;
  constexpr int kRuns = 5;
  std::vector<uint64_t> xs(tier_elements);
  {
    mcf0::Rng rng(11);
    for (auto& x : xs) x = rng.NextBelow(1u << 28);
  }

  std::printf(
      "\n-- GF(2) kernel tiers: scalar vs batched absorb "
      "(medians of %d) --\n",
      kRuns);
  std::printf("%-10s %-9s %9s %12s %12s %9s\n", "sketch", "tier", "elements",
              "scalar/s", "batched/s", "speedup");
  std::vector<TierRow> rows;
  for (const auto& [sketch, algorithm] :
       {std::pair{"Estimation", F0Algorithm::kEstimation},
        std::pair{"Minimum", F0Algorithm::kMinimum},
        std::pair{"Bucketing", F0Algorithm::kBucketing}}) {
    if (!MeasureTiers(sketch, MakeParams(algorithm, 0.4), xs, kRuns, &rows)) {
      return 1;
    }
  }
  const double portable_scalar = rows.front().rates.scalar_elems_per_sec;
  double best_batched = 0.0;
  double hardware_ratio = 0.0;  // 0: no hardware tier measured
  for (const TierRow& row : rows) {
    if (std::strcmp(row.sketch, "Estimation") != 0) continue;
    best_batched = row.rates.batched_elems_per_sec;
    if (row.tier != gf2k::KernelTier::kPortable) {
      hardware_ratio =
          row.rates.batched_elems_per_sec / row.rates.scalar_elems_per_sec;
    }
  }
  std::printf("best batched vs portable scalar (Estimation): %.2fx\n",
              best_batched / portable_scalar);
  if (hardware_ratio > 0.0 && hardware_ratio < kEstimationFloor) {
    std::printf("GATE FAILED: batched Estimation absorb is %.2fx scalar on "
                "the hardware tier, below the %.1fx floor\n",
                hardware_ratio, kEstimationFloor);
    return 1;
  }

  // Machine-readable summary (same manual-JSON idiom as BENCH_e17/e19).
  // Reaching this line means the byte-identity, not-slower and hardware
  // floor gates held.
  std::ofstream json("BENCH_e02_hash.json");
  json << "{\n"
       << "  \"experiment\": \"e02_hash\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"detected_tier\": \""
       << mcf0::gf2k::KernelTierName(mcf0::gf2k::DetectedKernelTier())
       << "\",\n"
       << "  \"elements\": " << xs.size() << ",\n"
       << "  \"runs\": " << kRuns << ",\n"
       << "  \"tiers\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"sketch\": \"" << rows[i].sketch << "\", \"tier\": \""
         << mcf0::gf2k::KernelTierName(rows[i].tier)
         << "\", \"scalar_elems_per_sec\": "
         << rows[i].rates.scalar_elems_per_sec
         << ", \"batched_elems_per_sec\": "
         << rows[i].rates.batched_elems_per_sec << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"best_batched_over_portable_scalar\": "
       << best_batched / portable_scalar << ",\n"
       << "  \"estimation_hardware_batched_over_scalar\": ";
  if (hardware_ratio > 0.0) {
    json << hardware_ratio;
  } else {
    json << "null";
  }
  json << ",\n"
       << "  \"gate_estimation_hardware_floor\": " << kEstimationFloor
       << ",\n"
       << "  \"gate_batched_not_slower\": true,\n"
       << "  \"bytes_identical\": true\n"
       << "}\n";
  std::printf("wrote BENCH_e02_hash.json\n\n");

#if defined(MCF0_HAVE_GBENCH)
  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
#endif
  return 0;
}
