// E13 — §2 hash family microbenchmarks: H_Toeplitz needs Theta(n + m) bits
// of representation vs Theta(n m) for H_xor, with the same 2-wise
// independence guarantee; evaluation costs are comparable. Also measures
// the GF(2^w) polynomial hash (s-wise family) evaluation.
//
// Two self-timed tables feed BENCH_e13_families.json: the polynomial
// hash on every GF(2) kernel tier this CPU offers (scalar Eval vs
// EvalBatch, medians of 5 — the batched path must not be slower on any
// tier, and every tier must produce identical outputs; violations exit
// 1), and Toeplitz evaluation through the carry-less middle product
// (Eval64 on a word universe and BitVec Eval at n = m = 256).
// google-benchmark latency timings run
// afterwards when the library is available. `--smoke` shrinks the
// batches for CI and skips the gbench section.
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "hash/gf2_kernels.hpp"
#include "hash/gf2_poly.hpp"
#include "hash/hash_family.hpp"

#if defined(MCF0_HAVE_GBENCH)
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace mcf0;

#if defined(MCF0_HAVE_GBENCH)
void BM_ToeplitzSampleAndEval(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const AffineHash h = AffineHash::SampleToeplitz(n, n, rng);
  BitVec x = BitVec::Random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Eval(x));
  }
  state.counters["repr_bits"] = static_cast<double>(h.RepresentationBits());
}
BENCHMARK(BM_ToeplitzSampleAndEval)->Arg(64)->Arg(256)->Arg(1024);

void BM_XorSampleAndEval(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  const AffineHash h = AffineHash::SampleXor(n, n, rng);
  BitVec x = BitVec::Random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Eval(x));
  }
  state.counters["repr_bits"] = static_cast<double>(h.RepresentationBits());
}
BENCHMARK(BM_XorSampleAndEval)->Arg(64)->Arg(256)->Arg(1024);

void BM_PrefixSliceEval(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const AffineHash h = AffineHash::SampleToeplitz(n, n, rng);
  BitVec x = BitVec::Random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.EvalPrefix(x, n / 2));
  }
}
BENCHMARK(BM_PrefixSliceEval)->Arg(64)->Arg(256);

void BM_PolynomialHashEval(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  const int s = static_cast<int>(state.range(1));
  const Gf2Field field(w);
  Rng rng(4);
  const PolynomialHash h = PolynomialHash::Sample(&field, s, rng);
  uint64_t x = 0x123456789ABCDEFull;
  for (auto _ : state) {
    x = h.Eval(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_PolynomialHashEval)
    ->ArgsProduct({{32, 64}, {2, 8, 16}})
    ->ArgNames({"w", "s"});
#endif  // MCF0_HAVE_GBENCH

/// Tiers to benchmark: portable always, plus the hardware tier when the
/// CPU has one.
std::vector<gf2k::KernelTier> TiersToMeasure() {
  std::vector<gf2k::KernelTier> tiers{gf2k::KernelTier::kPortable};
  const gf2k::KernelTier detected = gf2k::DetectedKernelTier();
  if (detected != gf2k::KernelTier::kPortable) tiers.push_back(detected);
  return tiers;
}

struct PolyRates {
  double scalar_evals_per_sec = 0.0;
  double batched_evals_per_sec = 0.0;
  std::vector<uint64_t> outputs;  // EvalBatch results: the parity check
};

/// Medians of `runs` timed sweeps over `xs` on the *currently forced*
/// tier: one Eval-per-point, one EvalBatch over the whole span.
PolyRates MeasurePoly(const PolynomialHash& h, std::span<const uint64_t> xs,
                      int runs) {
  PolyRates rates;
  std::vector<double> scalar_runs;
  std::vector<double> batched_runs;
  std::vector<uint64_t> scalar_out(xs.size());
  std::vector<uint64_t> out(xs.size());
  // Interleave the two paths so load spikes (shared CI cores) hit both
  // measurements equally instead of biasing whichever ran later.
  for (int r = 0; r < runs; ++r) {
    {
      WallTimer timer;
      for (size_t i = 0; i < xs.size(); ++i) scalar_out[i] = h.Eval(xs[i]);
      scalar_runs.push_back(static_cast<double>(xs.size()) / timer.Seconds());
    }
    {
      WallTimer timer;
      h.EvalBatch(xs, out);
      batched_runs.push_back(static_cast<double>(xs.size()) / timer.Seconds());
    }
  }
  rates.scalar_evals_per_sec = Median(scalar_runs);
  rates.batched_evals_per_sec = Median(batched_runs);
  rates.outputs = out;
  if (scalar_out != out) rates.outputs.clear();  // scalar/batch divergence
  return rates;
}

/// Evals/sec for the packed affine fast paths (tier-independent: pure
/// word AND + popcount). Medians of `runs`.
double MeasureEval64(const AffineHash& h, std::span<const uint64_t> xs,
                     int runs) {
  std::vector<double> rates;
  uint64_t sink = 0;
  for (int r = 0; r < runs; ++r) {
    WallTimer timer;
    for (const uint64_t x : xs) sink ^= h.Eval64(x);
    rates.push_back(static_cast<double>(xs.size()) / timer.Seconds());
  }
  if (sink == 0x5a5a5a5a5a5a5a5aull) std::printf(" ");  // keep sink live
  return Median(rates);
}

double MeasureBitVecEval(const AffineHash& h, const std::vector<BitVec>& xs,
                         int runs) {
  std::vector<double> rates;
  uint64_t sink = 0;
  for (int r = 0; r < runs; ++r) {
    WallTimer timer;
    for (const BitVec& x : xs) sink ^= h.Eval(x).words()[0];
    rates.push_back(static_cast<double>(xs.size()) / timer.Seconds());
  }
  if (sink == 0x5a5a5a5a5a5a5a5aull) std::printf(" ");
  return Median(rates);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  mcf0::bench::Banner(
      "E13: hash family representation and evaluation (§2)",
      "H_Toeplitz: Theta(n+m) bits; H_xor: Theta(n m) bits; both 2-wise "
      "independent (verified exactly in tests); GF(2^w) degree-(s-1) "
      "polynomials give the s-wise family");
  std::printf("%-6s %16s %16s %10s\n", "n", "toeplitz_bits", "xor_bits",
              "ratio");
  mcf0::Rng rng(9);
  for (const int n : {64, 256, 1024}) {
    const auto t = mcf0::AffineHash::SampleToeplitz(n, n, rng);
    const auto d = mcf0::AffineHash::SampleXor(n, n, rng);
    std::printf("%-6d %16zu %16zu %10.1f\n", n, t.RepresentationBits(),
                d.RepresentationBits(),
                static_cast<double>(d.RepresentationBits()) /
                    static_cast<double>(t.RepresentationBits()));
  }

  // Polynomial hash on every kernel tier: w=64 (the fold-heavy width),
  // s=8 coefficients, medians of 5 sweeps over one batch of points.
  const size_t points = smoke ? 20000 : 100000;
  constexpr int kRuns = 5;
  const int w = 64;
  const int s = 8;
  const mcf0::Gf2Field field(w);
  const mcf0::PolynomialHash h = mcf0::PolynomialHash::Sample(&field, s, rng);
  std::vector<uint64_t> xs(points);
  for (auto& x : xs) x = rng.NextU64();

  std::printf(
      "\n-- GF(2^%d) polynomial hash (s=%d) per kernel tier: Eval vs "
      "EvalBatch (medians of %d) --\n",
      w, s, kRuns);
  std::printf("%-9s %9s %12s %12s %9s\n", "tier", "points", "scalar/s",
              "batched/s", "speedup");
  struct TierRow {
    mcf0::gf2k::KernelTier tier;
    PolyRates rates;
  };
  std::vector<TierRow> rows;
  std::vector<uint64_t> reference_outputs;
  for (const mcf0::gf2k::KernelTier tier : TiersToMeasure()) {
    mcf0::gf2k::ForceKernelTier(tier);
    const PolyRates rates = MeasurePoly(h, xs, kRuns);
    mcf0::gf2k::ForceKernelTier(std::nullopt);
    if (rates.outputs.empty()) {
      std::printf("  ^ MISMATCH: EvalBatch diverged from scalar Eval on "
                  "tier %s!\n",
                  mcf0::gf2k::KernelTierName(tier));
      return 1;
    }
    if (reference_outputs.empty()) {
      reference_outputs = rates.outputs;
    } else if (rates.outputs != reference_outputs) {
      std::printf("  ^ MISMATCH: tier %s outputs diverged from portable!\n",
                  mcf0::gf2k::KernelTierName(tier));
      return 1;
    }
    std::printf("%-9s %9zu %12.0f %12.0f %8.2fx\n",
                mcf0::gf2k::KernelTierName(tier), xs.size(),
                rates.scalar_evals_per_sec, rates.batched_evals_per_sec,
                rates.batched_evals_per_sec / rates.scalar_evals_per_sec);
    if (rates.batched_evals_per_sec < rates.scalar_evals_per_sec) {
      std::printf("  ^ GATE FAILED: EvalBatch slower than scalar Eval on "
                  "tier %s\n",
                  mcf0::gf2k::KernelTierName(tier));
      return 1;
    }
    rows.push_back({tier, rates});
  }

  // Toeplitz evaluation: both run the middle product on the seed words
  // (gf2k::ToeplitzAffine) — one word in, one word out for Eval64; four
  // input words against eight seed words for the n = m = 256 BitVec Eval.
  std::printf("\n-- Toeplitz middle product (medians of %d) --\n", kRuns);
  const auto h64 = mcf0::AffineHash::SampleToeplitz(64, 64, rng);
  const double eval64_per_sec = MeasureEval64(h64, xs, kRuns);
  const auto h256 = mcf0::AffineHash::SampleToeplitz(256, 256, rng);
  std::vector<mcf0::BitVec> bit_xs;
  const size_t bitvec_points = smoke ? 2000 : 20000;
  bit_xs.reserve(bitvec_points);
  for (size_t i = 0; i < bitvec_points; ++i) {
    bit_xs.push_back(mcf0::BitVec::Random(256, rng));
  }
  const double eval256_per_sec = MeasureBitVecEval(h256, bit_xs, kRuns);
  std::printf("%-28s %12.0f evals/s\n", "Eval64 (n=m=64)", eval64_per_sec);
  std::printf("%-28s %12.0f evals/s\n", "Eval (n=m=256)", eval256_per_sec);

  // Machine-readable summary (same manual-JSON idiom as BENCH_e17/e19).
  // Reaching this line means the parity and not-slower gates held.
  std::ofstream json("BENCH_e13_families.json");
  json << "{\n"
       << "  \"experiment\": \"e13_families\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"detected_tier\": \""
       << mcf0::gf2k::KernelTierName(mcf0::gf2k::DetectedKernelTier())
       << "\",\n"
       << "  \"w\": " << w << ",\n"
       << "  \"s\": " << s << ",\n"
       << "  \"points\": " << xs.size() << ",\n"
       << "  \"runs\": " << kRuns << ",\n"
       << "  \"tiers\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"tier\": \"" << mcf0::gf2k::KernelTierName(rows[i].tier)
         << "\", \"scalar_evals_per_sec\": "
         << rows[i].rates.scalar_evals_per_sec
         << ", \"batched_evals_per_sec\": "
         << rows[i].rates.batched_evals_per_sec << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"best_batched_over_portable_scalar\": "
       << rows.back().rates.batched_evals_per_sec /
              rows.front().rates.scalar_evals_per_sec
       << ",\n"
       << "  \"toeplitz_eval64_per_sec\": " << eval64_per_sec << ",\n"
       << "  \"toeplitz_eval_n256_per_sec\": " << eval256_per_sec << ",\n"
       << "  \"gate_batched_not_slower\": true,\n"
       << "  \"outputs_identical\": true\n"
       << "}\n";
  std::printf("wrote BENCH_e13_families.json\n\n");

#if defined(MCF0_HAVE_GBENCH)
  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
#endif
  return 0;
}
