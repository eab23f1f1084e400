// E18 — sketch wire-format size and codec cost: v2 frames
// (seed-compressed hashes, delta + varint coded sets, bit-packed cells)
// for the default benchmark sketches, over the E17-style element stream.
//
// The acceptance bar is hard-coded: for every configuration the decoded
// sketch must re-encode byte-identically with an identical estimate, and
// encoding a freshly built sketch must perform ZERO sampler row draws
// (the hashes_canonical attestation replaces the per-encode replay — the
// O(1) canonical-encode fast path), while the same sketch with its
// attestation stripped must measurably re-run the replay and still
// produce identical bytes. Any violation exits 1, so the `--smoke` run
// in CI is a real gate, not just a table. (The v2-vs-v1 size bar lives
// in codec_compat_test, against the frozen v1 fixtures.)
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "engine/sketch_codec.hpp"
#include "streaming/f0_sketch.hpp"

namespace {

using namespace mcf0;
using namespace mcf0::bench;

const char* Name(F0Algorithm alg) {
  switch (alg) {
    case F0Algorithm::kBucketing: return "Bucketing";
    case F0Algorithm::kMinimum: return "Minimum";
    case F0Algorithm::kEstimation: return "Estimation";
  }
  return "?";
}

F0Params BenchParams(F0Algorithm alg) {
  F0Params params;
  params.n = 32;
  params.eps = 0.8;
  params.delta = 0.2;
  params.algorithm = alg;
  params.seed = 9;
  if (alg == F0Algorithm::kEstimation) {
    // Full-paper Estimation parameters cost Theta(Thresh * rows) hash
    // evaluations per element — impractical at this stream length; use
    // the same reduced configuration as E17.
    params.rows_override = 13;
    params.thresh_override = 38;
    params.s_override = 5;
  }
  return params;
}

std::vector<uint64_t> MakeStream(size_t length, uint64_t support) {
  Rng rng(4242);
  std::vector<uint64_t> xs(length);
  for (auto& x : xs) x = rng.NextBelow(support);
  return xs;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  Banner("E18: sketch wire-format size and codec cost (v2)",
         "Toeplitz hashes ship as diagonal seeds, whole-estimator frames "
         "elide canonical hash state, and sorted sets are delta+varint "
         "coded - same sketch state, a fraction of the bytes");
  const size_t length = smoke ? 5000 : 300000;
  const uint64_t support = smoke ? 2000 : 50000;
  const std::vector<uint64_t> xs = MakeStream(length, support);

  std::printf("%-11s %9s %10s %9s %9s %10s\n", "algorithm", "elements",
              "bytes", "enc/ms", "dec/ms", "replay/ms");
  bool ok = true;
  for (const auto alg : {F0Algorithm::kBucketing, F0Algorithm::kMinimum,
                         F0Algorithm::kEstimation}) {
    const F0Params params = BenchParams(alg);
    F0Estimator est(params);
    for (const uint64_t x : xs) est.Add(x);

    // The O(1)-canonical-encode gate: a freshly built sketch carries the
    // hashes_canonical attestation, so its encode must not re-run a
    // single sampler row draw.
    const uint64_t draws_before = TotalSamplerRowDraws();
    WallTimer encode_timer;
    const std::string blob = SketchCodec::Encode(est);
    const double encode_ms = encode_timer.Seconds() * 1e3;
    const uint64_t fast_path_draws = TotalSamplerRowDraws() - draws_before;

    WallTimer decode_timer;
    Result<F0Estimator> back = SketchCodec::DecodeF0Estimator(blob);
    const double decode_ms = decode_timer.Seconds() * 1e3;

    // Strip the attestation (hand the state through the sealed Parts
    // exchange with the flag cleared): the encoder must fall back to the
    // full sampler replay — measurably, via the draw counter — and still
    // emit identical bytes.
    F0Estimator::Parts parts = std::move(est).ReleaseParts();
    parts.hashes_canonical = false;
    const F0Estimator stripped = F0Estimator::FromParts(std::move(parts));
    const uint64_t draws_before_slow = TotalSamplerRowDraws();
    WallTimer replay_timer;
    const std::string slow_blob = SketchCodec::Encode(stripped);
    const double replay_ms = replay_timer.Seconds() * 1e3;
    const uint64_t slow_path_draws =
        TotalSamplerRowDraws() - draws_before_slow;

    std::printf("%-11s %9zu %10zu %9.1f %9.1f %10.1f\n", Name(alg),
                xs.size(), blob.size(), encode_ms, decode_ms, replay_ms);

    if (fast_path_draws != 0) {
      std::printf("  ^ FAIL: canonical encode made %llu sampler draws "
                  "(must be 0)!\n",
                  static_cast<unsigned long long>(fast_path_draws));
      ok = false;
    }
    if (slow_path_draws == 0 || slow_blob != blob) {
      std::printf("  ^ FAIL: attestation-stripped encode skipped the replay "
                  "or diverged!\n");
      ok = false;
    }
    if (!back.ok()) {
      std::printf("  ^ FAIL: decode error: %s\n",
                  back.status().ToString().c_str());
      ok = false;
      continue;
    }
    if (SketchCodec::Encode(back.value()) != blob ||
        back.value().Estimate() != stripped.Estimate()) {
      std::printf("  ^ FAIL: round trip is not bit-exact!\n");
      ok = false;
    }
  }
  std::printf("\n(bar: bit-exact round trips, identical estimates, zero "
              "sampler draws on canonical encode - violations exit 1)\n\n");
  return ok ? 0 : 1;
}
