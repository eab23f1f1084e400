/// \file gf2_kernels.hpp
/// \brief Vectorized GF(2) carry-less-multiply kernels with runtime CPU
/// dispatch — the arithmetic backend of `Gf2Field` and `PolynomialHash`.
///
/// Three tiers implement the same 64x64 -> 128 carry-less multiply, the
/// fold-based reduction mod an irreducible f = x^w + f_low, and the
/// Barrett reduction mod the same f that SharedPowersBatch runs:
///
///   * kPortable — shift-and-xor software multiply. Always available;
///     the reference every other tier must match bit-for-bit.
///   * kClmul    — x86-64 PCLMULQDQ, detected via CPUID at first use.
///   * kPmull    — arm64 NEON PMULL, detected via HWCAP at first use.
///
/// Tiers change the *implementation* of the arithmetic, never its
/// results: a field product is a unique element, so sketches built under
/// any tier are byte-identical (pinned by tests/gf2_kernels_test.cpp and
/// the E17/E18 gates). Dispatch is resolved once, at first use, from the
/// CPU plus the `MCF0_FORCE_PORTABLE=1` environment override, and
/// reported through the `mcf0_hash_kernel_tier` gauge so `mcf0 serve`
/// stats show which kernel is live.
///
/// The batch entry points (`HornerBatch`, `SharedPowersBatch`,
/// `ToeplitzAffine`) hoist the tier switch and the per-call constants
/// (modulus and field mask; the Toeplitz word geometry) out of the
/// element loop — that amortization is where most of the batched-absorb
/// speedup comes from even before the carry-less multiply gets hardware
/// help. `SharedPowersBatch` is the span-Add path of Estimation rows
/// (streaming/f0_sketch.hpp), `ToeplitzAffine` the evaluation path of
/// every H_Toeplitz hash (hash/hash_family.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

namespace mcf0 {
namespace gf2k {

/// Kernel tiers, ordered by preference. The numeric values are what the
/// `mcf0_hash_kernel_tier` gauge reports.
enum class KernelTier : int {
  kPortable = 0,  ///< software shift-and-xor (always available)
  kClmul = 1,     ///< x86-64 PCLMULQDQ
  kPmull = 2,     ///< arm64 NEON PMULL
};

/// Tier name for logs / bench tables ("portable", "clmul", "pmull").
const char* KernelTierName(KernelTier tier);

/// The tier detection resolved: best tier the CPU supports, demoted to
/// kPortable when the environment sets MCF0_FORCE_PORTABLE=1 (or =true).
/// Resolved once per process, then constant.
KernelTier DetectedKernelTier();

/// The tier actually used by every kernel call: the bench/test override
/// when one is set, DetectedKernelTier() otherwise.
KernelTier ActiveKernelTier();

/// Bench/test-only override. Forcing a tier the CPU does not support is
/// a checked error; pass std::nullopt to return to detection. Updates
/// the mcf0_hash_kernel_tier gauge. Not for production call sites — the
/// environment override (MCF0_FORCE_PORTABLE) is the supported switch.
void ForceKernelTier(std::optional<KernelTier> tier);

/// True iff `tier` can execute on this CPU (kPortable always can).
bool KernelTierAvailable(KernelTier tier);

/// A polynomial over GF(2) of degree <= 127: the 64x64 carry-less
/// product. lo holds x^0..x^63, hi holds x^64..x^127.
struct Product128 {
  uint64_t hi = 0;
  uint64_t lo = 0;
};

/// Carry-less 64x64 -> 128 multiply on an explicit tier (parity tests;
/// requires KernelTierAvailable(tier)).
Product128 CarrylessMulWithTier(KernelTier tier, uint64_t a, uint64_t b);

/// Field multiply in GF(2^w) with modulus x^w + mod_low: carry-less
/// product then fold reduction (x^w == mod_low mod f, applied until the
/// high part is gone — a couple of carry-less multiplies instead of the
/// bit-at-a-time long division). Operands must have their high 64-w bits
/// clear. Active tier.
uint64_t Mul(uint64_t a, uint64_t b, int w, uint64_t mod_low);

/// Field multiply on an explicit tier (parity tests).
uint64_t MulWithTier(KernelTier tier, uint64_t a, uint64_t b, int w,
                     uint64_t mod_low);

/// Toeplitz affine map y = T x + b for `count` inputs sharing one m x n
/// Toeplitz matrix T[i][j] = seed[i - j + n - 1] (gf2/toeplitz.hpp), where
/// count = xs.size() / ceil(n / 64) = ys.size() / ceil(m / 64).
///
/// Every bit string here is in the BitVec layout: position p at bit
/// 63 - p % 64 of word p / 64, unused tail bits zero (ys' tails are
/// written zero). Read as one big-endian number, a W-word string is the
/// polynomial sum_p bit_p z^(64 W - 1 - p), so y_i is coefficient
/// i + n - 1 of seed(z) x(z) counted from the top: a middle product.
/// Each output word is a funnel shift of two product words, and each
/// product word XORs the carry-less products of the seed and input word
/// pairs that land on it, so one n <= 64, m = 3n evaluation is two
/// 64x64 carry-less multiplies. `seed` needs ceil((n + m - 1) / 64)
/// words and `b` ceil(m / 64); longer spans are fine (bits past n + m - 1
/// only reach rows >= m), which is how a prefix h_l evaluates on the full
/// seed with m = l. The tier switch and the word geometry are hoisted out
/// of the input loop. Active tier.
void ToeplitzAffine(std::span<const uint64_t> seed, int n, int m,
                    std::span<const uint64_t> b, std::span<const uint64_t> xs,
                    std::span<uint64_t> ys);

/// Batched Horner evaluation of the degree-(s-1) polynomial with
/// coefficient masks `coeffs` (constant term first) at each point of
/// `xs`: out[i] = h(xs[i] & mask). One batch shares the coefficient
/// array, modulus, and kernel selection across all elements; the result
/// equals s-1 scalar Mul/XOR steps per element, bit for bit. Active
/// tier.
void HornerBatch(std::span<const uint64_t> coeffs,
                 std::span<const uint64_t> xs, std::span<uint64_t> out, int w,
                 uint64_t mod_low);

/// Evaluates many polynomials over one GF(2^w) at the same points:
/// out[i * polys.size() + j] = p_j(xs[i] & mask), where polys[j] points
/// at the s coefficients of p_j (constant term first) and f = x^w +
/// mod_low. Per point the powers x^1..x^(s-1) are computed once and
/// shared by every polynomial; p_j(x) is then the unreduced 128-bit
/// carry-less inner product A = c_0 + sum_k c_k x^k, reduced once by
/// Barrett: with mu = floor(x^(2w) / f) = x^w + mu_low (the field's
/// barrett_mu_low()), q = floor(floor(A / x^w) mu / x^w) is exactly
/// floor(A / f) for every A of degree < 2w, so p_j(x) = (A + q f) mod
/// x^w needs no correction step. That is s + 1 independent multiplies
/// per polynomial instead of Horner's s - 1 dependent multiply-and-fold
/// steps, and the same field element bit for bit. The tier switch, the
/// field constants and (on the portable tier) the window tables of each
/// power are hoisted out of the polynomial loop. Active tier.
void SharedPowersBatch(std::span<const uint64_t* const> polys, int s,
                       std::span<const uint64_t> xs, std::span<uint64_t> out,
                       int w, uint64_t mod_low, uint64_t mu_low);

}  // namespace gf2k
}  // namespace mcf0
