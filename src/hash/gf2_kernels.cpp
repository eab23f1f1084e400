#include "hash/gf2_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#define MCF0_GF2K_X86 1
#include <smmintrin.h>
#include <wmmintrin.h>
#endif

#if defined(__aarch64__)
#define MCF0_GF2K_ARM 1
#include <arm_neon.h>
#if defined(__linux__)
#include <sys/auxv.h>
#endif
#endif

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace mcf0 {
namespace gf2k {
namespace {

// ---- portable tier --------------------------------------------------------

/// Shift-and-xor carry-less multiply — the reference implementation and
/// the kPortable tier. Iterates set bits of b only.
inline Product128 ClmulSoft(uint64_t a, uint64_t b) {
  Product128 p;
  while (b != 0) {
    const int i = __builtin_ctzll(b);
    b &= b - 1;
    p.lo ^= a << i;
    if (i != 0) p.hi ^= a >> (64 - i);
  }
  return p;
}

/// Fold reduction mod f = x^w + mod_low: split the product at x^w and
/// substitute x^w == mod_low until the high part vanishes. The high
/// part's degree drops below deg(mod_low) after one fold and strictly
/// decreases from there, so for the small lexicographically-minimal
/// moduli this runs 2-3 carry-less multiplies.
inline uint64_t ReduceSoft(Product128 p, int w, uint64_t mod_low) {
  if (w == 64) {
    while (p.hi != 0) {
      const Product128 f = ClmulSoft(p.hi, mod_low);
      p.hi = f.hi;
      p.lo ^= f.lo;
    }
    return p.lo;
  }
  const uint64_t mask = (1ull << w) - 1;
  uint64_t high = (p.hi << (64 - w)) | (p.lo >> w);
  uint64_t lo = p.lo & mask;
  while (high != 0) {
    const Product128 f = ClmulSoft(high, mod_low);
    high = (f.hi << (64 - w)) | (f.lo >> w);
    lo ^= f.lo & mask;
  }
  return lo;
}

inline uint64_t MulSoft(uint64_t a, uint64_t b, int w, uint64_t mod_low) {
  return ReduceSoft(ClmulSoft(a, b), w, mod_low);
}

/// 4-bit window table for multiplying by a fixed x: t[v] = clmul(v, x)
/// for every nibble value v. Entries reach degree 66, so they carry a
/// 128-bit layout.
struct WindowTable {
  Product128 t[16];
};

inline WindowTable MakeWindow(uint64_t x) {
  WindowTable tab;
  tab.t[1] = {0, x};
  tab.t[2] = {x >> 63, x << 1};
  tab.t[4] = {x >> 62, x << 2};
  tab.t[8] = {x >> 61, x << 3};
  for (int v = 3; v < 16; ++v) {
    if ((v & (v - 1)) == 0) continue;  // powers of two already filled
    const int high_bit = 1 << (31 - __builtin_clz(static_cast<unsigned>(v)));
    tab.t[v] = {tab.t[high_bit].hi ^ tab.t[v - high_bit].hi,
                tab.t[high_bit].lo ^ tab.t[v - high_bit].lo};
  }
  return tab;
}

/// Carry-less multiply of a by the x captured in `tab`: Horner over the
/// `nibbles` low nibbles of a (all a can occupy — field elements keep
/// their high 64-w bits clear), one shift-4 + table XOR each.
/// Branchless, and roughly twice the speed of ClmulSoft's set-bit loop
/// on random operands — the portable batch path's real amortization,
/// since one table serves every multiply by the same x.
inline Product128 ClmulWindow(uint64_t a, const WindowTable& tab,
                              int nibbles) {
  Product128 r;
  for (int k = nibbles - 1; k >= 0; --k) {
    r.hi = (r.hi << 4) | (r.lo >> 60);
    r.lo <<= 4;
    const Product128& t = tab.t[(a >> (4 * k)) & 15];
    r.hi ^= t.hi;
    r.lo ^= t.lo;
  }
  return r;
}

void HornerBatchSoft(std::span<const uint64_t> coeffs,
                     std::span<const uint64_t> xs, std::span<uint64_t> out,
                     int w, uint64_t mod_low) {
  const uint64_t mask = (w == 64) ? ~0ull : ((1ull << w) - 1);
  const uint64_t top = coeffs.back();
  const int nibbles = (w + 3) >> 2;
  for (size_t i = 0; i < xs.size(); ++i) {
    const uint64_t x = xs[i] & mask;
    const WindowTable tab = MakeWindow(x);
    uint64_t acc = top;
    for (size_t k = coeffs.size() - 1; k-- > 0;) {
      acc = ReduceSoft(ClmulWindow(acc, tab, nibbles), w, mod_low) ^ coeffs[k];
    }
    out[i] = acc;
  }
}

// ---- shared powers, one Barrett reduction ---------------------------------

/// Field constants of one SharedPowersBatch call.
struct BarrettField {
  int w = 0;
  uint64_t mask = 0;     ///< low w bits
  uint64_t mod_low = 0;  ///< f = x^w + mod_low
  uint64_t mu_low = 0;   ///< floor(x^(2w) / f) = x^w + mu_low
};

/// floor(p / x^w) for w in [1, 64] and p of degree < w + 64. The split
/// shift keeps w = 64 defined.
inline uint64_t ShiftDown(Product128 p, int w) {
  return (p.hi << (64 - w)) | ((p.lo >> (w - 1)) >> 1);
}

/// a mod f for a of degree < 2w: q = A_hi + floor(A_hi mu_low / x^w) is
/// exactly floor(a / f), and a + q f agrees with a + q mod_low below x^w.
/// Two carry-less multiplies by field constants, no data-dependent exit.
template <typename Clmul>
__attribute__((always_inline)) inline uint64_t BarrettReduce(
    Product128 a, const BarrettField& f, Clmul clmul) {
  const uint64_t a_hi = ShiftDown(a, f.w);
  const uint64_t q = a_hi ^ ShiftDown(clmul(a_hi, f.mu_low), f.w);
  return (a.lo ^ clmul(q, f.mod_low).lo) & f.mask;
}

/// The powers x^1..x^(s-1) of one point as words, for the tiers whose
/// multiply by a fixed power is one carry-less multiply; `dot` sums the
/// terms c[k] x^k in that tier's registers.
template <typename Clmul, typename DotFn>
struct WordPowers {
  const BarrettField& f;
  int s;
  uint64_t* p;  ///< p[k] = x^k for k in [1, s)
  Clmul clmul;
  DotFn dot;

  __attribute__((always_inline)) void Set(uint64_t x) {
    uint64_t xk = x;
    for (int k = 1; k < s; ++k) {
      if (k > 1) xk = BarrettReduce(clmul(xk, x), f, clmul);
      p[k] = xk;
    }
  }

  /// sum_k c[k] x^k over k in [1, s), unreduced.
  __attribute__((always_inline)) Product128 Dot(const uint64_t* c) const {
    return dot(c, p, s);
  }
};

/// The portable tier's powers: one 4-bit window table per power, built
/// once per point and read by every polynomial.
struct WindowPowers {
  const BarrettField& f;
  int s;
  WindowTable* t;  ///< t[k] multiplies by x^k, k in [1, s)

  void Set(uint64_t x) {
    const int nibbles = (f.w + 3) >> 2;
    uint64_t xk = x;
    for (int k = 1; k < s; ++k) {
      if (k > 1) {
        xk = BarrettReduce(ClmulWindow(xk, t[1], nibbles), f,
                           [](uint64_t a, uint64_t b) {
                             return ClmulSoft(a, b);
                           });
      }
      t[k] = MakeWindow(xk);
    }
  }

  /// sum_k c[k] x^k over k in [1, s), unreduced: one Horner pass over the
  /// coefficients' nibbles, every power's table read per step, so the
  /// 128-bit shift is shared by all s - 1 products.
  Product128 Dot(const uint64_t* c) const {
    Product128 r;
    for (int n = ((f.w + 3) >> 2) - 1; n >= 0; --n) {
      r.hi = (r.hi << 4) | (r.lo >> 60);
      r.lo <<= 4;
      for (int k = 1; k < s; ++k) {
        const Product128& e = t[k].t[(c[k] >> (4 * n)) & 15];
        r.hi ^= e.hi;
        r.lo ^= e.lo;
      }
    }
    return r;
  }
};

/// The point loop shared by every tier: powers once per point, then one
/// inner product and one reduction per polynomial.
template <typename Powers, typename Clmul>
__attribute__((always_inline)) inline void SharedPowersLoop(
    std::span<const uint64_t* const> polys, std::span<const uint64_t> xs,
    std::span<uint64_t> out, const BarrettField& f, Powers& powers,
    Clmul clmul) {
  uint64_t* o = out.data();
  for (const uint64_t x : xs) {
    powers.Set(x & f.mask);
    for (const uint64_t* c : polys) {
      *o++ = c[0] ^ BarrettReduce(powers.Dot(c), f, clmul);
    }
  }
}

void SharedPowersSoft(std::span<const uint64_t* const> polys, int s,
                      std::span<const uint64_t> xs, std::span<uint64_t> out,
                      const BarrettField& f) {
  std::vector<WindowTable> tables(static_cast<size_t>(s));
  WindowPowers powers{f, s, tables.data()};
  SharedPowersLoop(polys, xs, out, f, powers, [](uint64_t a, uint64_t b) {
    return ClmulSoft(a, b);
  });
}

// ---- Toeplitz middle product ----------------------------------------------

/// Word geometry of one (n, m) Toeplitz product, fixed across a batch.
/// With ws seed words and wx input words, seed word t times input word u
/// lands on product words d and d + 1, d = (ws - 1 - t) + (wx - 1 - u),
/// counting from the least significant end; output word q is the funnel
/// of product words k0 + wy - 1 - q and the one above it, shifted right
/// by r (the ToeplitzAffine comment has the polynomial reading).
struct ToeplitzShape {
  int wx = 0;  ///< words per input
  int wy = 0;  ///< words per output
  int ws = 0;  ///< seed words read
  int k0 = 0;  ///< lowest product word of the output window
  int r = 0;   ///< bit offset of the window inside product word k0
  uint64_t tail = 0;  ///< valid bits of the last output word
};

ToeplitzShape MakeToeplitzShape(int n, int m) {
  ToeplitzShape sh;
  sh.wx = (n + 63) / 64;
  sh.wy = (m + 63) / 64;
  sh.ws = (n + m - 1 + 63) / 64;
  // y_0 sits at exponent 64 (ws + wx) - n - 1 and the output's top bit at
  // 64 wy - 1, so the window starts s = 64 (ws + wx - wy) - n bits up;
  // s >= 0 because ws >= wy and 64 wx >= n. As 64 wx - n lies in [0, 64),
  // k0 is ws - wy and r is 64 wx - n.
  const int s = 64 * (sh.ws + sh.wx - sh.wy) - n;
  sh.k0 = s / 64;
  sh.r = s % 64;
  sh.tail = (m % 64 == 0) ? ~0ull : ~0ull << (64 - m % 64);
  return sh;
}

/// A one-word-input shape whose seed and output word counts are
/// compile-time constants, so PairsAt and ToeplitzOne unroll to straight
/// code on registers. Two are instantiated: (kWs, kWy) = (1, 1), i.e.
/// n + m <= 65 (the Bucketing row's square hash up to n = 32), and
/// (2, 2), i.e. 64 < m and n + m <= 129 (the Minimum row's m = 3n at
/// n = 32).
template <int kWs, int kWy>
struct FixedToeplitzShape {
  static constexpr int wx = 1;
  static constexpr int wy = kWy;
  static constexpr int ws = kWs;
  static constexpr int k0 = kWs - kWy;
  int r = 0;
  uint64_t tail = 0;
};

/// The carry-less products of the seed and input word pairs that land on
/// product word d, XORed: low halves belong to word d, high halves to
/// d + 1. Zero outside [0, ws + wx - 2].
template <typename Shape, typename Clmul>
__attribute__((always_inline)) inline Product128 PairsAt(
    const Shape& sh, const uint64_t* seed, const uint64_t* x, int d,
    Clmul clmul) {
  Product128 sum;
  const int top = sh.ws + sh.wx - 2;
  if (d < 0 || d > top) return sum;
  const int u_end = std::min(sh.wx - 1, top - d);
  for (int u = std::max(0, sh.wx - 1 - d); u <= u_end; ++u) {
    const Product128 p = clmul(seed[top - d - u], x[u]);
    sum.hi ^= p.hi;
    sum.lo ^= p.lo;
  }
  return sum;
}

/// y = T x + b for one input, through `clmul` (one tier's 64x64 carry-less
/// multiply). Product words are built one at a time, lowest first: word k
/// is the low halves of the pairs at d = k plus the high halves carried
/// from d = k - 1. Always inlined (as is PairsAt), so each tier's wrapper
/// gets its own copy per shape with the multiply inlined under that
/// tier's target options.
template <typename Shape, typename Clmul>
__attribute__((always_inline)) inline void ToeplitzOne(
    const Shape& sh, const uint64_t* seed, const uint64_t* b,
    const uint64_t* x, uint64_t* y, Clmul clmul) {
  uint64_t carry = PairsAt(sh, seed, x, sh.k0 - 1, clmul).hi;
  uint64_t prev = 0;
  // r == 0: the window is whole product words, so the word above the top
  // one is never read.
  const int words = sh.wy + (sh.r != 0 ? 1 : 0);
  for (int j = 0; j < words; ++j) {
    const Product128 p = PairsAt(sh, seed, x, sh.k0 + j, clmul);
    const uint64_t word = p.lo ^ carry;
    carry = p.hi;
    if (j > 0) {
      const int q = sh.wy - j;
      const uint64_t window =
          sh.r == 0 ? prev : (prev >> sh.r) | (word << (64 - sh.r));
      y[q] = window ^ b[q];
    }
    prev = word;
  }
  if (sh.r == 0) y[0] = prev ^ b[0];
  y[sh.wy - 1] &= sh.tail;
}

/// One ToeplitzOne per input of the batch.
template <typename Shape, typename Clmul>
__attribute__((always_inline)) inline void ToeplitzLoop(
    const Shape& sh, std::span<const uint64_t> seed,
    std::span<const uint64_t> b, std::span<const uint64_t> xs,
    std::span<uint64_t> ys, Clmul clmul) {
  uint64_t* y = ys.data();
  for (size_t i = 0; i + static_cast<size_t>(sh.wx) <= xs.size();
       i += static_cast<size_t>(sh.wx), y += sh.wy) {
    ToeplitzOne(sh, seed.data(), b.data(), xs.data() + i, y, clmul);
  }
}

/// The batch entry shared by every tier: the geometry is computed once
/// per call, a one-word input on one of FixedToeplitzShape's two shapes
/// runs it, and every other shape runs the same loop on the runtime
/// geometry.
template <typename Clmul>
__attribute__((always_inline)) inline void ToeplitzBatch(
    std::span<const uint64_t> seed, int n, int m, std::span<const uint64_t> b,
    std::span<const uint64_t> xs, std::span<uint64_t> ys, Clmul clmul) {
  const ToeplitzShape sh = MakeToeplitzShape(n, m);
  if (sh.wx == 1 && sh.ws == 1 && sh.wy == 1) {
    return ToeplitzLoop(FixedToeplitzShape<1, 1>{sh.r, sh.tail}, seed, b, xs,
                        ys, clmul);
  }
  if (sh.wx == 1 && sh.ws == 2 && sh.wy == 2) {
    return ToeplitzLoop(FixedToeplitzShape<2, 2>{sh.r, sh.tail}, seed, b, xs,
                        ys, clmul);
  }
  ToeplitzLoop(sh, seed, b, xs, ys, clmul);
}

void ToeplitzAffineSoft(std::span<const uint64_t> seed, int n, int m,
                        std::span<const uint64_t> b,
                        std::span<const uint64_t> xs, std::span<uint64_t> ys) {
  ToeplitzBatch(seed, n, m, b, xs, ys,
                [](uint64_t a, uint64_t c) { return ClmulSoft(a, c); });
}

// ---- x86-64 PCLMULQDQ tier ------------------------------------------------

#if defined(MCF0_GF2K_X86)
#define MCF0_TARGET_CLMUL __attribute__((target("pclmul,sse4.1")))

/// Product + fold reduction entirely in PCLMULQDQ. Mirrors ReduceSoft
/// exactly — same folds, same result — with each carry-less multiply a
/// single instruction.
MCF0_TARGET_CLMUL inline uint64_t MulClmul(uint64_t a, uint64_t b, int w,
                                           uint64_t mod_low) {
  const __m128i vmod = _mm_set_epi64x(0, static_cast<long long>(mod_low));
  __m128i prod =
      _mm_clmulepi64_si128(_mm_set_epi64x(0, static_cast<long long>(a)),
                           _mm_set_epi64x(0, static_cast<long long>(b)), 0x00);
  uint64_t hi = static_cast<uint64_t>(_mm_extract_epi64(prod, 1));
  uint64_t lo = static_cast<uint64_t>(_mm_cvtsi128_si64(prod));
  if (w == 64) {
    while (hi != 0) {
      const __m128i f = _mm_clmulepi64_si128(
          _mm_set_epi64x(0, static_cast<long long>(hi)), vmod, 0x00);
      hi = static_cast<uint64_t>(_mm_extract_epi64(f, 1));
      lo ^= static_cast<uint64_t>(_mm_cvtsi128_si64(f));
    }
    return lo;
  }
  const uint64_t mask = (1ull << w) - 1;
  uint64_t high = (hi << (64 - w)) | (lo >> w);
  lo &= mask;
  while (high != 0) {
    const __m128i f = _mm_clmulepi64_si128(
        _mm_set_epi64x(0, static_cast<long long>(high)), vmod, 0x00);
    const uint64_t fhi = static_cast<uint64_t>(_mm_extract_epi64(f, 1));
    const uint64_t flo = static_cast<uint64_t>(_mm_cvtsi128_si64(f));
    high = (fhi << (64 - w)) | (flo >> w);
    lo ^= flo & mask;
  }
  return lo;
}

MCF0_TARGET_CLMUL inline Product128 CarrylessMulClmul(uint64_t a,
                                                   uint64_t b) {
  const __m128i prod =
      _mm_clmulepi64_si128(_mm_set_epi64x(0, static_cast<long long>(a)),
                           _mm_set_epi64x(0, static_cast<long long>(b)), 0x00);
  return {static_cast<uint64_t>(_mm_extract_epi64(prod, 1)),
          static_cast<uint64_t>(_mm_cvtsi128_si64(prod))};
}

MCF0_TARGET_CLMUL void HornerBatchClmul(std::span<const uint64_t> coeffs,
                                        std::span<const uint64_t> xs,
                                        std::span<uint64_t> out, int w,
                                        uint64_t mod_low) {
  const uint64_t mask = (w == 64) ? ~0ull : ((1ull << w) - 1);
  const uint64_t top = coeffs.back();
  for (size_t i = 0; i < xs.size(); ++i) {
    const uint64_t x = xs[i] & mask;
    uint64_t acc = top;
    for (size_t k = coeffs.size() - 1; k-- > 0;) {
      acc = MulClmul(acc, x, w, mod_low) ^ coeffs[k];
    }
    out[i] = acc;
  }
}

MCF0_TARGET_CLMUL void SharedPowersClmul(std::span<const uint64_t* const> polys,
                                         int s, std::span<const uint64_t> xs,
                                         std::span<uint64_t> out,
                                         const BarrettField& f) {
  const auto clmul = [](uint64_t a, uint64_t b) MCF0_TARGET_CLMUL {
    return CarrylessMulClmul(a, b);
  };
  // The terms accumulate in one XMM register: one PXOR each, and the sum
  // leaves for general registers once.
  const auto dot = [](const uint64_t* c, const uint64_t* p,
                      int s) MCF0_TARGET_CLMUL {
    __m128i acc = _mm_setzero_si128();
    for (int k = 1; k < s; ++k) {
      acc = _mm_xor_si128(
          acc, _mm_clmulepi64_si128(
                   _mm_cvtsi64_si128(static_cast<long long>(c[k])),
                   _mm_cvtsi64_si128(static_cast<long long>(p[k])), 0x00));
    }
    return Product128{static_cast<uint64_t>(_mm_extract_epi64(acc, 1)),
                      static_cast<uint64_t>(_mm_cvtsi128_si64(acc))};
  };
  std::vector<uint64_t> p(static_cast<size_t>(s));
  WordPowers<decltype(clmul), decltype(dot)> powers{f, s, p.data(), clmul,
                                                    dot};
  SharedPowersLoop(polys, xs, out, f, powers, clmul);
}

MCF0_TARGET_CLMUL void ToeplitzAffineClmul(std::span<const uint64_t> seed,
                                           int n, int m,
                                           std::span<const uint64_t> b,
                                           std::span<const uint64_t> xs,
                                           std::span<uint64_t> ys) {
  ToeplitzBatch(seed, n, m, b, xs, ys,
                [](uint64_t a, uint64_t c) MCF0_TARGET_CLMUL {
                  return CarrylessMulClmul(a, c);
                });
}
#endif  // MCF0_GF2K_X86

// ---- arm64 NEON PMULL tier ------------------------------------------------

#if defined(MCF0_GF2K_ARM)
#define MCF0_TARGET_PMULL __attribute__((target("+crypto")))

MCF0_TARGET_PMULL inline Product128 CarrylessMulPmullRaw(uint64_t a,
                                                         uint64_t b) {
  const poly128_t prod =
      vmull_p64(static_cast<poly64_t>(a), static_cast<poly64_t>(b));
  const uint64x2_t v = vreinterpretq_u64_p128(prod);
  return {vgetq_lane_u64(v, 1), vgetq_lane_u64(v, 0)};
}

MCF0_TARGET_PMULL inline uint64_t MulPmull(uint64_t a, uint64_t b, int w,
                                           uint64_t mod_low) {
  Product128 p = CarrylessMulPmullRaw(a, b);
  if (w == 64) {
    while (p.hi != 0) {
      const Product128 f = CarrylessMulPmullRaw(p.hi, mod_low);
      p.hi = f.hi;
      p.lo ^= f.lo;
    }
    return p.lo;
  }
  const uint64_t mask = (1ull << w) - 1;
  uint64_t high = (p.hi << (64 - w)) | (p.lo >> w);
  uint64_t lo = p.lo & mask;
  while (high != 0) {
    const Product128 f = CarrylessMulPmullRaw(high, mod_low);
    high = (f.hi << (64 - w)) | (f.lo >> w);
    lo ^= f.lo & mask;
  }
  return lo;
}

MCF0_TARGET_PMULL void HornerBatchPmull(std::span<const uint64_t> coeffs,
                                        std::span<const uint64_t> xs,
                                        std::span<uint64_t> out, int w,
                                        uint64_t mod_low) {
  const uint64_t mask = (w == 64) ? ~0ull : ((1ull << w) - 1);
  const uint64_t top = coeffs.back();
  for (size_t i = 0; i < xs.size(); ++i) {
    const uint64_t x = xs[i] & mask;
    uint64_t acc = top;
    for (size_t k = coeffs.size() - 1; k-- > 0;) {
      acc = MulPmull(acc, x, w, mod_low) ^ coeffs[k];
    }
    out[i] = acc;
  }
}

MCF0_TARGET_PMULL void SharedPowersPmull(std::span<const uint64_t* const> polys,
                                         int s, std::span<const uint64_t> xs,
                                         std::span<uint64_t> out,
                                         const BarrettField& f) {
  const auto clmul = [](uint64_t a, uint64_t b) MCF0_TARGET_PMULL {
    return CarrylessMulPmullRaw(a, b);
  };
  const auto dot = [clmul](const uint64_t* c, const uint64_t* p,
                           int s) MCF0_TARGET_PMULL {
    Product128 acc;
    for (int k = 1; k < s; ++k) {
      const Product128 t = clmul(c[k], p[k]);
      acc.hi ^= t.hi;
      acc.lo ^= t.lo;
    }
    return acc;
  };
  std::vector<uint64_t> p(static_cast<size_t>(s));
  WordPowers<decltype(clmul), decltype(dot)> powers{f, s, p.data(), clmul,
                                                    dot};
  SharedPowersLoop(polys, xs, out, f, powers, clmul);
}

MCF0_TARGET_PMULL void ToeplitzAffinePmull(std::span<const uint64_t> seed,
                                           int n, int m,
                                           std::span<const uint64_t> b,
                                           std::span<const uint64_t> xs,
                                           std::span<uint64_t> ys) {
  ToeplitzBatch(seed, n, m, b, xs, ys,
                [](uint64_t a, uint64_t c) MCF0_TARGET_PMULL {
                  return CarrylessMulPmullRaw(a, c);
                });
}
#endif  // MCF0_GF2K_ARM

// ---- detection and dispatch -----------------------------------------------

bool CpuHasClmul() {
#if defined(MCF0_GF2K_X86)
  return __builtin_cpu_supports("pclmul") != 0;
#else
  return false;
#endif
}

bool CpuHasPmull() {
#if defined(MCF0_GF2K_ARM) && defined(__linux__)
  // HWCAP_PMULL == (1 << 4) on arm64 Linux; spelled numerically so the
  // header set stays minimal.
  return (getauxval(AT_HWCAP) & (1ul << 4)) != 0;
#else
  return false;
#endif
}

bool EnvForcesPortable() {
  const char* value = std::getenv("MCF0_FORCE_PORTABLE");
  if (value == nullptr) return false;
  return std::strcmp(value, "1") == 0 || std::strcmp(value, "true") == 0;
}

obs::Gauge* TierGauge() {
  static obs::Gauge* gauge =
      obs::Registry::Global().GetGauge("mcf0_hash_kernel_tier");
  return gauge;
}

/// Bench/test override; -1 = none. Read relaxed on every dispatch —
/// one extra load on the scalar path, hoisted entirely in the batch
/// entry points.
std::atomic<int>& OverrideTier() {
  static std::atomic<int> tier{-1};
  return tier;
}

KernelTier ResolveDetectedTier() {
  if (EnvForcesPortable()) return KernelTier::kPortable;
  if (CpuHasPmull()) return KernelTier::kPmull;
  if (CpuHasClmul()) return KernelTier::kClmul;
  return KernelTier::kPortable;
}

}  // namespace

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kPortable: return "portable";
    case KernelTier::kClmul: return "clmul";
    case KernelTier::kPmull: return "pmull";
  }
  return "?";
}

KernelTier DetectedKernelTier() {
  static const KernelTier tier = [] {
    const KernelTier resolved = ResolveDetectedTier();
    TierGauge()->Set(static_cast<int64_t>(resolved));
    return resolved;
  }();
  return tier;
}

KernelTier ActiveKernelTier() {
  const int forced = OverrideTier().load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<KernelTier>(forced);
  return DetectedKernelTier();
}

bool KernelTierAvailable(KernelTier tier) {
  switch (tier) {
    case KernelTier::kPortable: return true;
    case KernelTier::kClmul: return CpuHasClmul();
    case KernelTier::kPmull: return CpuHasPmull();
  }
  return false;
}

void ForceKernelTier(std::optional<KernelTier> tier) {
  if (tier.has_value()) {
    MCF0_CHECK(KernelTierAvailable(*tier));
    OverrideTier().store(static_cast<int>(*tier), std::memory_order_relaxed);
    TierGauge()->Set(static_cast<int64_t>(*tier));
  } else {
    OverrideTier().store(-1, std::memory_order_relaxed);
    TierGauge()->Set(static_cast<int64_t>(DetectedKernelTier()));
  }
}

Product128 CarrylessMulWithTier(KernelTier tier, uint64_t a, uint64_t b) {
  switch (tier) {
#if defined(MCF0_GF2K_X86)
    case KernelTier::kClmul: return CarrylessMulClmul(a, b);
#endif
#if defined(MCF0_GF2K_ARM)
    case KernelTier::kPmull: return CarrylessMulPmullRaw(a, b);
#endif
    default: return ClmulSoft(a, b);
  }
}

uint64_t MulWithTier(KernelTier tier, uint64_t a, uint64_t b, int w,
                     uint64_t mod_low) {
  switch (tier) {
#if defined(MCF0_GF2K_X86)
    case KernelTier::kClmul: return MulClmul(a, b, w, mod_low);
#endif
#if defined(MCF0_GF2K_ARM)
    case KernelTier::kPmull: return MulPmull(a, b, w, mod_low);
#endif
    default: return MulSoft(a, b, w, mod_low);
  }
}

uint64_t Mul(uint64_t a, uint64_t b, int w, uint64_t mod_low) {
  return MulWithTier(ActiveKernelTier(), a, b, w, mod_low);
}

void HornerBatch(std::span<const uint64_t> coeffs,
                 std::span<const uint64_t> xs, std::span<uint64_t> out, int w,
                 uint64_t mod_low) {
  MCF0_CHECK(!coeffs.empty() && xs.size() == out.size());
  switch (ActiveKernelTier()) {
#if defined(MCF0_GF2K_X86)
    case KernelTier::kClmul:
      HornerBatchClmul(coeffs, xs, out, w, mod_low);
      return;
#endif
#if defined(MCF0_GF2K_ARM)
    case KernelTier::kPmull:
      HornerBatchPmull(coeffs, xs, out, w, mod_low);
      return;
#endif
    default: HornerBatchSoft(coeffs, xs, out, w, mod_low); return;
  }
}

void SharedPowersBatch(std::span<const uint64_t* const> polys, int s,
                       std::span<const uint64_t> xs, std::span<uint64_t> out,
                       int w, uint64_t mod_low, uint64_t mu_low) {
  MCF0_CHECK(s >= 1 && w >= 1 && w <= 64 &&
             out.size() == xs.size() * polys.size());
  const BarrettField f{w, w == 64 ? ~0ull : (1ull << w) - 1, mod_low, mu_low};
  switch (ActiveKernelTier()) {
#if defined(MCF0_GF2K_X86)
    case KernelTier::kClmul: SharedPowersClmul(polys, s, xs, out, f); return;
#endif
#if defined(MCF0_GF2K_ARM)
    case KernelTier::kPmull: SharedPowersPmull(polys, s, xs, out, f); return;
#endif
    default: SharedPowersSoft(polys, s, xs, out, f); return;
  }
}

void ToeplitzAffine(std::span<const uint64_t> seed, int n, int m,
                    std::span<const uint64_t> b, std::span<const uint64_t> xs,
                    std::span<uint64_t> ys) {
  MCF0_CHECK(n >= 1 && m >= 1);
  const size_t wx = static_cast<size_t>(n + 63) / 64;
  const size_t wy = static_cast<size_t>(m + 63) / 64;
  // Cross-multiplied, not divided: a 64-bit divide costs more than the
  // two multiplies of a single evaluation. The input loop steps wx words
  // at a time, so a ragged xs cannot write past ys either.
  MCF0_CHECK(seed.size() >= static_cast<size_t>(n + m - 1 + 63) / 64 &&
             b.size() >= wy && xs.size() * wy == ys.size() * wx);
  switch (ActiveKernelTier()) {
#if defined(MCF0_GF2K_X86)
    case KernelTier::kClmul:
      ToeplitzAffineClmul(seed, n, m, b, xs, ys);
      return;
#endif
#if defined(MCF0_GF2K_ARM)
    case KernelTier::kPmull:
      ToeplitzAffinePmull(seed, n, m, b, xs, ys);
      return;
#endif
    default: ToeplitzAffineSoft(seed, n, m, b, xs, ys); return;
  }
}

}  // namespace gf2k
}  // namespace mcf0
