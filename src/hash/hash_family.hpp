/// \file hash_family.hpp
/// \brief The paper's 2-wise independent affine hash families.
///
/// An `AffineHash` is one sampled function h(x) = A x + b from {0,1}^n to
/// {0,1}^m. Three sampling distributions are provided:
///
///  * H_Toeplitz(n, m): A is a uniformly random Toeplitz matrix — Theta(n+m)
///    bits of representation (§2).
///  * H_xor(n, m): A is a uniformly random dense matrix — Theta(n*m) bits.
///  * Sparse XOR (§6 future work): each entry of A is 1 with a given row
///    density, following Meel & Akshay's sparse hashing line of work.
///
/// All variants expose the prefix-slice h_l (first l rows of A, first l bits
/// of b), the structural property that powers the Bucketing algorithms: the
/// cells h_l^{-1}(0^l) are nested as l grows.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gf2/bitvec.hpp"
#include "gf2/gf2_matrix.hpp"

namespace mcf0 {

class Rng;

/// Sampling distribution of an AffineHash.
enum class AffineHashKind { kToeplitz, kXor, kSparseXor };

/// One function h(x) = A x + b; see file comment.
///
/// A Toeplitz hash is held as its n + m - 1 bit diagonal seed and
/// evaluates through the carry-less middle product gf2k::ToeplitzAffine,
/// Theta(n + m) bits and a few word multiplies per input. XOR and sparse
/// hashes, and kToeplitz FromParts hashes whose matrix is not Toeplitz,
/// keep their matrix and evaluate by its rows. Linear algebra reads A
/// through Row(i) (the oracles' XOR constraints, the Bucketing cell
/// systems, the codec's dense fallback) and Columns() (the §5 affine
/// images); a Toeplitz hash answers both from seed windows and never
/// builds an m x n matrix.
class AffineHash {
 public:
  /// Samples from H_Toeplitz(n, m).
  static AffineHash SampleToeplitz(int n, int m, Rng& rng);

  /// Samples from H_xor(n, m).
  static AffineHash SampleXor(int n, int m, Rng& rng);

  /// Samples a sparse-XOR hash: A entries Bernoulli(row_density), b uniform.
  static AffineHash SampleSparseXor(int n, int m, double row_density, Rng& rng);

  /// Wraps explicit parts (used by tests, by distributed coordinators that
  /// ship hash functions to sites, and by the sketch codec when rehydrating
  /// serialized hash state). `repr_bits` preserves the original
  /// representation cost across a serialize/deserialize round trip; 0 means
  /// "dense": Theta(n*m + m), correct for (sparse) XOR matrices. A
  /// kToeplitz hash whose matrix is Toeplitz keeps only its seed; any
  /// other matrix keeps its rows.
  static AffineHash FromParts(Gf2Matrix a, BitVec b, AffineHashKind kind,
                              size_t repr_bits = 0);

  /// Rebuilds h(x) = A x + b from a Toeplitz diagonal seed of n + m - 1
  /// bits — the wire-format-v2 reconstruction ctor (docs/wire_format.md):
  /// a serialized Toeplitz hash ships only its seed and offset, not the
  /// materialized rows.
  static AffineHash FromToeplitzSeed(int n, int m, const BitVec& seed,
                                     BitVec b, size_t repr_bits);

  /// True iff A is constant along its diagonals, i.e. representable by the
  /// n + m - 1 bit diagonal seed. Always true for SampleToeplitz hashes;
  /// the sketch codec checks it before seed-encoding a hash whose kind
  /// merely *claims* Toeplitz (FromParts accepts arbitrary matrices).
  bool HasToeplitzMatrix() const;

  /// The diagonal seed (first row read right-to-left, then down the first
  /// column; see gf2/toeplitz.hpp). Requires HasToeplitzMatrix().
  BitVec ToeplitzSeed() const;

  int n() const { return n_; }
  int m() const { return m_; }
  AffineHashKind kind() const { return kind_; }

  /// Words per output value: ceil(m / 64).
  int OutputWords() const { return (m_ + 63) / 64; }

  /// h(x) = A x + b for an n-bit input.
  BitVec Eval(const BitVec& x) const;

  /// h applied to each element of `xs` as Eval64 reads it (its low n bits;
  /// requires n <= 64), written to `ys` OutputWords() words per element in
  /// the BitVec layout. Toeplitz hashes run one kernel call per block of
  /// elements; does not allocate.
  void EvalBatch(std::span<const uint64_t> xs, std::span<uint64_t> ys) const;

  /// Prefix slice h_l(x): the first l bits of h(x) (§2).
  BitVec EvalPrefix(const BitVec& x, int l) const;

  /// Convenience for word-sized universes (n <= 64): h applied to the n-bit
  /// big-endian encoding of `x`, returned as the m-bit value (requires
  /// m <= 64). No BitVec allocation: the middle product for Toeplitz
  /// hashes, one AND + popcount-parity per output bit otherwise.
  uint64_t Eval64(uint64_t x) const;

  /// The hash restricted to its first l output bits as a standalone hash.
  AffineHash PrefixHash(int l) const;

  /// Row i of A as an n-bit vector: the seed window [i, i + n) read back
  /// to front for a Toeplitz hash (as ToeplitzMatrix::Row), the stored row
  /// otherwise.
  BitVec Row(int i) const;

  /// The n columns of A, column j = h(e_j) + b at words
  /// [j * OutputWords(), (j + 1) * OutputWords()) in the BitVec layout. A
  /// Toeplitz column is the m-bit seed window starting at bit n - 1 - j,
  /// read by funnel shifts: O(n * m / 64) words, no matrix.
  std::vector<uint64_t> Columns() const;

  const BitVec& b() const { return b_; }

  /// Bits needed to represent the sampled function: Theta(n + m) for
  /// Toeplitz, Theta(n * m) for (sparse) XOR — the contrast in §2.
  size_t RepresentationBits() const;

  /// Same function: identical matrix, offset, and sampling kind. Sketch
  /// merges require both sides to share hash state (§4); this is the check.
  bool operator==(const AffineHash& o) const;

 private:
  AffineHash(int n, int m, BitVec seed, BitVec b, AffineHashKind kind,
             size_t repr_bits);
  AffineHash(Gf2Matrix a, BitVec b, AffineHashKind kind, size_t repr_bits);

  /// The first l bits of h(x) into `y` (ceil(l / 64) words).
  void EvalRowsInto(std::span<const uint64_t> x, int l,
                    std::span<uint64_t> y) const;

  int n_ = 0;
  int m_ = 0;
  BitVec b_;
  AffineHashKind kind_;
  size_t repr_bits_;
  /// Toeplitz hashes: the diagonal seed, the only state evaluation reads.
  /// Empty for hashes that evaluate by their matrix rows.
  BitVec seed_;
  /// Row hashes: the matrix A, evaluated by its rows. Shared by copies
  /// (immutable). Null for Toeplitz hashes.
  std::shared_ptr<const Gf2Matrix> rows_;
  /// Row hashes with n <= 64: row i of A packed into one word (the BitVec
  /// layout: input bit j at word bit 63 - j), so Eval64 — the FM rows' hot
  /// path — is AND + parity per output bit. Empty otherwise. Derived state
  /// — not part of operator== or any serialized form.
  std::vector<uint64_t> packed_rows_;
};

}  // namespace mcf0
