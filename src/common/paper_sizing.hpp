/// \file paper_sizing.hpp
/// \brief The paper's two sizing formulas, written out once: every F0
/// sketch and every approximate counter derives its Thresh and its row
/// count t from these.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.hpp"

namespace mcf0 {

/// Thresh = ceil(96 / eps^2) (Algorithm 1 line 1; Algorithms 5-7). Casting
/// a double past 2^64, or a NaN, to an integer is UB, so an eps of zero,
/// NaN, or below ~3e-9 is a caller bug that aborts here (the wire decoders
/// bound eps before ever reaching this).
inline uint64_t PaperThresh(double eps) {
  const double thresh = std::ceil(96.0 / (eps * eps));
  MCF0_CHECK(thresh <= 9.0e18);
  return static_cast<uint64_t>(thresh);
}

/// t = ceil(35 log2(1/delta)) rows (Algorithm 1 line 2), checked like
/// PaperThresh: a delta outside (0, 1], or one so small that 1/delta
/// overflows, aborts.
inline int PaperRows(double delta) {
  const double rows = std::ceil(35.0 * std::log2(1.0 / delta));
  MCF0_CHECK(rows >= 0 && rows <= std::numeric_limits<int>::max());
  return static_cast<int>(rows);
}

}  // namespace mcf0
