#include "setstream/range.hpp"

#include "common/rng.hpp"

namespace mcf0 {

MultiDimRange::MultiDimRange(int dims, int bits_per_dim)
    : MultiDimRange(std::vector<int>(dims, bits_per_dim)) {}

MultiDimRange::MultiDimRange(std::vector<int> bits_per_dim)
    : bits_(std::move(bits_per_dim)) {
  MCF0_CHECK(!bits_.empty());
  for (const int b : bits_) MCF0_CHECK(b >= 1 && b <= kMaxRangeDimensionBits);
  dims_.resize(bits_.size());
  for (size_t j = 0; j < bits_.size(); ++j) {
    dims_[j] = DimRange{0, (1ull << bits_[j]) - 1, 0};
  }
}

int MultiDimRange::TotalBits() const {
  int total = 0;
  for (const int b : bits_) total += b;
  return total;
}

void MultiDimRange::SetDim(int j, DimRange r) {
  MCF0_CHECK(j >= 0 && j < dims());
  MCF0_CHECK(r.lo <= r.hi);
  MCF0_CHECK(r.hi < (1ull << bits_[j]));
  MCF0_CHECK(r.log2_step >= 0 && r.log2_step < bits_[j]);
  dims_[j] = r;
}

bool MultiDimRange::Contains(const std::vector<uint64_t>& point) const {
  MCF0_CHECK(static_cast<int>(point.size()) == dims());
  for (int j = 0; j < dims(); ++j) {
    const DimRange& r = dims_[j];
    if (point[j] < r.lo || point[j] > r.hi) return false;
    if (r.log2_step > 0) {
      const uint64_t mask = (1ull << r.log2_step) - 1;
      if ((point[j] & mask) != (r.lo & mask)) return false;
    }
  }
  return true;
}

double MultiDimRange::Volume() const {
  double volume = 1.0;
  for (int j = 0; j < dims(); ++j) {
    const DimRange& r = dims_[j];
    const uint64_t step = 1ull << r.log2_step;
    const uint64_t span = r.hi - r.lo;
    volume *= static_cast<double>(span / step + 1);
  }
  return volume;
}

MultiDimRange MultiDimRange::Random(int dims, int bits_per_dim, Rng& rng) {
  MultiDimRange range(dims, bits_per_dim);
  const uint64_t universe = 1ull << bits_per_dim;
  for (int j = 0; j < dims; ++j) {
    uint64_t a = rng.NextBelow(universe);
    uint64_t b = rng.NextBelow(universe);
    if (a > b) std::swap(a, b);
    range.SetDim(j, DimRange{a, b, 0});
  }
  return range;
}

}  // namespace mcf0
