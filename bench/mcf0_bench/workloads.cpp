// The frozen workload table, input generation from the workload seed,
// and the small shared helpers (report, statistics, files, JSON).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "harness.hpp"

namespace mcf0::bench {

const std::vector<WorkloadSpec>& Workloads() {
  // Sizes are frozen; changing one changes the benchmark, not the system.
  // A run repeats rounds of this size (README.md, "Workloads"). On a
  // 4-vCPU x86-64 VM at the commit that introduced them, a round takes
  // about 4 s, 3.5 s, 6 s and 4.5 s. serve_minimum pushes 8 full
  // 4096-item batches per pusher, so the pipeline's fill and drain (one
  // Minimum batch keeps a shard busy for about 0.5 s) stay a small share
  // of the round. build_range_minimum's round holds 70 range shapes,
  // because the work per range varies widely (see GenerateInputs).
  // mapreduce_estimation's round is long enough that the fixed cost of
  // the merge (about 25 ms) stays under 1% of it.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"serve_minimum", WorkloadKind::kServeMinimum, 65'536, 1ull << 32,
       100.0, false},
      {"serve_bucketing_mixed", WorkloadKind::kServeBucketingMixed, 1'200'000,
       200'000, 200.0, true},
      {"build_range_minimum", WorkloadKind::kBuildRangeMinimum, 70, 0, 0.0,
       false},
      {"mapreduce_estimation", WorkloadKind::kMapReduceEstimation, 20'000,
       1ull << 32, 0.0, false},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

WorkloadSpec SmokeSized(const WorkloadSpec& spec) {
  WorkloadSpec smoke = spec;
  smoke.items = std::max<size_t>(spec.items / 100, 2);
  // Keep the duplication of a repeated-key workload (items per key).
  if (spec.universe < (1ull << 32) && spec.universe > 0) {
    smoke.universe = std::max<uint64_t>(
        spec.universe * smoke.items / spec.items, 1);
  }
  return smoke;
}

bool IsServe(const WorkloadSpec& spec) {
  return spec.kind == WorkloadKind::kServeMinimum ||
         spec.kind == WorkloadKind::kServeBucketingMixed;
}

bool IsRaw(const WorkloadSpec& spec) {
  return spec.kind != WorkloadKind::kBuildRangeMinimum;
}

namespace {

/// Exact |union| of 2-D ranges by coordinate compression: every
/// elementary cell between consecutive range boundaries is either fully
/// covered or not. Independent of the library's own exact-union code.
double ExactRangeUnion(const std::vector<MultiDimRange>& ranges) {
  std::vector<uint64_t> xs;
  std::vector<uint64_t> ys;
  for (const MultiDimRange& r : ranges) {
    xs.push_back(r.Dim(0).lo);
    xs.push_back(r.Dim(0).hi + 1);
    ys.push_back(r.Dim(1).lo);
    ys.push_back(r.Dim(1).hi + 1);
  }
  for (auto* axis : {&xs, &ys}) {
    std::sort(axis->begin(), axis->end());
    axis->erase(std::unique(axis->begin(), axis->end()), axis->end());
  }
  double area = 0.0;
  for (size_t i = 0; i + 1 < xs.size(); ++i) {
    for (size_t j = 0; j + 1 < ys.size(); ++j) {
      for (const MultiDimRange& r : ranges) {
        if (r.Dim(0).lo <= xs[i] && xs[i] <= r.Dim(0).hi &&
            r.Dim(1).lo <= ys[j] && ys[j] <= r.Dim(1).hi) {
          area += static_cast<double>(xs[i + 1] - xs[i]) *
                  static_cast<double>(ys[j + 1] - ys[j]);
          break;
        }
      }
    }
  }
  return area;
}

}  // namespace

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed) {
  // The seed picks the inputs only; the sketch's own hash seed stays at
  // the mcf0 default on both sides.
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(spec.kind));
  Inputs inputs;
  if (IsRaw(spec)) {
    inputs.elements.resize(spec.items);
    for (uint64_t& x : inputs.elements) x = rng.NextBelow(spec.universe);
    std::vector<uint64_t> distinct = inputs.elements;
    std::sort(distinct.begin(), distinct.end());
    inputs.exact_f0 = static_cast<double>(
        std::unique(distinct.begin(), distinct.end()) - distinct.begin());
    return inputs;
  }
  // Every seed does the same §5 work. A range's Lemma 4 terms depend only
  // on its side lengths and on where it sits inside an aligned block of
  // twice the longest side, and those come from a fixed stream. The seed
  // picks each range's block in each dimension. With uniform ranges, the
  // build's CPU time per range had an interquartile spread of 15-18% over
  // ten seeds, while one seed repeated within 4%.
  constexpr uint64_t kBlock = 2 * kRangeMaxSide;
  constexpr uint64_t kBlocks = (1ull << kRangeBits) / kBlock;
  Rng shapes(0x52414E4745ull);
  for (size_t i = 0; i < spec.items; ++i) {
    MultiDimRange range(kRangeDims, kRangeBits);
    for (int d = 0; d < kRangeDims; ++d) {
      const uint64_t side = 1 + shapes.NextBelow(kRangeMaxSide);
      const uint64_t lo = rng.NextBelow(kBlocks) * kBlock +
                          shapes.NextBelow(kBlock - side + 1);
      range.SetDim(d, DimRange{lo, lo + side - 1, 0});
    }
    inputs.ranges.push_back(std::move(range));
  }
  inputs.exact_f0 = ExactRangeUnion(inputs.ranges);
  return inputs;
}

std::vector<uint64_t> SamplePoints(const WorkloadSpec& spec,
                                   const Inputs& inputs, size_t count,
                                   uint64_t seed) {
  if (IsRaw(spec)) {
    count = std::min(count, inputs.elements.size());
    return {inputs.elements.begin(),
            inputs.elements.begin() + static_cast<ptrdiff_t>(count)};
  }
  // A point of a 2-D range is x‖y: dimension 0 holds the high bits, as in
  // the Lemma 4 variable layout.
  Rng rng(seed ^ 0x5A4D504Cull);
  std::vector<uint64_t> points(count);
  for (uint64_t& p : points) {
    const MultiDimRange& r = inputs.ranges[rng.NextBelow(inputs.ranges.size())];
    const uint64_t x =
        r.Dim(0).lo + rng.NextBelow(r.Dim(0).hi - r.Dim(0).lo + 1);
    const uint64_t y =
        r.Dim(1).lo + rng.NextBelow(r.Dim(1).hi - r.Dim(1).lo + 1);
    p = (x << kRangeBits) | y;
  }
  return points;
}

std::string ElementsText(const uint64_t* begin, const uint64_t* end) {
  std::string text;
  text.reserve(static_cast<size_t>(end - begin) * 11);
  char buffer[24];
  for (const uint64_t* x = begin; x != end; ++x) {
    const int len = std::snprintf(buffer, sizeof(buffer), "%llu\n",
                                  static_cast<unsigned long long>(*x));
    text.append(buffer, static_cast<size_t>(len));
  }
  return text;
}

std::string RangesText(const std::vector<MultiDimRange>& ranges) {
  std::ostringstream text;
  text << "p range " << kRangeDims << " " << kRangeBits << "\n";
  for (const MultiDimRange& r : ranges) {
    for (int d = 0; d < r.dims(); ++d) {
      text << (d == 0 ? "" : " ") << r.Dim(d).lo << " " << r.Dim(d).hi;
    }
    text << "\n";
  }
  return text.str();
}

bool WithinBand(double estimate, double exact) {
  return estimate >= exact / (1.0 + kEps) && estimate <= exact * (1.0 + kEps);
}

void Report::Fail(const std::string& what) {
  correct = false;
  errors.push_back(what);
}

void Report::Count(bool ok, uint64_t operations) {
  attempted += operations;
  if (!ok) failed += operations;
}

void Report::Check(bool ok, const std::string& what) {
  Count(ok);
  if (!ok) Fail(what);
}

double QuantileOf(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= values.size()) return values.back();
  return values[i] +
         (values[i + 1] - values[i]) * (pos - static_cast<double>(i));
}

double MedianOf(std::vector<double> values) {
  return QuantileOf(std::move(values), 0.5);
}

double TailOf(std::vector<double> values) {
  if (values.size() < 11) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() - 11];
}

std::optional<double> JsonNumber(const std::string& json,
                                 const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const char* begin = json.c_str() + at + needle.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return value;
}

bool ReadFile(const std::string& path, std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *bytes = buffer.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return static_cast<bool>(out);
}

}  // namespace mcf0::bench
