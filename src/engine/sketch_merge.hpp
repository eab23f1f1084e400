/// \file sketch_merge.hpp
/// \brief Union-semantics merge for F0 sketches (§4).
///
/// The paper's central bridge is that all three sketches are composable: if
/// sketch A absorbed stream S_A and sketch B absorbed S_B *using the same
/// hash functions*, a merged sketch equal to the one a single pass over
/// S_A ∪ S_B would have produced can be computed from the two states alone:
///
///   Bucketing:  re-filter the union of buckets to the deeper side's level,
///               then keep escalating while the cell stays over Thresh —
///               exact because the cells h_l^{-1}(0^l) are nested in l.
///   Minimum:    set-union of the KMV values, re-truncated to the Thresh
///               lexicographically smallest.
///   Estimation: per-cell max of trailing-zero counters (FM likewise).
///
/// Every Merge() checks compatibility first — identical hash state and
/// thresholds — and returns InvalidArgument instead of silently producing a
/// meaningless union. Replicas built from the same F0Params (same seed)
/// are always compatible; that is the contract ShardedF0Engine and the
/// `mcf0 sketch merge` CLI rely on.
///
/// `BucketingCoordinator` is the fingerprint-tuple variant of the same
/// union used by the §4 distributed protocol, where sites ship
/// (fingerprint, TrailZero) pairs instead of raw bucket elements; the
/// distributed DNF simulation is a thin client of it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "engine/sketch_codec.hpp"
#include "setstream/structured_f0.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {

/// Unions `from` into `into`. The rows must share hash state and thresh;
/// after the call `into` equals the row a single pass over both input
/// streams would have built. `from` is unchanged.
Status Merge(BucketingSketchRow& into, const BucketingSketchRow& from);
Status Merge(MinimumSketchRow& into, const MinimumSketchRow& from);
/// Estimation rows must agree on cell count and (possibly empty) hash
/// state; cells-only rows merge with cells-only rows.
Status Merge(EstimationSketchRow& into, const EstimationSketchRow& from);
Status Merge(FlajoletMartinRow& into, const FlajoletMartinRow& from);
/// Structured (§5) bucketing rows union exactly like the word-universe
/// ones: re-filter to the deeper side's level, then keep escalating while
/// over thresh.
Status Merge(StructuredBucketRow& into, const StructuredBucketRow& from);

/// Row-wise union of two estimators built from identical F0Params
/// (including the seed, so all sampled hash functions coincide).
Status Merge(F0Estimator& into, const F0Estimator& from);

/// Row-wise union of two structured sketches built from identical
/// StructuredF0Params. Oracle-call counters accumulate.
Status Merge(StructuredF0& into, const StructuredF0& from);

/// Kind-dispatching union over the unified handle: raw merges with raw,
/// structured with structured; mixing kinds is InvalidArgument.
Status Merge(SketchVariant& into, const SketchVariant& from);

/// MergeSketchStreams' success value. It carries nothing; the type stays
/// because bench/mcf0_bench/layers.cpp names it.
struct SketchStreamMergeStats {};

/// One reducer input with a name for error attribution. `name` is
/// typically the shard's file name; an empty name degrades every error
/// for this input to its bare message. Both views must outlive the merge.
struct LabeledSource {
  std::string_view name;
  std::string_view bytes;
};

/// The reducer: folds N serialized whole-sketch frames (raw estimators
/// or structured sketches — all inputs one kind) into one merged frame.
/// Inputs are decoded one at a time and folded into the union with
/// Merge(), so the decoded state alive at any instant is the union plus
/// one input, however many inputs there are. The merged frame is exactly
/// SketchCodec::Encode of the union, written to `out` once, at the end,
/// and only on success: a failed merge writes nothing, and a failed write
/// of `out` is kUnavailable. All inputs must share parameters; v1 and v2
/// raw inputs mix freely (structured frames are v2-only). The union keeps
/// input 0's hashes (Merge() never changes them), so the output — always
/// a v2 frame — elides hash state when input 0's hashes are attested or
/// proven canonical, by Encode's own rule. Every error is attributed to the
/// offending input by name in a single pass — corrupt shards, parameter
/// mismatches, and row-level incompatibilities alike — so callers need no
/// pre-open validation sweep.
Result<SketchStreamMergeStats> MergeSketchStreams(
    const std::vector<LabeledSource>& inputs, std::ostream& out);

/// Anonymous-input convenience (errors carry no input names).
/// `out_version` (must be kFormatV2) is kept for bench/mcf0_bench/layers.cpp.
Result<SketchStreamMergeStats> MergeSketchStreams(
    const std::vector<std::string_view>& inputs, uint16_t out_version,
    std::ostream& out);

/// Coordinator-side bucket union for the distributed Bucketing protocol
/// (§4): sites ship (fingerprint, TrailZero(H[i](x))) tuples for the
/// solutions in their saturating cell; the coordinator dedupes by
/// fingerprint keeping the max depth, then escalates the union's level
/// until the cell de-saturates.
class BucketingCoordinator {
 public:
  /// Records one shipped tuple; duplicate fingerprints keep the deepest
  /// trailing-zero count (identical elements always agree on depth).
  void AddTuple(uint64_t fingerprint, int trailing_zeros);

  struct LeveledCount {
    uint64_t count = 0;
    int level = 0;
  };

  /// Distinct fingerprints at depth >= level, starting from `start_level`
  /// (the deepest site level) and escalating while the count stays
  /// saturated (>= thresh) and level < max_level.
  LeveledCount Resolve(uint64_t thresh, int start_level, int max_level) const;

  size_t num_tuples() const { return tuples_.size(); }

 private:
  std::unordered_map<uint64_t, int> tuples_;
};

}  // namespace mcf0
