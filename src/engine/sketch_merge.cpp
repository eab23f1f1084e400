#include "engine/sketch_merge.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>

#include "engine/sketch_codec.hpp"

namespace mcf0 {
namespace {

Status Incompatible(const char* what) {
  return Status::InvalidArgument(
      std::string(what) +
      ": sketches are only mergeable when built from the same parameters "
      "and seed (identical hash state)");
}

}  // namespace

Status Merge(BucketingSketchRow& into, const BucketingSketchRow& from) {
  if (into.thresh() != from.thresh() || !(into.hash() == from.hash())) {
    return Incompatible("bucketing rows");
  }
  const int n = into.hash().n();
  int level = std::max(into.level(), from.level());
  // The cells are nested, so both buckets re-filtered to the deeper level,
  // unioned, and escalated while saturated reproduce exactly the state of a
  // single pass over the concatenated streams.
  std::unordered_set<uint64_t> bucket;
  for (const uint64_t x : into.bucket()) {
    if (into.InCell(x, level)) bucket.insert(x);
  }
  for (const uint64_t x : from.bucket()) {
    if (into.InCell(x, level)) bucket.insert(x);
  }
  while (bucket.size() > into.thresh() && level < n) {
    ++level;
    std::erase_if(bucket,
                  [&](uint64_t x) { return !into.InCell(x, level); });
  }
  into = BucketingSketchRow(into.hash(), into.thresh(), level,
                            std::move(bucket));
  return Status::Ok();
}

Status Merge(MinimumSketchRow& into, const MinimumSketchRow& from) {
  if (into.thresh() != from.thresh() || !(into.hash() == from.hash())) {
    return Incompatible("minimum rows");
  }
  // AddHashed is the KMV union: set-insert, then drop back to the Thresh
  // smallest.
  for (const BitVec& v : from.values()) into.AddHashed(v);
  return Status::Ok();
}

Status Merge(EstimationSketchRow& into, const EstimationSketchRow& from) {
  if (into.cells().size() != from.cells().size() ||
      !(into.hashes() == from.hashes())) {
    return Incompatible("estimation rows");
  }
  for (size_t j = 0; j < from.cells().size(); ++j) {
    into.Merge(static_cast<int>(j), from.cells()[j]);
  }
  return Status::Ok();
}

Status Merge(FlajoletMartinRow& into, const FlajoletMartinRow& from) {
  if (!(into.hash() == from.hash())) return Incompatible("FM rows");
  into.Merge(from.max_trailing_zeros());
  return Status::Ok();
}

Status Merge(StructuredBucketRow& into, const StructuredBucketRow& from) {
  if (into.thresh() != from.thresh() || !(into.hash() == from.hash())) {
    return Incompatible("structured bucketing rows");
  }
  const int n = into.n();
  int level = std::max(into.level(), from.level());
  // Nested cells again: both buckets re-filtered to the deeper level,
  // unioned, escalated while saturated == the single-pass state.
  std::set<BitVec> bucket;
  for (const BitVec& x : into.bucket()) {
    if (into.InCell(x, level)) bucket.insert(x);
  }
  for (const BitVec& x : from.bucket()) {
    if (into.InCell(x, level)) bucket.insert(x);
  }
  while (bucket.size() > into.thresh() && level < n) {
    ++level;
    std::erase_if(bucket,
                  [&](const BitVec& x) { return !into.InCell(x, level); });
  }
  into = StructuredBucketRow(into.hash(), into.thresh(), level,
                             std::move(bucket));
  return Status::Ok();
}

Status Merge(F0Estimator& into, const F0Estimator& from) {
  if (!(into.params() == from.params())) {
    return Incompatible("F0 estimators");
  }
  // Self-merge is an idempotent no-op; short-circuit before the parts
  // exchange below empties the aliased `from`.
  if (&into == &from) return Status::Ok();
  // The sealed exchange: take the whole state out of `into`, fold `from`'s
  // rows in, and reassemble. The hashes_canonical attestation rides along
  // in the bundle untouched — merging exchanges row *contents* only, and
  // each row Merge() proves hash equality before touching state, so
  // `into`'s own hashes are exactly what they were. Reassembly happens on
  // every path (including row-level failure) so `into` is never left
  // moved-from.
  F0Estimator::Parts parts = std::move(into).ReleaseParts();
  auto merge_rows = [](auto& dst, const auto& src) -> Status {
    if (dst.size() != src.size()) return Incompatible("F0 estimator rows");
    for (size_t i = 0; i < dst.size(); ++i) {
      Status status = Merge(dst[i], src[i]);
      if (!status.ok()) return status;
    }
    return Status::Ok();
  };
  Status status = merge_rows(parts.bucketing, from.bucketing_rows());
  if (status.ok()) status = merge_rows(parts.minimum, from.minimum_rows());
  if (status.ok()) {
    status = merge_rows(parts.estimation, from.estimation_rows());
  }
  if (status.ok()) status = merge_rows(parts.fm, from.fm_rows());
  into = F0Estimator::FromParts(std::move(parts));
  return status;
}

Status Merge(StructuredF0& into, const StructuredF0& from) {
  if (!(into.params() == from.params())) {
    return Incompatible("structured F0 sketches");
  }
  if (&into == &from) return Status::Ok();  // see the raw-estimator merge
  // The same sealed exchange as the raw estimator merge: state out, rows
  // folded, state back in on every path, attestation untouched.
  StructuredF0::Parts parts = std::move(into).ReleaseParts();
  auto merge_rows = [](auto& dst, const auto& src) -> Status {
    if (dst.size() != src.size()) return Incompatible("structured F0 rows");
    for (size_t i = 0; i < dst.size(); ++i) {
      Status status = Merge(dst[i], src[i]);
      if (!status.ok()) return status;
    }
    return Status::Ok();
  };
  Status status = merge_rows(parts.minimum, from.minimum_rows());
  if (status.ok()) status = merge_rows(parts.bucketing, from.bucketing_rows());
  if (status.ok()) parts.oracle_calls += from.oracle_calls();
  into = StructuredF0::FromParts(std::move(parts));
  return status;
}

Status Merge(SketchVariant& into, const SketchVariant& from) {
  if (into.structured() != from.structured()) {
    return Status::InvalidArgument(
        "cannot merge a raw F0 sketch with a structured sketch");
  }
  return into.structured() ? Merge(into.structured_sketch(),
                                   from.structured_sketch())
                           : Merge(into.raw(), from.raw());
}

Result<SketchStreamMergeStats> MergeSketchStreams(
    const std::vector<LabeledSource>& inputs, std::ostream& out) {
  if (inputs.empty()) {
    return Status::InvalidArgument("sketch merge needs at least one input");
  }
  // Attributes an input's failure to its name — the single-pass contract:
  // whatever goes wrong with shard i (corrupt frame, mismatched
  // parameters, incompatible row) surfaces with inputs[i].name up front,
  // so no caller needs a separate pre-open validation sweep.
  auto attributed = [&](size_t i, const Status& status) {
    return status.WithPrefix(std::string(inputs[i].name));
  };
  // The union starts as input 0 and keeps its hashes: each Merge() below
  // proves the next input's hashes equal before folding its row contents
  // in. So the merged frame is exactly Encode of the union, which elides
  // hash state when input 0's is attested or proven canonical — a later
  // input's representation of its (equal) hashes never reaches the output.
  auto first = SketchVariant::Decode(inputs.front().bytes);
  if (!first.ok()) return attributed(0, first.status());
  SketchVariant merged = std::move(first).value();
  const bool structured = merged.structured();
  for (size_t i = 1; i < inputs.size(); ++i) {
    // One decoded input at a time is alive beside the union.
    auto next = SketchVariant::Decode(inputs[i].bytes);
    if (!next.ok()) return attributed(i, next.status());
    const SketchVariant& from = next.value();
    if (from.structured() != structured) {
      if (inputs[i].name.empty()) return Incompatible("F0 sketches");
      return Status::InvalidArgument(
          std::string(inputs[i].name) + " holds a " +
          (from.structured() ? "structured" : "raw") + " sketch but " +
          std::string(inputs.front().name) + " holds a " +
          (structured ? "structured" : "raw") +
          " one (sketch kinds do not merge with each other)");
    }
    const bool same_params =
        structured ? from.structured_sketch().params() ==
                         merged.structured_sketch().params()
                   : from.raw().params() == merged.raw().params();
    if (!same_params) {
      if (inputs[i].name.empty()) return Incompatible("F0 sketches");
      return Status::InvalidArgument(
          std::string(inputs[i].name) + ": parameters differ from " +
          std::string(inputs.front().name) +
          " (sketches merge only when built from the same parameters and "
          "seed)");
    }
    Status status = Merge(merged, from);
    if (!status.ok()) return attributed(i, status);
  }
  const std::string frame = merged.Encode();
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  // The destination stream failing is an environment problem (disk full,
  // pipe closed), not a codec bug: kUnavailable, so the server can map it
  // to the matching protocol error frame.
  if (!out) return Status::Unavailable("sketch merge: stream write failed");
  return SketchStreamMergeStats{};
}

Result<SketchStreamMergeStats> MergeSketchStreams(
    const std::vector<std::string_view>& inputs, uint16_t out_version,
    std::ostream& out) {
  MCF0_CHECK(out_version == SketchCodec::kFormatV2);
  std::vector<LabeledSource> labeled;
  labeled.reserve(inputs.size());
  for (const std::string_view bytes : inputs) {
    labeled.push_back(LabeledSource{std::string_view(), bytes});
  }
  return MergeSketchStreams(labeled, out);
}

void BucketingCoordinator::AddTuple(uint64_t fingerprint, int trailing_zeros) {
  auto [it, inserted] = tuples_.emplace(fingerprint, trailing_zeros);
  if (!inserted) it->second = std::max(it->second, trailing_zeros);
}

BucketingCoordinator::LeveledCount BucketingCoordinator::Resolve(
    uint64_t thresh, int start_level, int max_level) const {
  auto count_at = [&](int level) {
    uint64_t c = 0;
    for (const auto& [fp, tz] : tuples_) {
      if (tz >= level) ++c;
    }
    return c;
  };
  LeveledCount result{count_at(start_level), start_level};
  while (result.count >= thresh && result.level < max_level) {
    ++result.level;
    result.count = count_at(result.level);
  }
  return result;
}

}  // namespace mcf0
