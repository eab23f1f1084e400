#include "engine/sketch_merge.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <unordered_set>
#include <type_traits>
#include <utility>
#include <variant>

#include "engine/sketch_codec.hpp"
#include "engine/sketch_reader.hpp"
#include "engine/wire.hpp"

namespace mcf0 {
namespace {

Status Incompatible(const char* what) {
  return Status::InvalidArgument(
      std::string(what) +
      ": sketches are only mergeable when built from the same parameters "
      "and seed (identical hash state)");
}

/// Unions `from` into `acc` when both hold the same row alternative.
Status MergeUnits(SketchReader::Unit& acc, const SketchReader::Unit& from) {
  return std::visit(
      [&](auto& into) -> Status {
        using Row = std::decay_t<decltype(into)>;
        const Row* other = std::get_if<Row>(&from);
        if (other == nullptr) {
          return Status::InvalidArgument("sketch merge: row kind mismatch");
        }
        return Merge(into, *other);
      },
      acc);
}

/// Serializes one merged row in whole-sketch-frame context.
void EncodeUnit(wire::ByteWriter& w, const SketchReader::Unit& unit,
                bool embed_hash) {
  std::visit(
      [&](const auto& row) {
        using Row = std::decay_t<decltype(row)>;
        if constexpr (std::is_same_v<Row, BucketingSketchRow>) {
          wire::EncodeBucketingPayload(w, row, embed_hash);
        } else if constexpr (std::is_same_v<Row, MinimumSketchRow>) {
          wire::EncodeMinimumPayload(w, row, embed_hash);
        } else if constexpr (std::is_same_v<Row, EstimationSketchRow>) {
          wire::EncodeEstimationPayload(w, row, embed_hash);
        } else if constexpr (std::is_same_v<Row, StructuredBucketRow>) {
          wire::EncodeStructuredBucketPayload(w, row, embed_hash);
        } else {
          wire::EncodeFmPayload(w, row, embed_hash);
        }
      },
      unit);
}

/// RAII wrapper whose constructor/destructor track how many decoded rows
/// are alive at once — max_resident_units is a *measurement* of these
/// objects' real lifetimes, so a regression that starts buffering rows
/// (e.g. collecting ResidentUnits in a container) shows up in the stat
/// and fails the reducer-memory test.
class ResidentUnit {
 public:
  ResidentUnit(SketchReader::Unit&& unit, int* live, int* peak)
      : unit_(std::move(unit)), live_(live) {
    ++*live_;
    *peak = std::max(*peak, *live_);
  }
  ~ResidentUnit() { --*live_; }
  ResidentUnit(const ResidentUnit&) = delete;
  ResidentUnit& operator=(const ResidentUnit&) = delete;

  SketchReader::Unit& unit() { return unit_; }
  const SketchReader::Unit& unit() const { return unit_; }

 private:
  SketchReader::Unit unit_;
  int* live_;
};

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
  std::vector<SketchReader> readers;
  readers.reserve(inputs.size());
  // Elide hash state only when *every* input frame attested canonical
  // hashes — then each decoded hash (matrices, offsets, and
  // representation-bit counts alike) came from the canonical sampler, so
  // the merged frame round-trips exactly. A partial attestation would
  // almost work (Merge() proves matrix/offset equality row by row), but
  // AffineHash::operator== ignores representation bits, so an embedded
  // input could smuggle nonstandard repr counts into an elided output.
  // With any embedded input, stay conservative and embed.
  bool elide = true;
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto opened = SketchReader::Open(inputs[i].bytes);
    if (!opened.ok()) return attributed(i, opened.status());
    readers.push_back(std::move(opened).value());
    elide = elide && readers.back().hashes_elided();
  }
  const bool structured = readers.front().structured();
  for (size_t i = 1; i < readers.size(); ++i) {
    if (readers[i].structured() != structured) {
      if (inputs[i].name.empty()) return Incompatible("F0 sketches");
      return Status::InvalidArgument(
          std::string(inputs[i].name) + " holds a " +
          (readers[i].structured() ? "structured" : "raw") + " sketch but " +
          std::string(inputs.front().name) + " holds a " +
          (structured ? "structured" : "raw") +
          " one (sketch kinds do not merge with each other)");
    }
    const bool same_params =
        structured ? readers[i].structured_params() ==
                         readers.front().structured_params()
                   : readers[i].params() == readers.front().params();
    if (!same_params) {
      if (inputs[i].name.empty()) return Incompatible("F0 sketches");
      return Status::InvalidArgument(
          std::string(inputs[i].name) + ": parameters differ from " +
          std::string(inputs.front().name) +
          " (sketches merge only when built from the same parameters and "
          "seed)");
    }
  }
  const bool estimation =
      !structured &&
      readers.front().params().algorithm == F0Algorithm::kEstimation;

  const int rows = structured
                       ? StructuredF0Rows(readers.front().structured_params())
                       : F0Rows(readers.front().params());
  wire::ByteWriter payload;
  if (structured) {
    wire::EncodeStructuredParams(payload, readers.front().structured_params());
  } else {
    wire::EncodeParams(payload, readers.front().params());
  }
  payload.U8(elide ? 1 : 0);
  if (estimation) {
    const Gf2Field* field = readers.front().field();
    payload.Varint(static_cast<uint64_t>(field->degree()));
    payload.U64(field->modulus_low());
  }
  payload.Varint(static_cast<uint64_t>(rows));

  SketchStreamMergeStats stats;
  int live_units = 0;
  const int num_units = readers.front().num_units();
  for (int k = 0; k < num_units; ++k) {
    // The FM block's own row count sits between the two row sequences.
    if (estimation && k == rows) payload.Varint(static_cast<uint64_t>(rows));
    auto first = readers.front().Next();
    if (!first.ok()) return attributed(0, first.status());
    ResidentUnit acc(std::move(first).value(), &live_units,
                     &stats.max_resident_units);
    for (size_t j = 1; j < readers.size(); ++j) {
      auto next = readers[j].Next();
      if (!next.ok()) return attributed(j, next.status());
      // `from` lives only for this fold: the accumulator plus one
      // in-flight row is the whole decoded footprint.
      const ResidentUnit from(std::move(next).value(), &live_units,
                              &stats.max_resident_units);
      Status status = MergeUnits(acc.unit(), from.unit());
      if (!status.ok()) return attributed(j, status);
    }
    EncodeUnit(payload, acc.unit(), /*embed_hash=*/!elide);
    ++stats.units;
  }
  const std::string frame = wire::WrapFrame(
      structured ? SketchFrameKind::kStructuredF0
                 : SketchFrameKind::kF0Estimator,
      SketchCodec::kFormatV2, payload.Take());
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  // The destination stream failing is an environment problem (disk full,
  // pipe closed), not a codec bug: kUnavailable, so the server can map it
  // to the matching protocol error frame.
  if (!out) return Status::Unavailable("sketch merge: stream write failed");
  return stats;
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
