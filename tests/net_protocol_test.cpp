// Tests for the serve protocol codec (src/net/protocol.hpp): per-frame
// round trips, the StructuredItem wire codec with its server-side
// validation, Status <-> error-frame mapping, the incremental
// FrameBuffer, and the robustness sweeps the sketch codecs also get —
// truncation at every prefix and a byte-flip fuzz over whole frames.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/wire.hpp"
#include "net/protocol.hpp"

namespace mcf0 {
namespace net {
namespace {

F0Params SmallRawParams() {
  F0Params params;
  params.n = 24;
  params.eps = 0.9;
  params.delta = 0.3;
  params.seed = 42;
  return params;
}

StructuredF0Params SmallStructuredParams() {
  StructuredF0Params params;
  params.n = 8;
  params.eps = 0.9;
  params.delta = 0.3;
  params.seed = 7;
  return params;
}

std::vector<StructuredItem> SampleStructuredItems() {
  std::vector<StructuredItem> items;
  // A two-term DNF group.
  std::vector<Term> terms;
  terms.push_back(*Term::Make({Lit(0, false), Lit(3, true)}));
  terms.push_back(*Term::Make({Lit(5, false)}));
  items.emplace_back(std::move(terms));
  // A 2x4-bit range with a stepped dimension.
  MultiDimRange range(2, 4);
  range.SetDim(0, DimRange{1, 9, 0});
  range.SetDim(1, DimRange{0, 14, 1});
  items.emplace_back(std::move(range));
  // An affine space of rank 3 over n=8.
  Gf2Matrix a(3, 8);
  a.Set(0, 0, true);
  a.Set(1, 4, true);
  a.Set(2, 7, true);
  BitVec b(3);
  b.Set(1, true);
  items.emplace_back(AffineSpaceItem{std::move(a), std::move(b)});
  // A singleton element.
  BitVec x(8);
  x.Set(0, true);
  x.Set(6, true);
  items.emplace_back(std::move(x));
  return items;
}

// ---- frame round trips ----------------------------------------------------

TEST(NetProtocol, HelloRoundTrip) {
  HelloFrame hello;
  hello.kind = StreamKind::kStructured;
  hello.max_sketch_format = 2;
  HelloFrame out;
  ASSERT_TRUE(DecodeHello(EncodeHello(hello), &out).ok());
  EXPECT_EQ(out.kind, StreamKind::kStructured);
  EXPECT_EQ(out.max_sketch_format, 2);
}

TEST(NetProtocol, WelcomeRoundTripRaw) {
  WelcomeFrame welcome;
  welcome.kind = StreamKind::kRaw;
  welcome.params = SmallRawParams();
  welcome.initial_credits = 8;
  welcome.max_batch_items = 4096;
  WelcomeFrame out;
  ASSERT_TRUE(DecodeWelcome(EncodeWelcome(welcome), &out).ok());
  EXPECT_EQ(out.kind, StreamKind::kRaw);
  EXPECT_EQ(std::get<F0Params>(out.params), SmallRawParams());
  EXPECT_EQ(out.initial_credits, 8u);
  EXPECT_EQ(out.max_batch_items, 4096u);
}

TEST(NetProtocol, WelcomeRoundTripStructured) {
  WelcomeFrame welcome;
  welcome.kind = StreamKind::kStructured;
  welcome.params = SmallStructuredParams();
  welcome.initial_credits = 2;
  welcome.max_batch_items = 16;
  WelcomeFrame out;
  ASSERT_TRUE(DecodeWelcome(EncodeWelcome(welcome), &out).ok());
  EXPECT_EQ(out.kind, StreamKind::kStructured);
  EXPECT_EQ(std::get<StructuredF0Params>(out.params),
            SmallStructuredParams());
}

TEST(NetProtocol, RawBatchRoundTrip) {
  RawBatchFrame batch;
  batch.seq = 3;
  batch.items = {1, 2, ~0ull, 0, 42};
  RawBatchFrame out;
  ASSERT_TRUE(DecodeRawBatch(EncodeRawBatch(batch), 4096, &out).ok());
  EXPECT_EQ(out.seq, 3u);
  EXPECT_EQ(out.items, batch.items);
}

TEST(NetProtocol, RawBatchRejectsOversizeAndEmpty) {
  RawBatchFrame batch;
  batch.seq = 1;
  batch.items = {1, 2, 3};
  RawBatchFrame out;
  // Over the negotiated limit.
  const Status oversize = DecodeRawBatch(EncodeRawBatch(batch), 2, &out);
  EXPECT_EQ(oversize.code(), StatusCode::kParseError);
  // Empty batches carry no information and are rejected outright.
  batch.items.clear();
  EXPECT_FALSE(DecodeRawBatch(EncodeRawBatch(batch), 4096, &out).ok());
  // Seq 0 is reserved (acks are cumulative from 1).
  batch.seq = 0;
  batch.items = {1};
  EXPECT_FALSE(DecodeRawBatch(EncodeRawBatch(batch), 4096, &out).ok());
}

TEST(NetProtocol, StructuredBatchRoundTrip) {
  StructuredBatchFrame batch;
  batch.seq = 9;
  batch.items = SampleStructuredItems();
  StructuredBatchFrame out;
  ASSERT_TRUE(
      DecodeStructuredBatch(EncodeStructuredBatch(batch), 8, 16, &out).ok());
  EXPECT_EQ(out.seq, 9u);
  ASSERT_EQ(out.items.size(), batch.items.size());
  // Re-encoding the decoded items reproduces the bytes: the codec is
  // canonical, so round-tripped items are semantically identical.
  StructuredBatchFrame again;
  again.seq = 9;
  again.items = std::move(out.items);
  EXPECT_EQ(EncodeStructuredBatch(again), EncodeStructuredBatch(batch));
}

TEST(NetProtocol, AckCreditEstimateRoundTrip) {
  AckFrame ack_out;
  ASSERT_TRUE(DecodeAck(EncodeAck(AckFrame{7, 3}), &ack_out).ok());
  EXPECT_EQ(ack_out.seq, 7u);
  EXPECT_EQ(ack_out.credits, 3u);

  CreditFrame credit_out;
  ASSERT_TRUE(DecodeCredit(EncodeCredit(CreditFrame{5}), &credit_out).ok());
  EXPECT_EQ(credit_out.credits, 5u);
  // Zero-credit grants are protocol noise and rejected.
  EXPECT_FALSE(DecodeCredit(EncodeCredit(CreditFrame{0}), &credit_out).ok());

  EstimateFrame est_out;
  ASSERT_TRUE(
      DecodeEstimate(EncodeEstimate(EstimateFrame{1234.5, 99}), &est_out)
          .ok());
  EXPECT_DOUBLE_EQ(est_out.estimate, 1234.5);
  EXPECT_EQ(est_out.items_ingested, 99u);
}

TEST(NetProtocol, ErrorFrameIsStatusIdentity) {
  const Status status =
      Status::ResourceExhausted("flow control violated").Annotate("seq 12");
  ErrorFrame out;
  ASSERT_TRUE(DecodeError(EncodeError(ErrorFromStatus(status)), &out).ok());
  const Status round = StatusFromError(out);
  EXPECT_EQ(round.code(), status.code());
  EXPECT_EQ(round.message(), status.message());
}

TEST(NetProtocol, ErrorFrameRejectsUnknownAndOkCodes) {
  // Code 0 (kOk) must never ride an error frame; out-of-range codes are
  // a protocol violation, not a silent kInternal.
  wire::ByteWriter ok_code;
  ok_code.U16(0);
  ok_code.Varint(0);
  ErrorFrame out;
  EXPECT_FALSE(DecodeError(ok_code.Take(), &out).ok());
  wire::ByteWriter bad_code;
  bad_code.U16(999);
  bad_code.Varint(0);
  EXPECT_FALSE(DecodeError(bad_code.Take(), &out).ok());
}

// ---- stats frames (protocol revision 2) -----------------------------------

StatsReportFrame SampleStatsReport() {
  StatsReportFrame report;
  report.entries.push_back({"mcf0_serve_batches_total", 12});
  report.entries.push_back({"mcf0_serve_bytes_in_total", 34567});
  report.entries.push_back({"mcf0_serve_frames_in_total{type=\"batch\"}", 12});
  report.entries.push_back({"mcf0_serve_items_total", 48000});
  return report;
}

TEST(NetProtocol, StatsReportRoundTrip) {
  const StatsReportFrame report = SampleStatsReport();
  StatsReportFrame out;
  ASSERT_TRUE(DecodeStatsReport(EncodeStatsReport(report), &out).ok());
  ASSERT_EQ(out.entries.size(), report.entries.size());
  for (size_t i = 0; i < out.entries.size(); ++i) {
    EXPECT_EQ(out.entries[i].name, report.entries[i].name);
    EXPECT_EQ(out.entries[i].value, report.entries[i].value);
  }
  EXPECT_EQ(out.Find("mcf0_serve_items_total"), 48000u);
  EXPECT_EQ(out.Find("no_such_metric"), std::nullopt);
}

TEST(NetProtocol, StatsReportEmptyIsValid) {
  StatsReportFrame out;
  ASSERT_TRUE(DecodeStatsReport(EncodeStatsReport(StatsReportFrame{}), &out)
                  .ok());
  EXPECT_TRUE(out.entries.empty());
}

TEST(NetProtocol, StatsReportRejectsUnsortedAndDuplicateNames) {
  StatsReportFrame unsorted;
  unsorted.entries.push_back({"b_total", 1});
  unsorted.entries.push_back({"a_total", 2});
  StatsReportFrame out;
  const Status status =
      DecodeStatsReport(EncodeStatsReport(unsorted), &out);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("sorted"), std::string::npos);

  StatsReportFrame duplicate;
  duplicate.entries.push_back({"a_total", 1});
  duplicate.entries.push_back({"a_total", 2});
  EXPECT_FALSE(DecodeStatsReport(EncodeStatsReport(duplicate), &out).ok());
}

TEST(NetProtocol, StatsReportRejectsBadNames) {
  StatsReportFrame out;
  // Spaces and control bytes are not registry-key characters.
  StatsReportFrame spaced;
  spaced.entries.push_back({"a total", 1});
  EXPECT_FALSE(DecodeStatsReport(EncodeStatsReport(spaced), &out).ok());
  // An empty name cannot exist in the registry.
  StatsReportFrame empty_name;
  empty_name.entries.push_back({"", 1});
  EXPECT_FALSE(DecodeStatsReport(EncodeStatsReport(empty_name), &out).ok());
  // Oversized names are rejected before any allocation.
  StatsReportFrame huge_name;
  huge_name.entries.push_back({std::string(513, 'a'), 1});
  EXPECT_FALSE(DecodeStatsReport(EncodeStatsReport(huge_name), &out).ok());
}

TEST(NetProtocol, StatsReportRejectsEntryCountBeyondCapOrPayload) {
  StatsReportFrame out;
  // Claimed count over the hard cap.
  wire::ByteWriter over_cap;
  over_cap.Varint(4097);
  EXPECT_FALSE(DecodeStatsReport(over_cap.Take(), &out).ok());
  // Claimed count with no entry bytes behind it.
  wire::ByteWriter lying;
  lying.Varint(100);
  EXPECT_FALSE(DecodeStatsReport(lying.Take(), &out).ok());
}

TEST(NetFrameBuffer, StatsFramesAreStampedWithRevisionTwo) {
  // WrapMessage stamps each kind with the revision that introduced it:
  // the stats pair rides at 2, everything older stays at 1 so a
  // revision-1 peer keeps interoperating on the revision-1 subset.
  FrameBuffer buffer;
  buffer.Append(WrapMessage(FrameType::kStatsQuery, ""));
  Message message;
  Status status;
  ASSERT_TRUE(buffer.Next(&message, &status));
  EXPECT_EQ(message.type, FrameType::kStatsQuery);

  wire::FrameHeader header;
  const std::string stats = WrapMessage(FrameType::kStatsQuery, "");
  ASSERT_TRUE(wire::ParseFrameHeader(stats, &header).ok());
  EXPECT_EQ(header.version, kStatsMinVersion);
  const std::string goodbye = WrapMessage(FrameType::kGoodbye, "");
  ASSERT_TRUE(wire::ParseFrameHeader(goodbye, &header).ok());
  EXPECT_EQ(header.version, 1);
}

TEST(NetFrameBuffer, RejectsStatsKindSmuggledUnderVersionOne) {
  // A v2-only kind claiming a v1 header is a protocol violation, not a
  // frame a v1 peer could legitimately have produced.
  FrameBuffer buffer;
  buffer.Append(wire::WrapFrameRaw(
      static_cast<uint8_t>(FrameType::kStatsReport), 1, ""));
  Message message;
  Status status;
  EXPECT_FALSE(buffer.Next(&message, &status));
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("not defined at its claimed version"),
            std::string::npos);
}

// ---- structured item validation -------------------------------------------

TEST(NetProtocol, StructuredItemRejectsVariableOutsideUniverse) {
  wire::ByteWriter w;
  w.U8(0);     // terms
  w.Varint(1); // one term
  w.Varint(1); // one literal
  w.Varint(8); // var 8 in an n=8 universe: out of range
  w.U8(0);
  const std::string bytes = w.Take();
  wire::ByteReader r(bytes);
  StructuredItem item;
  const Status status = DecodeStructuredItem(r, 8, &item);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("outside the universe"), std::string::npos);
}

TEST(NetProtocol, StructuredItemRejectsTermCountBeyondPayload) {
  // Each term costs at least one payload byte, so a tiny item claiming a
  // huge term count is a lie that must be rejected before the decoder
  // reserves `count` Terms — otherwise a 16 MiB frame could force
  // hundreds of MB of transient allocation.
  wire::ByteWriter w;
  w.U8(0);            // DNF term group
  w.Varint(500'000);  // claimed terms; no term bytes follow
  const std::string bytes = w.Take();
  wire::ByteReader r(bytes);
  StructuredItem item;
  const Status status = DecodeStructuredItem(r, 8, &item);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("larger than its payload"),
            std::string::npos);
}

TEST(NetProtocol, StructuredItemRejectsContradictoryTerm) {
  wire::ByteWriter w;
  w.U8(0);
  w.Varint(1);
  w.Varint(2);
  w.Varint(3);
  w.U8(0);  // x3
  w.Varint(3);
  w.U8(1);  // !x3
  const std::string bytes = w.Take();
  wire::ByteReader r(bytes);
  StructuredItem item;
  EXPECT_FALSE(DecodeStructuredItem(r, 8, &item).ok());
}

TEST(NetProtocol, StructuredItemRejectsRangeWidthMismatch) {
  // A 2x3-bit range claims 6 universe bits; decoding against n=8 fails.
  MultiDimRange range(2, 3);
  range.SetDim(0, DimRange{0, 7, 0});
  range.SetDim(1, DimRange{1, 2, 0});
  wire::ByteWriter w;
  EncodeStructuredItem(w, StructuredItem(std::move(range)));
  const std::string bytes = w.Take();
  wire::ByteReader r(bytes);
  StructuredItem item;
  const Status status = DecodeStructuredItem(r, 8, &item);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("width mismatch"), std::string::npos);
}

TEST(NetProtocol, StructuredItemRejectsRangeBoundsOutOfDomain) {
  wire::ByteWriter w;
  w.U8(1);
  w.Varint(1);  // one dim
  w.Varint(8);  // 8 bits
  w.Varint(5);  // lo
  w.Varint(300);  // hi > 255
  w.Varint(0);
  const std::string bytes = w.Take();
  wire::ByteReader r(bytes);
  StructuredItem item;
  EXPECT_FALSE(DecodeStructuredItem(r, 8, &item).ok());
}

TEST(NetProtocol, StructuredItemRejectsRangeDimensionsWiderThan62Bits) {
  // One dimension filling the whole universe, at n = 63 and n = 64: the
  // width check refuses it before the range reaches MultiDimRange.
  for (const int n : {63, 64}) {
    wire::ByteWriter w;
    w.U8(1);      // range
    w.Varint(1);  // one dim
    w.Varint(static_cast<uint64_t>(n));
    w.Varint(0);  // lo
    w.Varint(5);  // hi
    w.Varint(0);  // step
    const std::string bytes = w.Take();
    wire::ByteReader r(bytes);
    StructuredItem item;
    const Status status = DecodeStructuredItem(r, n, &item);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << "n " << n;
  }
}

TEST(NetProtocol, StructuredItemRejectsRangesThatExpandPastTheLiteralCap) {
  // Three 62-bit dimensions, each [1, 2^62 - 2], expand to 122^3 Lemma 4
  // terms of 186 bits — far past kMaxRangeExpansionLiterals — so the
  // decoder refuses the item before an engine worker materializes it.
  // Two such dimensions (14,884 terms) stay within the cap.
  for (const int dims : {2, 3}) {
    wire::ByteWriter w;
    w.U8(1);  // range
    w.Varint(static_cast<uint64_t>(dims));
    for (int j = 0; j < dims; ++j) {
      w.Varint(62);
      w.Varint(1);                       // lo
      w.Varint((uint64_t{1} << 62) - 2);  // hi
      w.Varint(0);                       // step
    }
    const std::string bytes = w.Take();
    wire::ByteReader r(bytes);
    StructuredItem item;
    const Status status = DecodeStructuredItem(r, 62 * dims, &item);
    if (dims == 2) {
      EXPECT_TRUE(status.ok()) << status.ToString();
    } else {
      EXPECT_EQ(status.code(), StatusCode::kParseError);
      EXPECT_NE(status.message().find("too many terms"), std::string::npos);
    }
  }
}

TEST(NetProtocol, StructuredItemRejectsAffineRankOutsideUniverse) {
  // rank must stay in [1, n]: rank 0 constrains nothing and rank > n
  // would make StructuredF0's AddAffine abort.
  for (const uint64_t rank : {0ull, 9ull}) {
    wire::ByteWriter w;
    w.U8(2);  // affine
    w.Varint(rank);
    const std::string bytes = w.Take();
    wire::ByteReader r(bytes);
    StructuredItem item;
    EXPECT_FALSE(DecodeStructuredItem(r, 8, &item).ok()) << "rank " << rank;
  }
}

TEST(NetProtocol, StructuredItemWidthMismatchSurfacesAtBatchLevel) {
  // An element encoded for a 16-bit universe is wider than an n=8
  // decoder reads; the leftover bytes fail the batch's exact-consumption
  // rule instead of reaching the engine as a silently misparsed item.
  StructuredBatchFrame batch;
  batch.seq = 1;
  batch.items.emplace_back(BitVec(16));
  StructuredBatchFrame out;
  const Status status =
      DecodeStructuredBatch(EncodeStructuredBatch(batch), 8, 16, &out);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

TEST(NetProtocol, StructuredItemRejectsUnknownTag) {
  wire::ByteWriter w;
  w.U8(9);
  const std::string bytes = w.Take();
  wire::ByteReader r(bytes);
  StructuredItem item;
  const Status status = DecodeStructuredItem(r, 8, &item);
  EXPECT_NE(status.message().find("tag unknown"), std::string::npos);
}

// ---- framing: FrameBuffer -------------------------------------------------

TEST(NetFrameBuffer, ExtractsFramesFedByteByByte) {
  const std::string one = WrapMessage(FrameType::kAck, EncodeAck({1, 2}));
  const std::string two = WrapMessage(FrameType::kGoodbye, "");
  const std::string stream = one + two;
  FrameBuffer buffer;
  std::vector<Message> got;
  for (const char c : stream) {
    buffer.Append(std::string_view(&c, 1));
    Message message;
    Status status;
    while (buffer.Next(&message, &status)) got.push_back(message);
    ASSERT_TRUE(status.ok());
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, FrameType::kAck);
  EXPECT_EQ(got[1].type, FrameType::kGoodbye);
  EXPECT_TRUE(got[1].payload.empty());
  EXPECT_EQ(buffer.buffered(), 0u);
}

TEST(NetFrameBuffer, BadMagicIsStickyError) {
  FrameBuffer buffer;
  buffer.Append("XXXXXXXXXXXXXXXXXXXXXXXXXXXX");
  Message message;
  Status status;
  EXPECT_FALSE(buffer.Next(&message, &status));
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  // Even after appending a perfectly valid frame, the stream stays dead:
  // there is no resynchronization point past a corrupt header.
  buffer.Append(WrapMessage(FrameType::kGoodbye, ""));
  EXPECT_FALSE(buffer.Next(&message, &status));
  EXPECT_FALSE(status.ok());
}

TEST(NetFrameBuffer, RejectsWrongVersionUnknownKindAndOversize) {
  {
    FrameBuffer buffer;
    buffer.Append(wire::WrapFrameRaw(
        static_cast<uint8_t>(FrameType::kGoodbye), kProtocolVersion + 1, ""));
    Message message;
    Status status;
    EXPECT_FALSE(buffer.Next(&message, &status));
    EXPECT_EQ(status.code(), StatusCode::kNotSupported);
  }
  {
    FrameBuffer buffer;
    buffer.Append(wire::WrapFrameRaw(0x03, kProtocolVersion, ""));  // sketch kind
    Message message;
    Status status;
    EXPECT_FALSE(buffer.Next(&message, &status));
    EXPECT_EQ(status.code(), StatusCode::kParseError);
  }
  {
    // A header claiming a payload beyond the cap must fail before any
    // allocation, with only the 24 header bytes present.
    wire::ByteWriter w;
    w.U8('M');
    w.U8('C');
    w.U8('F');
    w.U8('0');
    w.U16(kProtocolVersion);
    w.U8(static_cast<uint8_t>(FrameType::kBatch));
    w.U8(0);
    w.U64(kMaxFramePayload + 1);
    w.U64(0);
    FrameBuffer buffer;
    buffer.Append(w.Take());
    Message message;
    Status status;
    EXPECT_FALSE(buffer.Next(&message, &status));
    EXPECT_EQ(status.code(), StatusCode::kParseError);
  }
}

TEST(NetFrameBuffer, ChecksumMismatchIsCaught) {
  std::string frame = WrapMessage(FrameType::kAck, EncodeAck({1, 0}));
  frame.back() ^= 0x40;  // corrupt the payload, not the header
  FrameBuffer buffer;
  buffer.Append(frame);
  Message message;
  Status status;
  EXPECT_FALSE(buffer.Next(&message, &status));
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
}

// ---- robustness sweeps ----------------------------------------------------

/// Every payload codec must reject every proper prefix of a valid
/// encoding with a Status — never crash, hang, or accept.
template <typename Decode>
void ExpectAllPrefixesRejected(const std::string& payload, Decode decode) {
  for (size_t len = 0; len < payload.size(); ++len) {
    const Status status = decode(payload.substr(0, len));
    EXPECT_FALSE(status.ok()) << "prefix of length " << len << " accepted";
  }
}

TEST(NetProtocolRobustness, TruncationAtEveryPrefixIsRejected) {
  HelloFrame hello;
  hello.kind = StreamKind::kRaw;
  ExpectAllPrefixesRejected(EncodeHello(hello), [](std::string_view bytes) {
    HelloFrame out;
    return DecodeHello(bytes, &out);
  });

  WelcomeFrame welcome;
  welcome.kind = StreamKind::kStructured;
  welcome.params = SmallStructuredParams();
  welcome.initial_credits = 4;
  welcome.max_batch_items = 16;
  ExpectAllPrefixesRejected(EncodeWelcome(welcome),
                            [](std::string_view bytes) {
                              WelcomeFrame out;
                              return DecodeWelcome(bytes, &out);
                            });

  RawBatchFrame raw;
  raw.seq = 1;
  raw.items = {10, 20, 30};
  ExpectAllPrefixesRejected(EncodeRawBatch(raw), [](std::string_view bytes) {
    RawBatchFrame out;
    return DecodeRawBatch(bytes, 4096, &out);
  });

  StructuredBatchFrame structured;
  structured.seq = 1;
  structured.items = SampleStructuredItems();
  ExpectAllPrefixesRejected(EncodeStructuredBatch(structured),
                            [](std::string_view bytes) {
                              StructuredBatchFrame out;
                              return DecodeStructuredBatch(bytes, 8, 16, &out);
                            });

  ExpectAllPrefixesRejected(EncodeAck(AckFrame{5, 1}),
                            [](std::string_view bytes) {
                              AckFrame out;
                              return DecodeAck(bytes, &out);
                            });
  ExpectAllPrefixesRejected(EncodeError(ErrorFromStatus(
                                Status::Unavailable("stream write failed"))),
                            [](std::string_view bytes) {
                              ErrorFrame out;
                              return DecodeError(bytes, &out);
                            });

  ExpectAllPrefixesRejected(EncodeStatsReport(SampleStatsReport()),
                            [](std::string_view bytes) {
                              StatsReportFrame out;
                              return DecodeStatsReport(bytes, &out);
                            });
}

TEST(NetProtocolRobustness, WholeFrameByteFlipNeverCrashes) {
  // Flip one byte at every position of a wrapped structured batch — the
  // hardest frame to decode — and feed the result through the full
  // FrameBuffer pipeline. Permitted outcomes, by what framing can
  // actually detect: an error Status (magic/version/reserved/checksum
  // violations and every payload flip, which the FNV checksum catches);
  // a stalled stream (a flipped length field just looks like an
  // incomplete frame); or — for the kind byte only, which the payload
  // checksum does not cover — a frame of a *different* type whose
  // payload is byte-identical, where the mismatched payload codec takes
  // over. A flip must never yield the original batch, and never crash.
  StructuredBatchFrame batch;
  batch.seq = 2;
  batch.items = SampleStructuredItems();
  const std::string original_payload = EncodeStructuredBatch(batch);
  const std::string frame = WrapMessage(FrameType::kBatch, original_payload);
  constexpr size_t kKindByte = 6;
  constexpr size_t kLengthField = 8;  // bytes [8, 16): payload size
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string mutated = frame;
    mutated[i] ^= 0x01;
    FrameBuffer buffer;
    buffer.Append(mutated);
    Message message;
    Status status;
    if (!buffer.Next(&message, &status)) {
      if (status.ok()) {
        // Stalled waiting for bytes: only a length-field flip can do so.
        EXPECT_TRUE(i >= kLengthField && i < kLengthField + 8)
            << "flip at " << i << " silently vanished";
      }
      continue;
    }
    EXPECT_EQ(i, kKindByte) << "flip at " << i << " survived framing";
    EXPECT_NE(message.type, FrameType::kBatch);
    EXPECT_EQ(message.payload, original_payload);
  }
  // Control: the unmutated frame decodes to the original items.
  FrameBuffer buffer;
  buffer.Append(frame);
  Message message;
  Status status;
  ASSERT_TRUE(buffer.Next(&message, &status));
  StructuredBatchFrame out;
  ASSERT_TRUE(DecodeStructuredBatch(message.payload, 8, 16, &out).ok());
  EXPECT_EQ(EncodeStructuredBatch(out), original_payload);
}

}  // namespace
}  // namespace net
}  // namespace mcf0
