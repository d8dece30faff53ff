// Tests for the framed wire codec (runtime/serialize.hpp): varint/zigzag
// primitives, frame round-trips under both codecs for every record shape
// the algorithms send, the decoder's trailing-byte check, and — the
// property the fault layer leans on — that every single-bit flip and every
// truncation of a frame is detected by the header/checksum validation
// rather than decoded into garbage.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "matching/match_process.hpp"
#include "matching/parallel_verify.hpp"
#include "runtime/fabric.hpp"
#include "runtime/serialize.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace pmc {
namespace {

constexpr WireCodec kBothCodecs[] = {WireCodec::kFixed, WireCodec::kCompact};

using test::IdRecord;

// ---- primitives -------------------------------------------------------------

TEST(Zigzag, RoundTripsExtremes) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::int64_t{INT64_MAX}, std::int64_t{INT64_MIN},
        std::int64_t{kNoVertex}}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  // Small magnitudes map to small codes (the property delta encoding needs).
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
}

TEST(VarintWriter, UvarintBoundaries) {
  // One byte up to 127, two up to 16383, ten for the full 64-bit range.
  const struct {
    std::uint64_t value;
    std::size_t bytes;
  } cases[] = {{0, 1},       {127, 1},        {128, 2},
               {16383, 2},   {16384, 3},      {UINT64_MAX, 10}};
  for (const auto& c : cases) {
    VarintWriter w;
    w.put_uvarint(c.value);
    EXPECT_EQ(w.size(), c.bytes) << c.value;
  }
}

TEST(WireCodecNames, ParseAndPrint) {
  EXPECT_EQ(parse_wire_codec("fixed"), WireCodec::kFixed);
  EXPECT_EQ(parse_wire_codec("compact"), WireCodec::kCompact);
  EXPECT_STREQ(to_string(WireCodec::kFixed), "fixed");
  EXPECT_STREQ(to_string(WireCodec::kCompact), "compact");
  EXPECT_THROW((void)parse_wire_codec("gzip"), Error);
}

// ---- frame round-trips ------------------------------------------------------

/// One synthetic record: mirrors the algorithm payloads (a type byte, an
/// absolute id, a chain-relative id, a color).
struct Record {
  std::uint8_t type = 0;
  VertexId a = 0;
  VertexId b = 0;
  Color c = 0;

  template <class IO>
  static void fields(IO& io, Record& r) {
    io.u8(r.type);
    io.id(r.a);
    io.id_rel(r.b);
    io.color(r.c);
  }
};

std::vector<Record> random_records(Rng& rng, int count) {
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Record r;
    r.type = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    // Mix clustered ids (the common case the delta chain exploits), far
    // jumps, and sentinels.
    switch (rng.uniform_int(0, 3)) {
      case 0: r.a = rng.uniform_int(0, 100); break;
      case 1: r.a = rng.uniform_int(1 << 20, (1 << 20) + 50); break;
      case 2: r.a = rng.uniform_int(0, INT32_MAX); break;
      default: r.a = kNoVertex; break;
    }
    r.b = rng.uniform_int(0, 2) == 0 ? kNoVertex
                                     : r.a + rng.uniform_int(-40, 40);
    r.c = rng.uniform_int(0, 4) == 0 ? kNoColor
                                     : static_cast<Color>(
                                           rng.uniform_int(0, 4000));
    records.push_back(r);
  }
  return records;
}

std::vector<std::byte> encode_records(const std::vector<Record>& records,
                                      WireCodec codec) {
  FrameWriter w(codec);
  for (const Record& r : records) w.append(r);
  return w.take();
}

void expect_decodes_back(const std::vector<std::byte>& frame,
                         const std::vector<Record>& records, WireCodec codec) {
  FrameReader reader(frame);
  ASSERT_TRUE(reader.valid()) << reader.error();
  EXPECT_EQ(reader.codec(), codec);
  ASSERT_EQ(reader.records(), static_cast<std::int64_t>(records.size()));
  std::vector<Record> decoded;
  // for_each_record throws unless the cursor ends exactly at the payload end.
  EXPECT_NO_THROW(for_each_record<Record>(
      frame, [&](const Record& r) { decoded.push_back(r); }));
  ASSERT_EQ(decoded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded[i].type, records[i].type);
    EXPECT_EQ(decoded[i].a, records[i].a);
    EXPECT_EQ(decoded[i].b, records[i].b);
    EXPECT_EQ(decoded[i].c, records[i].c);
  }
}

TEST(FrameCodec, RandomBatchesRoundTripUnderBothCodecs) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const auto records =
        random_records(rng, static_cast<int>(rng.uniform_int(1, 60)));
    for (const WireCodec codec : kBothCodecs) {
      const auto frame = encode_records(records, codec);
      expect_decodes_back(frame, records, codec);
    }
  }
}

TEST(FrameCodec, EncodingIsDeterministic) {
  Rng rng(7);
  const auto records = random_records(rng, 40);
  for (const WireCodec codec : kBothCodecs) {
    EXPECT_EQ(encode_records(records, codec), encode_records(records, codec));
  }
}

TEST(FrameCodec, EmptyWriterProducesNoBytes) {
  for (const WireCodec codec : kBothCodecs) {
    FrameWriter w(codec);
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.take(), std::vector<std::byte>{});
  }
}

TEST(FrameCodec, TakeResetsWriterAndDeltaChain) {
  FrameWriter w(WireCodec::kCompact);
  w.append(IdRecord{1 << 20});
  const auto first = w.take();
  EXPECT_TRUE(w.empty());
  // A fresh record after take() must encode against a reset chain, i.e.
  // produce the same bytes as a brand-new writer.
  w.append(IdRecord{1 << 20});
  EXPECT_EQ(w.take(), first);
}

TEST(FrameCodec, CompactBeatsFixedOnClusteredIds) {
  // A batch shaped like real boundary traffic: ascending, clustered ids.
  FrameWriter compact(WireCodec::kCompact);
  FrameWriter fixed(WireCodec::kFixed);
  for (VertexId v = 1000; v < 1400; v += 2) {
    for (FrameWriter* w : {&compact, &fixed}) {
      w->append(ColorRecord{v, static_cast<Color>(v % 7)});
    }
  }
  const auto cbytes = compact.take();
  const auto fbytes = fixed.take();
  EXPECT_LT(cbytes.size(), fbytes.size() / 2);
}

// ---- corruption and truncation detection ------------------------------------

TEST(FrameCodec, EverySingleBitFlipIsDetected) {
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    const auto records =
        random_records(rng, static_cast<int>(rng.uniform_int(1, 20)));
    for (const WireCodec codec : kBothCodecs) {
      const auto frame = encode_records(records, codec);
      for (std::size_t byte = 0; byte < frame.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
          auto garbled = frame;
          garbled[byte] ^= std::byte{1} << bit;
          const FrameReader reader(garbled);
          EXPECT_FALSE(reader.valid())
              << "flip of byte " << byte << " bit " << bit << " in a "
              << frame.size() << "-byte " << to_string(codec)
              << " frame went undetected";
        }
      }
    }
  }
}

TEST(FrameCodec, EveryTruncationIsDetected) {
  Rng rng(100);
  const auto records = random_records(rng, 25);
  for (const WireCodec codec : kBothCodecs) {
    const auto frame = encode_records(records, codec);
    for (std::size_t len = 1; len < frame.size(); ++len) {
      const std::vector<std::byte> cut(frame.begin(),
                                       frame.begin() + static_cast<long>(len));
      const FrameReader reader(cut);
      EXPECT_FALSE(reader.valid())
          << "truncation to " << len << " of " << frame.size()
          << " bytes went undetected (" << to_string(codec) << ")";
    }
  }
}

TEST(FrameCodec, CorruptOneBitIsDeterministicAndDetected) {
  Rng rng(101);
  const auto records = random_records(rng, 10);
  const auto frame = encode_records(records, WireCodec::kCompact);
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    auto a = frame;
    auto b = frame;
    corrupt_one_bit(a, seq);
    corrupt_one_bit(b, seq);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, frame);
    EXPECT_FALSE(FrameReader(a).valid());
  }
}

TEST(FrameCodec, ReaderErrorsNameTheProblem) {
  {
    const FrameReader reader(std::vector<std::byte>(3, std::byte{0}));
    EXPECT_FALSE(reader.valid());
    EXPECT_NE(std::string(reader.error()).find("short"), std::string::npos);
  }
  {
    // Valid frame, then break the version nibble.
    auto frame = test::id_frame(1);
    frame[0] = std::byte{0xF2};
    const FrameReader reader(frame);
    EXPECT_FALSE(reader.valid());
    EXPECT_NE(std::string(reader.error()).find("version"), std::string::npos);
  }
}

// Decoding past the last record or through a mismatched reader is a
// programming error and must throw rather than return garbage.
TEST(FrameCodec, OverreadThrows) {
  const auto frame = test::id_frame(5);
  ASSERT_TRUE(FrameReader(frame).valid());
  VertexId id = -1;
  EXPECT_NO_THROW(id = test::only_id(frame));
  EXPECT_EQ(id, 5);
  // A ColorRecord reader wants one more field than the frame carries.
  EXPECT_THROW(for_each_record<ColorRecord>(frame, [](const ColorRecord&) {}),
               Error);
}

TEST(FrameCodec, EmptySpanHoldsZeroRecords) {
  EXPECT_EQ(test::only_id({}), -1);
}

TEST(FrameCodec, InvalidFrameThrows) {
  const std::vector<std::byte> garbage(8, std::byte{0x5A});
  EXPECT_THROW(for_each_record<IdRecord>(garbage, [](const IdRecord&) {}),
               Error);
}

/// Seals `payload` into a frame declaring `records` records, by hand — the
/// public varint writer and checksum, no FrameWriter — so a test can build
/// frames the encoder never would.
std::vector<std::byte> seal(WireCodec codec, std::uint64_t records,
                            const VarintWriter& payload) {
  VarintWriter frame;
  frame.put_u8(static_cast<std::uint8_t>((kWireFormatVersion << 4) |
                                         static_cast<std::uint8_t>(codec)));
  frame.put_uvarint(records);
  frame.put_uvarint(payload.size());
  for (const std::byte b : payload.bytes()) {
    frame.put_u8(static_cast<std::uint8_t>(b));
  }
  frame.put_raw(fnv1a32(frame.bytes()));
  return frame.take();
}

TEST(FrameCodec, TrailingPayloadByteIsRejected) {
  for (const WireCodec codec : kBothCodecs) {
    // The payload of ColorRecord{5, 3}, spelled out per codec.
    VarintWriter payload;
    if (codec == WireCodec::kFixed) {
      payload.put_raw(VertexId{5});
      payload.put_raw(Color{3});
    } else {
      payload.put_svarint(5);  // first id: delta from 0
      payload.put_svarint(3);
    }
    // The hand-built frame is exactly what FrameWriter produces...
    FrameWriter w(codec);
    w.append(ColorRecord{5, 3});
    ASSERT_EQ(seal(codec, 1, payload), w.take()) << to_string(codec);

    // ...until one byte past the record: checksum and length still agree,
    // but the decoder must refuse the leftover byte.
    payload.put_u8(0);
    const auto frame = seal(codec, 1, payload);
    ASSERT_TRUE(FrameReader(frame).valid()) << to_string(codec);
    EXPECT_THROW(for_each_record<ColorRecord>(frame, [](const ColorRecord&) {}),
                 Error)
        << to_string(codec);
  }
}

// ---- record shapes ----------------------------------------------------------

/// Encodes `records` into one frame under `codec` and decodes them back.
template <class R>
std::vector<R> round_trip(const std::vector<R>& records, WireCodec codec) {
  FrameWriter w(codec);
  for (const R& r : records) w.append(r);
  const auto frame = w.take();
  std::vector<R> out;
  for_each_record<R>(frame, [&](const R& r) { out.push_back(r); });
  return out;
}

TEST(RecordShapes, ColorRecordRoundTrips) {
  const std::vector<ColorRecord> records = {
      {0, 0}, {7, 3}, {1 << 20, kNoColor}, {6, 4000}, {kNoVertex, 1}};
  for (const WireCodec codec : kBothCodecs) {
    const auto back = round_trip(records, codec);
    ASSERT_EQ(back.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(back[i].vertex, records[i].vertex) << to_string(codec);
      EXPECT_EQ(back[i].color, records[i].color) << to_string(codec);
    }
  }
}

TEST(RecordShapes, MateRecordRoundTrips) {
  const std::vector<MateRecord> records = {
      {0, 1}, {1, 0}, {1 << 20, kNoVertex}, {42, 41}, {3, (1 << 20) + 9}};
  for (const WireCodec codec : kBothCodecs) {
    const auto back = round_trip(records, codec);
    ASSERT_EQ(back.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(back[i].vertex, records[i].vertex) << to_string(codec);
      EXPECT_EQ(back[i].mate, records[i].mate) << to_string(codec);
    }
  }
}

TEST(RecordShapes, EveryMatchingKindRoundTrips) {
  using Kind = MatchProcess::RecordType;
  const std::vector<MatchProcess::Record> records = {
      {Kind::kRequest, 10, 12},   {Kind::kSucceeded, 12, 10},
      {Kind::kFailed, 1 << 20},   {Kind::kInvalidate, 3},
      {Kind::kRequest, 3, 1 << 20}, {Kind::kInvalidate, 0}};
  for (const WireCodec codec : kBothCodecs) {
    const auto back = round_trip(records, codec);
    ASSERT_EQ(back.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(back[i].kind, records[i].kind) << to_string(codec);
      EXPECT_EQ(back[i].vertex, records[i].vertex) << to_string(codec);
      // FAILED and INVALIDATE carry no partner on the wire.
      const bool has_partner = records[i].kind == Kind::kRequest ||
                               records[i].kind == Kind::kSucceeded;
      EXPECT_EQ(back[i].partner, has_partner ? records[i].partner : kNoVertex)
          << to_string(codec);
    }
  }
}

TEST(RecordShapes, UnknownMatchingKindIsRejected) {
  // A synthetic Record with type 9 puts an unknown kind byte on the wire.
  const auto frame = encode_records({Record{9, 1, 2, 3}}, WireCodec::kCompact);
  EXPECT_THROW(for_each_record<MatchProcess::Record>(
                   frame, [](const MatchProcess::Record&) {}),
               Error);
}

}  // namespace
}  // namespace pmc
