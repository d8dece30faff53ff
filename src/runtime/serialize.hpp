// Byte-level message serialization and the versioned wire codec.
//
// Algorithm-level records (REQUEST/SUCCEEDED/FAILED for matching, color
// updates for coloring) travel inside *frames*: a small self-describing
// envelope with a version/codec tag, a record count, the payload length and
// an FNV-1a-32 checksum trailer. Two payload codecs share the frame:
//
//   * WireCodec::kFixed   — the legacy fixed-width native encoding (u8 tag,
//     8-byte VertexId, 4-byte Color), byte-identical to the pre-codec
//     payloads; kept as the ablation baseline.
//   * WireCodec::kCompact — LEB128 varints with per-frame delta encoding of
//     vertex ids (records are near-sorted by construction, so consecutive
//     ids are close and deltas fit in one or two bytes) and zigzag-encoded
//     signed values. The default: the alpha-beta cost model charges on
//     encoded bytes, so compaction directly reduces modelled time.
//
// Frame layout (all multi-byte header fields are LEB128; the checksum is a
// 4-byte little-endian trailer):
//
//   +--------+----------------+----------------+=========+-----------+
//   | tag    | record count   | payload length | payload | FNV-1a-32 |
//   | 1 byte | uvarint        | uvarint        | N bytes | 4 bytes   |
//   +--------+----------------+----------------+=========+-----------+
//     tag = (version << 4) | codec
//
// The checksum covers everything before it (tag through payload). A single
// corrupted bit is detected with certainty: FNV-1a's per-byte step
// h' = (h ^ b) * prime is injective in h and in b, so two byte streams that
// first differ at some position keep differing states forever; truncation
// is caught by the explicit payload length. A frame that fails validation
// is reported through FrameReader::valid() — never a crash — so the
// engines' retry/repair machinery can treat it as a detected corruption.
//
// Records are declared, not hand-coded: each record type R lists its fields
// once, in wire order, as
//
//   template <class IO> static void fields(IO& io, R& r) {
//     io.id(r.vertex);
//     io.color(r.color);
//   }
//
// and FrameWriter::append(r) / for_each_record<R>(frame, fn) walk that one
// list to encode and to decode. The field primitives are io.u8 (a one-byte
// tag or enum), io.id (a vertex id on the frame's delta chain), io.id_rel
// (an id relative to the last io.id, not advancing the chain) and io.color.
// The typed put_*/read_* cursors are private to the codec, so an encoder
// and its decoder cannot drift apart, and every decode ends with the
// trailing-bytes check. The encoding is native-endian throughout: messages
// never leave the process — the runtime is a simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "support/error.hpp"
#include "support/types.hpp"

namespace pmc {

// ---- wire codec -----------------------------------------------------------

/// Payload encoding carried in the frame tag.
enum class WireCodec : std::uint8_t {
  kFixed = 1,    ///< Legacy fixed-width records (ablation baseline).
  kCompact = 2,  ///< LEB128 varint + per-frame delta encoding (default).
};

[[nodiscard]] const char* to_string(WireCodec codec) noexcept;

/// Parses "fixed" / "compact" (the mtx_tool --codec values).
[[nodiscard]] WireCodec parse_wire_codec(const std::string& name);

inline constexpr std::uint8_t kWireFormatVersion = 1;
inline constexpr std::size_t kFrameChecksumBytes = 4;

/// FNV-1a-32 over a byte span. Guarantees detection of any single corrupted
/// byte (the per-byte step is injective; see the header comment).
[[nodiscard]] std::uint32_t fnv1a32(std::span<const std::byte> bytes) noexcept;

/// ZigZag maps signed to unsigned so small-magnitude values (of either
/// sign — deltas go both ways) get short varints.
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t u) noexcept {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

/// Appends LEB128 varints (and raw bytes) to a growing byte buffer — the
/// low-level encoder under FrameWriter, exposed for tests.
class VarintWriter {
 public:
  void put_u8(std::uint8_t b) {
    bytes_.push_back(static_cast<std::byte>(b));
  }

  void put_uvarint(std::uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    bytes_.push_back(static_cast<std::byte>(v));
  }

  void put_svarint(std::int64_t v) { put_uvarint(zigzag_encode(v)); }

  template <typename T>
  void put_raw(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "VarintWriter::put_raw needs a trivially copyable type");
    const auto old = bytes_.size();
    bytes_.resize(old + sizeof(T));
    std::memcpy(bytes_.data() + old, &value, sizeof(T));
  }

  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return bytes_.empty(); }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return bytes_;
  }

  [[nodiscard]] std::vector<std::byte> take() noexcept {
    std::vector<std::byte> out = std::move(bytes_);
    bytes_.clear();
    return out;
  }

  void clear() noexcept { bytes_.clear(); }

 private:
  std::vector<std::byte> bytes_;
};

/// Encodes one outgoing message: records added with append(), sealed into a
/// checksummed frame by take(). Under kFixed the payload bytes are
/// identical to the legacy fixed-width encoding; under kCompact ids are
/// delta-chained varints (io.id advances the chain, io.id_rel encodes
/// relative to the last io.id without advancing it) and colors are zigzag
/// varints. take() of a writer with no records returns an empty vector —
/// empty messages (the FIAC mode's non-neighbor sends) stay zero-byte on
/// the wire.
class FrameWriter {
 public:
  explicit FrameWriter(WireCodec codec = WireCodec::kCompact) noexcept
      : codec_(codec) {}

  [[nodiscard]] WireCodec codec() const noexcept { return codec_; }

  /// Encodes one record by walking R::fields (see the header comment).
  template <class R>
  void append(const R& record) {
    ++records_;
    R copy = record;  // fields() takes R& so that decoding can fill it in
    Encoder io(*this);
    R::fields(io, copy);
  }

  [[nodiscard]] std::int64_t records() const noexcept { return records_; }
  [[nodiscard]] bool empty() const noexcept { return records_ == 0; }

  /// Seals the staged records into one frame and resets the writer (record
  /// count, payload, delta chain). No records staged -> empty vector.
  [[nodiscard]] std::vector<std::byte> take();

 private:
  /// The `io` a record's fields() sees while encoding.
  class Encoder {
   public:
    explicit Encoder(FrameWriter& w) noexcept : w_(w) {}
    template <class T>
    void u8(T v) {
      static_assert(sizeof(T) == 1, "io.u8 takes a one-byte tag or enum");
      w_.put_u8(static_cast<std::uint8_t>(v));
    }
    void id(VertexId v) { w_.put_id(v); }
    void id_rel(VertexId v) { w_.put_id_rel(v); }
    void color(Color c) { w_.put_color(c); }

   private:
    FrameWriter& w_;
  };

  void put_u8(std::uint8_t b) { payload_.put_u8(b); }

  void put_id(VertexId id) {
    if (codec_ == WireCodec::kFixed) {
      payload_.put_raw(id);
      return;
    }
    payload_.put_svarint(id - last_id_);
    last_id_ = id;
  }

  /// Mates and request targets are graph neighbors of the record's primary
  /// id, so the difference is small.
  void put_id_rel(VertexId id) {
    if (codec_ == WireCodec::kFixed) {
      payload_.put_raw(id);
      return;
    }
    payload_.put_svarint(id - last_id_);
  }

  void put_color(Color c) {
    if (codec_ == WireCodec::kFixed) {
      payload_.put_raw(c);
      return;
    }
    payload_.put_svarint(c);
  }

  WireCodec codec_;
  VarintWriter payload_;
  std::int64_t records_ = 0;
  VertexId last_id_ = 0;
};

/// Parses and validates one frame. Construction never throws on garbage
/// input: header, length and checksum problems are reported through
/// valid()/error() so the caller can route the failure into recovery
/// instead of dying. The payload is decoded only by for_each_record.
class FrameReader {
 public:
  explicit FrameReader(std::span<const std::byte> frame) noexcept;

  [[nodiscard]] bool valid() const noexcept { return error_ == nullptr; }
  /// Human-readable reason when !valid(); nullptr otherwise.
  [[nodiscard]] const char* error() const noexcept { return error_; }

  [[nodiscard]] WireCodec codec() const noexcept { return codec_; }
  [[nodiscard]] std::int64_t records() const noexcept { return records_; }

 private:
  template <class R, class Fn>
  friend void for_each_record(std::span<const std::byte> frame, Fn&& fn);

  /// The `io` a record's fields() sees while decoding.
  class Decoder {
   public:
    explicit Decoder(FrameReader& r) noexcept : r_(r) {}
    template <class T>
    void u8(T& v) {
      static_assert(sizeof(T) == 1, "io.u8 takes a one-byte tag or enum");
      v = static_cast<T>(r_.read_raw<std::uint8_t>());
    }
    void id(VertexId& v) { v = r_.read_id(); }
    void id_rel(VertexId& v) { v = r_.read_id_rel(); }
    void color(Color& c) { c = r_.read_color(); }

   private:
    FrameReader& r_;
  };

  void parse(std::span<const std::byte> frame) noexcept;
  [[nodiscard]] VertexId read_id();
  [[nodiscard]] VertexId read_id_rel();
  [[nodiscard]] Color read_color();
  [[nodiscard]] bool done() const noexcept { return pos_ == payload_.size(); }
  [[nodiscard]] std::uint64_t read_uvarint();
  [[nodiscard]] std::int64_t read_svarint() {
    return zigzag_decode(read_uvarint());
  }
  template <typename T>
  [[nodiscard]] T read_raw() {
    PMC_CHECK(pos_ + sizeof(T) <= payload_.size(),
              "frame payload underflow: need "
                  << sizeof(T) << " bytes at offset " << pos_ << " of "
                  << payload_.size());
    T value;
    std::memcpy(&value, payload_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::span<const std::byte> payload_;
  std::size_t pos_ = 0;
  WireCodec codec_ = WireCodec::kFixed;
  std::int64_t records_ = 0;
  VertexId last_id_ = 0;
  const char* error_ = nullptr;
};

/// Decodes every record of `frame` as an R, in order, calling fn(record)
/// for each. An empty span holds zero records (the FIAC mode's empty
/// sends). An invalid frame, a record that overruns the payload, and
/// payload bytes left over after the last record all fail a PMC_CHECK.
template <class R, class Fn>
void for_each_record(std::span<const std::byte> frame, Fn&& fn) {
  if (frame.empty()) return;
  FrameReader reader(frame);
  PMC_CHECK(reader.valid(), "undetected bad frame: " << reader.error());
  FrameReader::Decoder io(reader);
  for (std::int64_t i = 0; i < reader.records(); ++i) {
    R record{};
    R::fields(io, record);
    fn(record);
  }
  PMC_CHECK(reader.done(), "trailing bytes after the last record of a frame");
}

/// Flips one deterministically chosen bit of a non-empty buffer — the
/// engines' physical model of an in-flight corruption (the fabric issues
/// the verdict; the engine garbles the bytes and lets the checksum catch
/// it honestly).
void corrupt_one_bit(std::vector<std::byte>& bytes, std::uint64_t seed);

}  // namespace pmc
