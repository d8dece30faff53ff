// Fixture: D3 must stay silent — wire traffic goes through the frame codec's
// record API; no raw byte copies of structs in sight.
#include <cstdint>
#include <vector>

struct ColorRecord {
  std::int64_t vertex = 0;
  std::int32_t color = 0;

  template <class IO>
  static void fields(IO& io, ColorRecord& r) {
    io.id(r.vertex);
    io.color(r.color);
  }
};

struct FrameWriter {
  template <class R>
  void append(const R&) {}
  std::vector<std::byte> take() { return {}; }
};

std::vector<std::byte> encode(std::int64_t vertex, std::int32_t color) {
  FrameWriter w;
  w.append(ColorRecord{vertex, color});
  return w.take();
}
