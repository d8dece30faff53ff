// Compile-fail probe: records are encoded only through their fields() list,
// via FrameWriter::append, so the encoder and the decoder walk the same
// field sequence. A hand-written put_* sequence does not compile (formerly
// pmc-lint D8).
#include <cstddef>
#include <vector>

#include "runtime/serialize.hpp"

struct Probe {
  pmc::VertexId vertex = 0;

  template <class IO>
  static void fields(IO& io, Probe& r) {
    io.id(r.vertex);
  }
};

std::vector<std::byte> probe(pmc::FrameWriter& writer) {
#ifdef PMC_COMPILE_FAIL
  writer.put_id(7);
#endif
  writer.append(Probe{7});
  return writer.take();
}
