// Compile-fail probe: a frame's payload decodes only through a record's
// fields() list, via for_each_record, which also rejects trailing bytes.
// A hand-written read_* sequence — one that could skip the done() check or
// drift from its encoder — does not compile (formerly pmc-lint D4 and D8).
#include <span>

#include "runtime/serialize.hpp"

struct Probe {
  pmc::VertexId vertex = 0;

  template <class IO>
  static void fields(IO& io, Probe& r) {
    io.id(r.vertex);
  }
};

pmc::VertexId probe(std::span<const std::byte> frame) {
  pmc::VertexId last = 0;
#ifdef PMC_COMPILE_FAIL
  pmc::FrameReader reader(frame);
  last += reader.read_id();
#endif
  pmc::for_each_record<Probe>(frame, [&](const Probe& p) { last = p.vertex; });
  return last;
}
