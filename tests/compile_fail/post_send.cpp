// Compile-fail probe: CommFabric has no live-clock send. Every message is
// priced at the send time a Lane recorded, so a phase replays identically
// at any thread count (formerly pmc-lint D6).
#include "runtime/fabric.hpp"

void probe(pmc::CommFabric& fabric) {
  pmc::CommFabric::Lane lane = fabric.make_lane(0);
#ifdef PMC_COMPILE_FAIL
  (void)fabric.post_send(0, 1, 8, 1);
#endif
  (void)fabric.post_send_at(lane.begin_send(), 1, 8, 1);
}
