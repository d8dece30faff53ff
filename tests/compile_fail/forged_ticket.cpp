// Compile-fail probe: only Lane::begin_send() creates a SendTicket, so no
// send can skip the sender-side overhead (formerly pmc-lint D9).
#include <utility>

#include "runtime/fabric.hpp"

void probe(pmc::CommFabric& fabric) {
  pmc::CommFabric::Lane lane = fabric.make_lane(0);
#ifdef PMC_COMPILE_FAIL
  pmc::CommFabric::SendTicket forged(0, 0.0, false);
  (void)fabric.post_send_at(std::move(forged), 1, 8, 1);
#endif
  (void)fabric.post_send_at(lane.begin_send(), 1, 8, 1);
}
