// Compile-fail probe: a SendTicket is move-only, so one paid overhead can
// price at most one message (formerly pmc-lint D9).
#include <utility>

#include "runtime/fabric.hpp"

void probe(pmc::CommFabric& fabric) {
  pmc::CommFabric::Lane lane = fabric.make_lane(0);
  pmc::CommFabric::SendTicket ticket = lane.begin_send();
#ifdef PMC_COMPILE_FAIL
  pmc::CommFabric::SendTicket copy = ticket;
  (void)fabric.post_send_at(std::move(copy), 1, 8, 1);
#endif
  (void)fabric.post_send_at(std::move(ticket), 1, 8, 1);
}
