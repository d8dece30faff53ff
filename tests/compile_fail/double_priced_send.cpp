// Compile-fail probe: post_send_at() is priced by a SendTicket only, never
// by a bare double such as a live clock read (formerly pmc-lint D9).
#include <utility>

#include "runtime/fabric.hpp"

void probe(pmc::CommFabric& fabric) {
  pmc::CommFabric::Lane lane = fabric.make_lane(0);
  pmc::CommFabric::SendTicket ticket = lane.begin_send();
#ifdef PMC_COMPILE_FAIL
  (void)fabric.post_send_at(0, 1, 8, 1, fabric.now(0));
#endif
  (void)fabric.post_send_at(std::move(ticket), 1, 8, 1);
}
