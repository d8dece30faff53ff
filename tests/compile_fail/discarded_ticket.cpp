// Compile-fail probe (with -Werror=unused-result): discarding the ticket
// Lane::begin_send() returns charges the overhead of a send that can never
// be posted (formerly pmc-lint D9). An unposted ticket that escapes to run
// time aborts instead (SendTicketDeathTest in test_fabric).
#include "runtime/fabric.hpp"

void probe(pmc::CommFabric& fabric) {
  pmc::CommFabric::Lane lane = fabric.make_lane(0);
#ifdef PMC_COMPILE_FAIL
  lane.begin_send();
#endif
  (void)fabric.post_send_at(lane.begin_send(), 1, 8, 1);
}
