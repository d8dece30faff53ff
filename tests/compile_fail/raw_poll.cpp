// Compile-fail probe: driver code cannot read a rank's live inbox
// mid-superstep; arrivals come through RankCtx::poll() inside a
// run_ranks_snapshot() phase (formerly pmc-lint D7).
#include <cstddef>

#include "runtime/bsp_engine.hpp"

std::size_t probe(pmc::BspEngine& engine) {
  std::size_t seen = 0;
#ifdef PMC_COMPILE_FAIL
  seen += engine.poll(0).size();
#endif
  engine.run_ranks_snapshot(
      [&](pmc::BspEngine::RankCtx& ctx) { seen += ctx.poll().size(); });
  return seen;
}
