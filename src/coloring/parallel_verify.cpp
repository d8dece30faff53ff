#include "coloring/parallel_verify.hpp"

#include <vector>

#include "runtime/bsp_engine.hpp"
#include "runtime/fabric.hpp"
#include "runtime/serialize.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace pmc {

DistVerifyResult verify_coloring_distributed(const DistGraph& dist,
                                             const Coloring& c,
                                             const MachineModel& model,
                                             const ExecConfig& exec,
                                             WireCodec codec) {
  PMC_REQUIRE(c.num_vertices() == dist.num_global_vertices(),
              "coloring size does not match the distributed graph");
  WallTimer wall;
  const Rank P = dist.num_ranks();
  BspEngine engine(P, model, FabricConfig{}, exec);

  // Boundary color exchange.
  engine.run_ranks([&](BspEngine::RankCtx& ctx) {
    const LocalGraph& lg = dist.local(ctx.rank());
    SlotWriters out(lg.neighbor_ranks(), codec);
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      if (!lg.is_boundary(v)) continue;
      const VertexId gv = lg.global_id(v);
      ctx.charge(static_cast<double>(lg.degree(v)));
      for (const Slot slot : lg.boundary_slots(v)) {
        out.append(slot,
                   ColorRecord{gv, c.color[static_cast<std::size_t>(gv)]});
      }
    }
    out.flush_ascending(sender(ctx));
  });

  std::vector<std::int64_t> violations(static_cast<std::size_t>(P), 0);
  engine.exchange([&](BspEngine::RankCtx& ctx, std::vector<BspMessage> msgs) {
    const Rank r = ctx.rank();
    const LocalGraph& lg = dist.local(r);
    std::int64_t& mine = violations[static_cast<std::size_t>(r)];
    GhostValues<Color> ghost_color(lg);
    for (const BspMessage& msg : msgs) {
      for_each_record<ColorRecord>(msg.payload, [&](const ColorRecord& rec) {
        ghost_color.store(rec.vertex, rec.color);
      });
    }
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      ctx.charge(static_cast<double>(lg.degree(v)) + 1.0);
      const VertexId gv = lg.global_id(v);
      const Color cv = c.color[static_cast<std::size_t>(gv)];
      if (cv < 0) {
        ++mine;  // uncolored (counted at the owner)
        continue;
      }
      for (VertexId u : lg.neighbors(v)) {
        const VertexId gu = lg.global_id(u);
        if (gv >= gu) continue;  // count each edge once
        const Color cu = lg.is_ghost(u)
                             ? ghost_color.at(u)
                             : c.color[static_cast<std::size_t>(gu)];
        if (cu == cv) ++mine;
      }
    }
  });
  engine.allreduce();

  DistVerifyResult result;
  for (Rank r = 0; r < P; ++r) {
    result.violations += violations[static_cast<std::size_t>(r)];
  }
  result.run.sim_seconds = engine.time();
  result.run.wall_seconds = wall.seconds();
  result.run.comm = engine.comm();
  result.run.load = engine.load_stats();
  return result;
}

}  // namespace pmc
