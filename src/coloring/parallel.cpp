#include "coloring/parallel.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "coloring/color_exchange.hpp"
#include "coloring/distance2_parallel.hpp"
#include "runtime/bsp_engine.hpp"
#include "runtime/fabric.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace pmc {

DistColoringOptions DistColoringOptions::fiab() {
  DistColoringOptions o;
  o.superstep_size = 100;
  o.comm_mode = CommMode::kBroadcastUnion;
  return o;
}

DistColoringOptions DistColoringOptions::fiac() {
  DistColoringOptions o;
  o.superstep_size = 1000;
  o.comm_mode = CommMode::kCustomizedAll;
  return o;
}

DistColoringOptions DistColoringOptions::improved() {
  DistColoringOptions o;
  o.superstep_size = 1000;
  o.comm_mode = CommMode::kCustomizedNeighbors;
  return o;
}

namespace {

/// Per-rank working state of the speculative coloring over the rank's
/// neighbourhood View.
template <class View>
struct RankState {
  const View* view = nullptr;
  /// Colors of owned and ghost vertices (local ids).
  std::vector<Color> color;
  /// Owned vertices still to be colored this round, in coloring order.
  std::vector<VertexId> to_color;
  /// Boundary vertices colored in the current round (for conflict detection).
  std::vector<VertexId> colored_boundary;
  ColorChooser chooser{ColorStrategy::kFirstFit};
  std::vector<std::int64_t> usage;  // for kLeastUsed
  /// Per-destination staging for this rank's current superstep, flushed
  /// under the configured fabric send policy. Per rank (not shared) so
  /// concurrent rank callbacks stay isolated.
  FanoutStage stage;
};

/// What the conflict phase does with a boundary vertex colored this round.
enum class ConflictVerdict {
  kKeep,     ///< It loses no conflict: the color stands.
  kRecolor,  ///< It loses a conflict: reset and recolor next round.
  kReenter,  ///< Its announcement was lost in flight: reset and re-enter.
};

// Each neighbourhood's first-fit walk returns its work; its conflict scan
// charges its own work, because the two distances charge in different
// orders.

/// Distance-1 first-fit walk: forbids the neighbours' colors; the work is
/// the arcs touched plus one.
double forbid_neighborhood_colors(const LocalGraph& lg, VertexId v,
                                  const std::vector<Color>& color,
                                  ColorChooser& chooser) {
  for (VertexId u : lg.neighbors(v)) {
    const Color cu = color[static_cast<std::size_t>(u)];
    if (cu != kNoColor) chooser.forbid(cu);
  }
  return static_cast<double>(lg.degree(v)) + 1.0;
}

/// Distance-1 conflict scan over v's ghost neighbours. It charges deg(v)
/// before the lost-set probe, so a re-entered vertex pays it too.
ConflictVerdict check_conflict(const LocalGraph& lg, VertexId v,
                               const std::vector<Color>& color,
                               std::uint64_t seed, bool lost,
                               BspEngine::RankCtx& ctx) {
  ctx.charge(static_cast<double>(lg.degree(v)), WorkPhase::kBoundary);
  // Some receiver never learned v's color; re-enter unconditionally (it
  // will recolor — and re-announce — next round).
  if (lost) return ConflictVerdict::kReenter;
  const Color cv = color[static_cast<std::size_t>(v)];
  const VertexId gv = lg.global_id(v);
  for (VertexId u : lg.neighbors(v)) {
    // Exactly one endpoint of a conflict edge recolors; both ranks evaluate
    // the same deterministic comparison.
    if (lg.is_ghost(u) && color[static_cast<std::size_t>(u)] == cv &&
        wins_priority(lg.global_id(u), gv, seed)) {
      return ConflictVerdict::kRecolor;
    }
  }
  return ConflictVerdict::kKeep;
}

/// Distance-2 first-fit walk: forbids the colors of N(v) and N(N(v)) \ {v};
/// the work is one plus the arcs scanned.
double forbid_neighborhood_colors(const Dist2RankView& view, VertexId v,
                                  const std::vector<Color>& color,
                                  ColorChooser& chooser) {
  double work = 1.0;
  for (VertexId u : view.neighbors(v)) {
    const Color cu = color[static_cast<std::size_t>(u)];
    if (cu != kNoColor) chooser.forbid(cu);
    work += 1.0;
    for (VertexId w : view.neighbors(u)) {
      if (w == v) continue;
      const Color cw = color[static_cast<std::size_t>(w)];
      if (cw != kNoColor) chooser.forbid(cw);
      work += 1.0;
    }
  }
  return work;
}

/// Distance-2 conflict scan over N(v) and N(N(v)) \ {v}. A re-entered
/// vertex is not charged; otherwise the charge, one plus the two-hop arcs
/// checked, follows the scan.
ConflictVerdict check_conflict(const Dist2RankView& view, VertexId v,
                               const std::vector<Color>& color,
                               std::uint64_t seed, bool lost,
                               BspEngine::RankCtx& ctx) {
  // Some two-hop recipient never learned v's color; re-enter
  // unconditionally.
  if (lost) return ConflictVerdict::kReenter;
  const Color cv = color[static_cast<std::size_t>(v)];
  const VertexId gv = view.global_id(v);
  double work = 1.0;
  const auto loses_to = [&](VertexId local) {
    work += 1.0;
    if (color[static_cast<std::size_t>(local)] != cv) return false;
    const VertexId gu = view.global_id(local);
    return gu != gv && wins_priority(gu, gv, seed);
  };
  const auto loses = [&] {
    for (VertexId u : view.neighbors(v)) {
      if (loses_to(u)) return true;
      for (VertexId w : view.neighbors(u)) {
        if (w != v && loses_to(w)) return true;
      }
    }
    return false;
  };
  const bool lose = loses();
  ctx.charge(work, WorkPhase::kBoundary);
  return lose ? ConflictVerdict::kRecolor : ConflictVerdict::kKeep;
}

}  // namespace

template <class View>
DistColoringResult color_speculative(std::span<const View> views,
                                     VertexId num_global_vertices,
                                     const DistColoringOptions& options) {
  PMC_REQUIRE(options.superstep_size >= 1, "superstep size must be >= 1");
  WallTimer wall;
  const auto P = static_cast<Rank>(views.size());
  BspEngine engine(P, options.model,
                   FabricConfig{0.0, 0, options.faults, options.trace},
                   options.exec);
  const bool faults_on = engine.faults_enabled();
  // Synchronous supersteps parallelize unconditionally; asynchronous ones go
  // through run_ranks_snapshot(), which pre-harvests each rank's poll()
  // result and parallelizes whenever the clock-only safety check proves the
  // schedule byte-identical to sequential execution.
  const bool sync_mode = options.superstep_mode == SuperstepMode::kSync;

  std::vector<RankState<View>> states(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    RankState<View>& st = states[static_cast<std::size_t>(r)];
    const View& view = views[static_cast<std::size_t>(r)];
    st.view = &view;
    st.color.assign(static_cast<std::size_t>(view.num_local()), kNoColor);
    st.chooser = ColorChooser(options.strategy,
                              /*stagger_base=*/static_cast<Color>(r));
    st.stage = FanoutStage(P, view.neighbor_ranks(), options.codec);
    if (options.strategy == ColorStrategy::kLeastUsed) {
      st.usage.assign(1, 0);
    }
    // Initial coloring order within the rank: local-id order, or interior
    // (boundary) vertices first, each class in local-id order.
    st.to_color.resize(static_cast<std::size_t>(view.num_owned()));
    std::iota(st.to_color.begin(), st.to_color.end(), VertexId{0});
    if (options.local_order != LocalOrder::kNatural) {
      const bool boundary_first =
          options.local_order == LocalOrder::kBoundaryFirst;
      std::stable_partition(
          st.to_color.begin(), st.to_color.end(),
          [&](VertexId v) { return view.is_boundary(v) == boundary_first; });
    }
  }

  DistColoringResult result;
  const std::uint64_t seed = options.seed;

  // Global ids whose color announcement was dropped this round, per sending
  // rank; the conflict phase resets and re-enters them (shared with the
  // incremental driver via color_exchange).
  LostColorSets lost(static_cast<std::size_t>(P));
  const auto apply_exchange = [&](BspEngine::RankCtx& ctx,
                                  std::vector<BspMessage> msgs) {
    RankState<View>& st = states[static_cast<std::size_t>(ctx.rank())];
    for (const BspMessage& msg : msgs) {
      apply_color_records(*st.view, st.color, msg, options.comm_mode);
    }
  };

  while (true) {
    // ---- Tentative coloring phase -------------------------------------
    VertexId max_todo = 0;
    for (const auto& st : states) {
      max_todo = std::max(max_todo, static_cast<VertexId>(st.to_color.size()));
    }
    if (max_todo == 0) break;
    PMC_REQUIRE(result.rounds < options.max_rounds,
                "coloring failed to converge in " << options.max_rounds
                                                  << " rounds");
    engine.fabric().set_round_all(result.rounds);
    const VertexId steps =
        (max_todo + options.superstep_size - 1) / options.superstep_size;
    for (VertexId k = 0; k < steps; ++k) {
      const auto superstep = [&](BspEngine::RankCtx& ctx) {
        const Rank r = ctx.rank();
        RankState<View>& st = states[static_cast<std::size_t>(r)];
        const View& view = *st.view;
        // Asynchronous receive: use whatever color information has arrived
        // by this rank's local time. The charge scales with the records
        // applied, not the encoded payload size, so modelled receive cost
        // is invariant under the wire codec.
        if (!sync_mode) {
          for (const BspMessage& msg : ctx.poll()) {
            apply_color_records(view, st.color, msg, options.comm_mode);
            ctx.charge(static_cast<double>(msg.records), WorkPhase::kBoundary);
          }
        }
        const auto begin = static_cast<std::size_t>(k * options.superstep_size);
        if (begin >= st.to_color.size()) return;
        const auto end = std::min(st.to_color.size(),
                                  begin + static_cast<std::size_t>(
                                              options.superstep_size));
        auto* usage = st.usage.empty() ? nullptr : &st.usage;
        for (std::size_t i = begin; i < end; ++i) {
          const VertexId v = st.to_color[i];
          const bool boundary = view.is_boundary(v);
          const double work =
              forbid_neighborhood_colors(view, v, st.color, st.chooser);
          const Color chosen = st.chooser.choose(usage);
          ctx.charge(work,
                     boundary ? WorkPhase::kBoundary : WorkPhase::kInterior);
          st.color[static_cast<std::size_t>(v)] = chosen;
          if (!boundary) continue;
          st.colored_boundary.push_back(v);
          const VertexId global = view.global_id(v);
          if (options.comm_mode == CommMode::kBroadcastUnion) {
            st.stage.stage_union(global, chosen);
          } else {
            for (const Slot slot : view.boundary_slots(v)) {
              st.stage.stage(slot, global, chosen);
            }
          }
        }
        // Send this superstep's boundary colors under the configured policy.
        st.stage.flush(options.comm_mode, r,
                       lost_tracking_color_sender(lost, faults_on, ctx));
      };
      if (sync_mode) {
        engine.run_ranks(superstep);
      } else {
        engine.run_ranks_snapshot(superstep);
      }
      ++result.total_supersteps;
      if (sync_mode) engine.exchange(apply_exchange);
    }

    // ---- "Wait until all incoming messages are received" ---------------
    engine.exchange(apply_exchange);

    // ---- Conflict detection (no communication needed) ------------------
    std::vector<EdgeId> recolored(static_cast<std::size_t>(P), 0);
    std::vector<std::int64_t> reentries(static_cast<std::size_t>(P), 0);
    engine.run_ranks([&](BspEngine::RankCtx& ctx) {
      const Rank r = ctx.rank();
      RankState<View>& st = states[static_cast<std::size_t>(r)];
      auto& lost_r = lost[static_cast<std::size_t>(r)];
      sort_lost(lost_r);
      st.to_color.clear();
      for (const VertexId v : st.colored_boundary) {
        const bool lost_v =
            faults_on && std::binary_search(lost_r.begin(), lost_r.end(),
                                            st.view->global_id(v));
        const ConflictVerdict verdict =
            check_conflict(*st.view, v, st.color, seed, lost_v, ctx);
        if (verdict == ConflictVerdict::kKeep) continue;
        st.color[static_cast<std::size_t>(v)] = kNoColor;
        st.to_color.push_back(v);
        if (verdict == ConflictVerdict::kReenter) {
          ++reentries[static_cast<std::size_t>(r)];
        } else {
          ++recolored[static_cast<std::size_t>(r)];
        }
      }
      st.colored_boundary.clear();
      lost_r.clear();
    });
    EdgeId recolored_total = 0;
    for (Rank r = 0; r < P; ++r) {
      recolored_total += recolored[static_cast<std::size_t>(r)];
      result.fault_reentries += reentries[static_cast<std::size_t>(r)];
    }
    result.conflicts_per_round.push_back(recolored_total);
    ++result.rounds;

    // ---- Termination check ("while exists j with U_j nonempty") --------
    engine.allreduce();
  }

  // Assemble the global coloring.
  result.coloring.color.assign(static_cast<std::size_t>(num_global_vertices),
                               kNoColor);
  for (const RankState<View>& st : states) {
    for (VertexId v = 0; v < st.view->num_owned(); ++v) {
      result.coloring.color[static_cast<std::size_t>(st.view->global_id(v))] =
          st.color[static_cast<std::size_t>(v)];
    }
  }
  engine.fabric().export_into(result.run);
  result.run.wall_seconds = wall.seconds();
  result.run.rounds = result.rounds;
  result.snapshot_parallel_supersteps = engine.snapshot_parallel_phases();
  result.snapshot_fallback_supersteps = engine.snapshot_fallback_phases();
  return result;
}

template DistColoringResult color_speculative<Dist2RankView>(
    std::span<const Dist2RankView>, VertexId, const DistColoringOptions&);

DistColoringResult color_distributed(const DistGraph& dist,
                                     const DistColoringOptions& options) {
  return color_speculative(dist.locals(), dist.num_global_vertices(),
                           options);
}

DistColoringResult color_distributed(const Graph& g, const Partition& p,
                                     const DistColoringOptions& options) {
  const DistGraph dist = DistGraph::build(g, p);
  return color_distributed(dist, options);
}

}  // namespace pmc
