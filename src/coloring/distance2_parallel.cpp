#include "coloring/distance2_parallel.hpp"

#include <algorithm>

#include "coloring/color_exchange.hpp"
#include "support/error.hpp"

namespace pmc {

std::vector<Dist2RankView> build_dist2_views(const Graph& g,
                                             const Partition& p) {
  PMC_REQUIRE(p.num_vertices() == g.num_vertices(),
              "graph/partition size mismatch");
  const Rank parts = p.num_parts();
  std::vector<Dist2RankView> views(static_cast<std::size_t>(parts));

  // Owned vertices first, in global order (matching DistGraph's layout).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    views[static_cast<std::size_t>(p.owner(v))].global_ids_.push_back(v);
  }
  for (auto& view : views) {
    view.num_owned_ = static_cast<VertexId>(view.global_ids_.size());
    view.index_.build(view.global_ids_);
  }

  auto intern = [](Dist2RankView& view, VertexId global) {
    return view.index_.intern(view.global_ids_, global);
  };

  // Distance-1 ghosts (in deterministic order of discovery).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto& view = views[static_cast<std::size_t>(p.owner(v))];
    for (VertexId u : g.neighbors(v)) {
      (void)intern(view, u);
    }
  }
  for (auto& view : views) {
    view.num_adjacent_ = static_cast<VertexId>(view.global_ids_.size());
  }
  // Distance-2 ghosts: neighbors of the distance-1 layer.
  for (auto& view : views) {
    for (VertexId local = view.num_owned_; local < view.num_adjacent_;
         ++local) {
      for (VertexId w : g.neighbors(view.global_id(local))) {
        (void)intern(view, w);
      }
    }
  }

  // Adjacency for owned + distance-1 ghosts, rewritten to local ids.
  for (auto& view : views) {
    view.offsets_.assign(static_cast<std::size_t>(view.num_adjacent_) + 1, 0);
    for (VertexId local = 0; local < view.num_adjacent_; ++local) {
      view.offsets_[static_cast<std::size_t>(local) + 1] =
          g.degree(view.global_id(local));
    }
    for (std::size_t i = 1; i < view.offsets_.size(); ++i) {
      view.offsets_[i] += view.offsets_[i - 1];
    }
    view.adj_.resize(static_cast<std::size_t>(view.offsets_.back()));
    std::size_t cursor = 0;
    for (VertexId local = 0; local < view.num_adjacent_; ++local) {
      for (VertexId u : g.neighbors(view.global_id(local))) {
        const VertexId lu = view.local_id(u);
        PMC_CHECK(lu != kNoVertex, "two-hop closure missed vertex " << u);
        view.adj_[cursor++] = lu;
      }
    }
  }

  // Boundary slots: for each owned vertex, the sorted, unique ranks owning
  // any other vertex within distance <= 2, staged as ranks in one flat
  // table; their union is the staging set, whose indices then replace the
  // ranks.
  std::vector<Slot> slot_of_rank(static_cast<std::size_t>(parts));
  for (Rank r = 0; r < parts; ++r) {
    auto& view = views[static_cast<std::size_t>(r)];
    const auto owned = static_cast<std::size_t>(view.num_owned_);
    auto& staged = view.boundary_slots_;
    view.boundary_slot_offsets_.assign(owned + 1, 0);
    for (std::size_t v = 0; v < owned; ++v) {
      const auto first = static_cast<std::ptrdiff_t>(staged.size());
      const VertexId gv = view.global_ids_[v];
      for (VertexId u : g.neighbors(gv)) {
        if (p.owner(u) != r) staged.push_back(static_cast<Slot>(p.owner(u)));
        for (VertexId w : g.neighbors(u)) {
          if (w != gv && p.owner(w) != r) {
            staged.push_back(static_cast<Slot>(p.owner(w)));
          }
        }
      }
      std::sort(staged.begin() + first, staged.end());
      staged.erase(std::unique(staged.begin() + first, staged.end()),
                   staged.end());
      view.boundary_slot_offsets_[v + 1] =
          static_cast<std::uint32_t>(staged.size());
    }
    auto& dests = view.neighbor_ranks_;
    dests.assign(staged.begin(), staged.end());
    std::sort(dests.begin(), dests.end());
    dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
    for (std::size_t i = 0; i < dests.size(); ++i) {
      slot_of_rank[static_cast<std::size_t>(dests[i])] = static_cast<Slot>(i);
    }
    for (Slot& s : staged) s = slot_of_rank[s];
  }
  return views;
}

DistColoringResult color_distance2_distributed_native(
    const Graph& g, const Partition& p, const DistColoringOptions& options) {
  const auto views = build_dist2_views(g, p);
  // The one place the distance-2 contract lives: NEW sends, local-id order.
  DistColoringOptions d2 = options;
  d2.comm_mode = CommMode::kCustomizedNeighbors;
  d2.local_order = LocalOrder::kNatural;
  return color_speculative<Dist2RankView>(views, g.num_vertices(), d2);
}

}  // namespace pmc
