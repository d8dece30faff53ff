#include "runtime/dist_graph.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace pmc {

DistGraph DistGraph::build(const Graph& g, const Partition& p) {
  PMC_REQUIRE(p.num_vertices() == g.num_vertices(),
              "graph/partition size mismatch: " << g.num_vertices() << " vs "
                                                << p.num_vertices());
  DistGraph dist;
  const VertexId n = g.num_vertices();
  dist.num_global_vertices_ = n;
  const Rank parts = p.num_parts();
  dist.locals_.resize(static_cast<std::size_t>(parts));

  // Pass 1: assign owned local ids in global-id order per rank. slot[v]
  // holds v's local id on its owner.
  std::vector<std::uint32_t> slot(static_cast<std::size_t>(n));
  for (Rank r = 0; r < parts; ++r) {
    dist.locals_[static_cast<std::size_t>(r)].rank_ = r;
  }
  for (VertexId v = 0; v < n; ++v) {
    auto& lg = dist.locals_[static_cast<std::size_t>(p.owner(v))];
    slot[static_cast<std::size_t>(v)] =
        static_cast<std::uint32_t>(lg.global_ids_.size());
    lg.global_ids_.push_back(v);
  }

  // Pass 2: per-rank CSR arrays over the owned vertices. Arrays are
  // allocated kind by kind across the ranks, and pass 4's at their final
  // size: allocating them rank by rank fragmented the heap enough to raise
  // pmcbench circuit-highcut's peak RSS by 6%, though fewer bytes were live.
  for (LocalGraph& lg : dist.locals_) {
    lg.num_owned_ = static_cast<VertexId>(lg.global_ids_.size());
    const auto owned = static_cast<std::size_t>(lg.num_owned_);
    lg.offsets_.assign(owned + 1, 0);
    for (std::size_t lv = 0; lv < owned; ++lv) {
      lg.offsets_[lv + 1] = lg.offsets_[lv] + g.degree(lg.global_ids_[lv]);
    }
    lg.is_boundary_.assign(owned, false);
  }
  for (LocalGraph& lg : dist.locals_) {
    lg.adj_.resize(static_cast<std::size_t>(lg.offsets_.back()));
    if (g.has_weights()) lg.weights_.resize(lg.adj_.size());
  }

  // Pass 3, rank by rank: fill the adjacency, creating ghosts in first-visit
  // order. While a rank is filled, slot[u] of each of its ghosts u holds
  // kGhostBit | u's local id there; the owner-side value it displaced is
  // kept in `displaced` and restored before the next rank.
  constexpr std::uint32_t kGhostBit = std::uint32_t{1} << 31;
  std::vector<std::uint32_t> displaced;
  for (LocalGraph& lg : dist.locals_) {
    const auto owned = static_cast<std::size_t>(lg.num_owned_);
    for (std::size_t lv = 0; lv < owned; ++lv) {
      const VertexId v = lg.global_ids_[lv];
      auto cursor = static_cast<std::size_t>(lg.offsets_[lv]);
      const auto nbrs = g.neighbors(v);
      const auto ws = g.weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId u = nbrs[i];
        const Rank ru = p.owner(u);
        std::uint32_t& s = slot[static_cast<std::size_t>(u)];
        if (ru != lg.rank_) {
          if ((s & kGhostBit) == 0) {
            displaced.push_back(s);
            s = kGhostBit | static_cast<std::uint32_t>(lg.global_ids_.size());
            lg.global_ids_.push_back(u);
            lg.ghost_owner_.push_back(ru);
          }
          lg.is_boundary_[lv] = true;
          ++lg.cross_edges_;
        }
        lg.adj_[cursor] = static_cast<VertexId>(s & ~kGhostBit);
        if (g.has_weights()) lg.weights_[cursor] = ws[i];
        ++cursor;
      }
    }
    for (std::size_t i = 0; i < displaced.size(); ++i) {
      slot[static_cast<std::size_t>(lg.global_ids_[owned + i])] = displaced[i];
    }
    displaced.clear();
    PMC_CHECK(lg.global_ids_.size() <= kGhostBit,
              "rank " << lg.rank_ << " holds more than 2^31 vertices");
  }

  // Pass 4: the global -> local index and the derived structures, each
  // allocated at its final size. The scratch array is released first, so
  // they can reuse its pages.
  std::vector<std::uint32_t>().swap(slot);
  std::vector<Rank> ranks;
  for (LocalGraph& lg : dist.locals_) {
    lg.index_.build(lg.global_ids_);
    ranks.assign(lg.ghost_owner_.begin(), lg.ghost_owner_.end());
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    lg.neighbor_ranks_.assign(ranks.begin(), ranks.end());
    const auto boundary = static_cast<std::size_t>(
        std::count(lg.is_boundary_.begin(), lg.is_boundary_.end(), true));
    lg.boundary_.reserve(boundary);
    lg.interior_.reserve(lg.is_boundary_.size() - boundary);
    for (VertexId lv = 0; lv < lg.num_owned_; ++lv) {
      if (lg.is_boundary_[static_cast<std::size_t>(lv)]) {
        lg.boundary_.push_back(lv);
      } else {
        lg.interior_.push_back(lv);
      }
    }
  }
  return dist;
}

void DistGraph::validate(const Graph& g, const Partition& p) const {
  PMC_CHECK(num_global_vertices_ == g.num_vertices(), "vertex count drifted");
  VertexId owned_total = 0;
  EdgeId arcs_total = 0;
  EdgeId cross_total = 0;
  for (Rank r = 0; r < num_ranks(); ++r) {
    const LocalGraph& lg = local(r);
    owned_total += lg.num_owned();
    for (VertexId lv = 0; lv < lg.num_owned(); ++lv) {
      arcs_total += lg.degree(lv);
      const bool flagged = lg.is_boundary(lv);
      bool has_cross = false;
      for (VertexId lu : lg.neighbors(lv)) {
        if (lg.is_ghost(lu)) has_cross = true;
      }
      PMC_CHECK(flagged == has_cross,
                "boundary flag mismatch at rank " << r << " local " << lv);
      PMC_CHECK(p.owner(lg.global_id(lv)) == r,
                "ownership mismatch at rank " << r << " local " << lv);
    }
    cross_total += lg.num_cross_edges();
    for (VertexId l = 0; l < lg.num_local(); ++l) {
      PMC_CHECK(lg.local_id(lg.global_id(l)) == l,
                "global -> local index misses local " << l << " at rank " << r);
    }
    for (VertexId gi = lg.num_owned(); gi < lg.num_local(); ++gi) {
      const Rank owner = lg.ghost_owner(gi);
      PMC_CHECK(owner != r, "ghost owned by its own rank");
      PMC_CHECK(p.owner(lg.global_id(gi)) == owner,
                "ghost owner mismatch at rank " << r);
      // Symmetry: the owner rank must know this rank as a neighbor.
      const auto& back = local(owner).neighbor_ranks();
      PMC_CHECK(std::binary_search(back.begin(), back.end(), r),
                "ghost symmetry broken between ranks " << r << " and "
                                                       << owner);
    }
  }
  PMC_CHECK(owned_total == g.num_vertices(),
            "owned vertices " << owned_total << " != " << g.num_vertices());
  PMC_CHECK(arcs_total == g.num_arcs(),
            "arc conservation failed: " << arcs_total << " != "
                                        << g.num_arcs());
  PMC_CHECK(cross_total % 2 == 0, "cross arcs must pair up");
}

}  // namespace pmc
