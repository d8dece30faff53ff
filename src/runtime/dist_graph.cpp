#include "runtime/dist_graph.hpp"

#include <algorithm>
#include <limits>

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
    PMC_CHECK(lg.offsets_.back() <= std::numeric_limits<std::uint32_t>::max(),
              "rank " << lg.rank_ << " holds 2^32 or more arcs");
  }
  for (LocalGraph& lg : dist.locals_) {
    lg.adj_.resize(static_cast<std::size_t>(lg.offsets_.back()));
    if (g.has_weights()) lg.weights_.resize(lg.adj_.size());
  }

  // Pass 3, rank by rank: fill the adjacency, creating ghosts in first-visit
  // order. While a rank is filled, slot[u] of each of its ghosts u holds
  // kGhostBit | u's local id there; the owner-side value it displaced is
  // kept in `displaced` and restored before the next rank. ghost_slot_
  // holds each ghost's owning rank until pass 4 turns it into a slot.
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
            lg.ghost_slot_.push_back(static_cast<Slot>(ru));
          }
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

  // Pass 4, rank by rank: the global -> local index, the neighbour ranks
  // and the boundary topology, each allocated at its final size. The
  // scratch array is released first, so they can reuse its pages.
  std::vector<std::uint32_t>().swap(slot);
  std::vector<Rank> ranks;
  std::vector<Slot> slot_of_rank(static_cast<std::size_t>(parts));
  std::vector<Slot> staged;
  std::vector<std::uint32_t> cursor;
  for (LocalGraph& lg : dist.locals_) {
    lg.index_.build(lg.global_ids_);
    ranks.assign(lg.ghost_slot_.begin(), lg.ghost_slot_.end());
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    lg.neighbor_ranks_.assign(ranks.begin(), ranks.end());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      slot_of_rank[static_cast<std::size_t>(ranks[i])] = static_cast<Slot>(i);
    }
    for (Slot& s : lg.ghost_slot_) s = slot_of_rank[s];

    // Each owned vertex's sorted, unique ghost-owner slots, staged in one
    // reused buffer, and each ghost's arc count.
    const auto owned = static_cast<std::size_t>(lg.num_owned_);
    const auto ghosts = lg.ghost_slot_.size();
    lg.boundary_slot_offsets_.assign(owned + 1, 0);
    lg.ghost_arc_offsets_.assign(ghosts + 1, 0);
    staged.clear();
    for (std::size_t lv = 0; lv < owned; ++lv) {
      const auto first = static_cast<std::ptrdiff_t>(staged.size());
      for (EdgeId a = lg.offsets_[lv]; a < lg.offsets_[lv + 1]; ++a) {
        const auto t = static_cast<std::size_t>(lg.arc_target(a));
        if (t < owned) continue;
        staged.push_back(lg.ghost_slot_[t - owned]);
        ++lg.ghost_arc_offsets_[t - owned + 1];
      }
      std::sort(staged.begin() + first, staged.end());
      staged.erase(std::unique(staged.begin() + first, staged.end()),
                   staged.end());
      lg.boundary_slot_offsets_[lv + 1] =
          static_cast<std::uint32_t>(staged.size());
    }
    lg.boundary_slots_.assign(staged.begin(), staged.end());

    // Each ghost's incident (owned vertex, arc) pairs, in owned-vertex then
    // arc order.
    auto& offsets = lg.ghost_arc_offsets_;
    for (std::size_t i = 0; i < ghosts; ++i) offsets[i + 1] += offsets[i];
    lg.ghost_arcs_.resize(offsets.back());
    cursor.assign(offsets.begin(), offsets.end() - 1);
    for (std::size_t lv = 0; lv < owned; ++lv) {
      for (EdgeId a = lg.offsets_[lv]; a < lg.offsets_[lv + 1]; ++a) {
        const auto t = static_cast<std::size_t>(lg.arc_target(a));
        if (t < owned) continue;
        lg.ghost_arcs_[cursor[t - owned]++] = {static_cast<std::uint32_t>(lv),
                                               static_cast<std::uint32_t>(a)};
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
  std::vector<Slot> slots;
  for (Rank r = 0; r < num_ranks(); ++r) {
    const LocalGraph& lg = local(r);
    owned_total += lg.num_owned();
    const auto& nbrs = lg.neighbor_ranks();
    EdgeId cross_arcs = 0;
    for (VertexId lv = 0; lv < lg.num_owned(); ++lv) {
      arcs_total += lg.degree(lv);
      slots.clear();
      for (VertexId lu : lg.neighbors(lv)) {
        if (lg.is_ghost(lu)) slots.push_back(lg.ghost_slot(lu));
      }
      cross_arcs += static_cast<EdgeId>(slots.size());
      std::sort(slots.begin(), slots.end());
      slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
      const auto bs = lg.boundary_slots(lv);
      PMC_CHECK(std::equal(bs.begin(), bs.end(), slots.begin(), slots.end()),
                "boundary slots mismatch at rank " << r << " local " << lv);
      PMC_CHECK(p.owner(lg.global_id(lv)) == r,
                "ownership mismatch at rank " << r << " local " << lv);
    }
    PMC_CHECK(cross_arcs == lg.num_cross_edges(),
              "ghost arcs do not cover the cross arcs at rank " << r);
    cross_total += cross_arcs;
    for (VertexId l = 0; l < lg.num_local(); ++l) {
      PMC_CHECK(lg.local_id(lg.global_id(l)) == l,
                "global -> local index misses local " << l << " at rank " << r);
    }
    for (VertexId gi = lg.num_owned(); gi < lg.num_local(); ++gi) {
      PMC_CHECK(lg.ghost_slot(gi) < nbrs.size(),
                "ghost slot out of range at rank " << r);
      // Each ghost arc reaches the ghost, in ascending arc order; with the
      // count check above they are exactly the arcs into the ghost.
      const auto arcs = lg.ghost_arcs(gi);
      for (std::size_t i = 0; i < arcs.size(); ++i) {
        const auto [v, a] = arcs[i];
        PMC_CHECK(v < lg.num_owned() && lg.offset_begin(v) <= a &&
                      a < lg.offset_end(v) && lg.arc_target(a) == gi &&
                      (i == 0 || arcs[i - 1].arc < a),
                  "ghost arc (" << v << ", " << a << ") of ghost " << gi
                                << " misplaced at rank " << r);
      }
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
