// Native distributed distance-2 coloring.
//
// The paper's introduction motivates distance-2 coloring (sparse Jacobian /
// Hessian compression); Zoltan — where the paper's coloring code lives —
// ships a distributed distance-2 colorer built on the same speculative
// framework. This module reproduces that design *natively*: instead of
// materializing the square graph (square_graph() stays as the reference),
// each rank builds a two-hop view of its share, and the distance-1 round
// loop (color_speculative in coloring/parallel.cpp) runs over it:
//
//   * adjacency is stored for owned vertices and their distance-1 ghosts
//     (every neighbor of a distance-1 ghost is within distance 2 of an
//     owned vertex, so all targets are in the view);
//   * a vertex's color update must reach every rank owning a vertex within
//     distance <= 2, so its boundary slots span two hops;
//   * the first-fit walk and the conflict scan cover N(v) and N(N(v)), and
//     a conflict recolors the endpoint with the smaller random priority,
//     exactly like the distance-1 framework.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coloring/parallel.hpp"
#include "graph/csr_graph.hpp"
#include "partition/partition.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/local_index.hpp"

namespace pmc {

/// One rank's two-hop view of a partitioned graph: the distance-2
/// neighbourhood the speculative round loop colors over, read through the
/// same accessors as LocalGraph. Local ids: [0, num_owned()) owned, then
/// distance-1 ghosts [num_owned(), num_adjacent()), then distance-2 ghosts.
/// Adjacency is stored for local ids < num_adjacent().
class Dist2RankView {
 public:
  [[nodiscard]] VertexId num_owned() const noexcept { return num_owned_; }
  /// Owned vertices plus distance-1 ghosts.
  [[nodiscard]] VertexId num_adjacent() const noexcept {
    return num_adjacent_;
  }
  [[nodiscard]] VertexId num_local() const noexcept {
    return static_cast<VertexId>(global_ids_.size());
  }
  [[nodiscard]] VertexId global_id(VertexId local) const {
    return global_ids_[static_cast<std::size_t>(local)];
  }
  /// Local id of a global vertex; kNoVertex when outside the view.
  [[nodiscard]] VertexId local_id(VertexId global) const {
    return index_.find(global_ids_, global);
  }
  /// Neighbors (as local ids) of a vertex with local id < num_adjacent().
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId local) const {
    const auto b = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(local)]);
    const auto e = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(local) + 1]);
    return {adj_.data() + b, e - b};
  }

  /// Every rank owning a vertex within distance <= 2 of an owned vertex
  /// (sorted, unique): the view's staging set.
  [[nodiscard]] const std::vector<Rank>& neighbor_ranks() const noexcept {
    return neighbor_ranks_;
  }
  /// The sorted, unique slots in neighbor_ranks() of the ranks owning a
  /// vertex within distance <= 2 of owned vertex `local`. Empty for a
  /// distance-2-interior vertex.
  [[nodiscard]] std::span<const Slot> boundary_slots(VertexId local) const {
    const auto b = boundary_slot_offsets_[static_cast<std::size_t>(local)];
    const auto e = boundary_slot_offsets_[static_cast<std::size_t>(local) + 1];
    return {boundary_slots_.data() + b, e - b};
  }
  /// True iff another rank owns a vertex within distance <= 2 of `local`.
  [[nodiscard]] bool is_boundary(VertexId local) const {
    return !boundary_slots(local).empty();
  }

 private:
  friend std::vector<Dist2RankView> build_dist2_views(const Graph& g,
                                                      const Partition& p);

  VertexId num_owned_ = 0;
  VertexId num_adjacent_ = 0;
  std::vector<VertexId> global_ids_;
  LocalIndex index_;  // global -> local over global_ids_
  std::vector<EdgeId> offsets_;  // over [0, num_adjacent_)
  std::vector<VertexId> adj_;    // local ids (all within the view)
  std::vector<Rank> neighbor_ranks_;
  std::vector<std::uint32_t> boundary_slot_offsets_;  // over owned vertices
  std::vector<Slot> boundary_slots_;
};

/// Builds all ranks' two-hop views.
[[nodiscard]] std::vector<Dist2RankView> build_dist2_views(const Graph& g,
                                                           const Partition& p);

/// Runs the speculative distance-2 coloring on the two-hop views. It always
/// sends neighbor-customized (the paper's NEW mode) and colors each rank's
/// vertices in local-id order, the schedule its pinned results were
/// recorded with: options.comm_mode and options.local_order are ignored.
/// Every other option applies as in color_distributed().
[[nodiscard]] DistColoringResult color_distance2_distributed_native(
    const Graph& g, const Partition& p,
    const DistColoringOptions& options = DistColoringOptions::improved());

}  // namespace pmc
