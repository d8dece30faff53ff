// Distributed view of a partitioned graph: one LocalGraph per rank.
//
// Mirrors the paper's data distribution: "A boundary vertex u is stored on
// its corresponding processor p(u) as well as on every other processor p(v)
// such that (u, v) is a cross edge. On processor p(v) vertex u represents a
// ghost vertex."
//
// Per rank we store:
//   * the owned vertices (local ids [0, num_owned)), with full adjacency in
//     CSR form referring to local ids;
//   * ghost vertices (local ids [num_owned, num_local)) with their global id
//     and owning rank but no adjacency;
//   * the sorted list of neighboring ranks, and the boundary topology every
//     distributed algorithm sends by: each ghost's neighbour slot (its
//     owner's index in that list), each owned vertex's sorted neighbour
//     slots (empty iff the vertex is interior), and each ghost's incident
//     (owned vertex, arc) pairs — flat, 32-bit, derived once here;
//   * the global -> local index (runtime/local_index.hpp), sized once, at
//     build time, to the rank's local vertex count plus a third.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "partition/partition.hpp"
#include "runtime/local_index.hpp"
#include "support/error.hpp"
#include "support/types.hpp"

namespace pmc {

/// A neighbour slot: an index into LocalGraph::neighbor_ranks(), and so into
/// any per-neighbour staging built over it. kNoSlot names none.
using Slot = std::uint32_t;
inline constexpr Slot kNoSlot = std::numeric_limits<Slot>::max();

/// One rank's share of a distributed graph.
class LocalGraph {
 public:
  /// One arc from an owned vertex to a ghost.
  struct GhostArc {
    std::uint32_t vertex;  ///< The owned vertex (local id).
    std::uint32_t arc;     ///< The arc's index (see arc_target()).
  };

  [[nodiscard]] Rank rank() const noexcept { return rank_; }
  [[nodiscard]] VertexId num_owned() const noexcept { return num_owned_; }
  [[nodiscard]] VertexId num_ghosts() const noexcept {
    return static_cast<VertexId>(global_ids_.size()) - num_owned_;
  }
  [[nodiscard]] VertexId num_local() const noexcept {
    return static_cast<VertexId>(global_ids_.size());
  }

  [[nodiscard]] bool is_ghost(VertexId local) const noexcept {
    return local >= num_owned_;
  }

  [[nodiscard]] VertexId global_id(VertexId local) const {
    return global_ids_[static_cast<std::size_t>(local)];
  }

  /// Local id of a global vertex; kNoVertex when not present on this rank.
  [[nodiscard]] VertexId local_id(VertexId global) const {
    return index_.find(global_ids_, global);
  }

  /// Slot of a local ghost vertex's owner in neighbor_ranks().
  [[nodiscard]] Slot ghost_slot(VertexId local) const {
    return ghost_slot_[static_cast<std::size_t>(local - num_owned_)];
  }

  /// Owning rank of a local ghost vertex.
  [[nodiscard]] Rank ghost_owner(VertexId local) const {
    return neighbor_ranks_[ghost_slot(local)];
  }

  /// The sorted, unique slots of the ranks owning owned vertex `local`'s
  /// ghost neighbors: where its boundary announcements go. Empty for an
  /// interior vertex.
  [[nodiscard]] std::span<const Slot> boundary_slots(VertexId local) const {
    const auto b = boundary_slot_offsets_[static_cast<std::size_t>(local)];
    const auto e = boundary_slot_offsets_[static_cast<std::size_t>(local) + 1];
    return {boundary_slots_.data() + b, e - b};
  }

  /// True iff owned vertex `local` has a neighbor on another rank.
  [[nodiscard]] bool is_boundary(VertexId local) const {
    return !boundary_slots(local).empty();
  }

  /// The (owned vertex, arc) pairs reaching ghost `local`, ordered by owned
  /// vertex, then arc.
  [[nodiscard]] std::span<const GhostArc> ghost_arcs(VertexId local) const {
    const auto g = static_cast<std::size_t>(local - num_owned_);
    const auto b = ghost_arc_offsets_[g];
    return {ghost_arcs_.data() + b, ghost_arc_offsets_[g + 1] - b};
  }

  [[nodiscard]] EdgeId degree(VertexId local) const {
    return offsets_[static_cast<std::size_t>(local) + 1] -
           offsets_[static_cast<std::size_t>(local)];
  }

  /// Neighbors (as local ids) of an owned vertex.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId local) const {
    const auto b = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(local)]);
    const auto e = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(local) + 1]);
    return {adj_.data() + b, e - b};
  }

  /// Edge weights aligned with neighbors(local).
  [[nodiscard]] std::span<const Weight> weights(VertexId local) const {
    const auto b = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(local)]);
    const auto e = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(local) + 1]);
    return {weights_.data() + b, e - b};
  }

  [[nodiscard]] EdgeId offset_begin(VertexId local) const {
    return offsets_[static_cast<std::size_t>(local)];
  }
  [[nodiscard]] EdgeId offset_end(VertexId local) const {
    return offsets_[static_cast<std::size_t>(local) + 1];
  }
  [[nodiscard]] VertexId arc_target(EdgeId e) const {
    return adj_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] Weight arc_weight(EdgeId e) const {
    return weights_.empty() ? Weight{1} : weights_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] bool has_weights() const noexcept { return !weights_.empty(); }

  /// Ranks owning at least one ghost (sorted, unique).
  [[nodiscard]] const std::vector<Rank>& neighbor_ranks() const noexcept {
    return neighbor_ranks_;
  }

  /// Number of cross edges incident to this rank's owned vertices.
  [[nodiscard]] EdgeId num_cross_edges() const noexcept {
    return static_cast<EdgeId>(ghost_arcs_.size());
  }

 private:
  friend class DistGraph;

  Rank rank_ = 0;
  VertexId num_owned_ = 0;
  std::vector<VertexId> global_ids_;
  LocalIndex index_;
  std::vector<EdgeId> offsets_;   // over owned vertices only
  std::vector<VertexId> adj_;     // local ids (owned or ghost)
  std::vector<Weight> weights_;
  std::vector<Rank> neighbor_ranks_;
  std::vector<Slot> ghost_slot_;  // by ghost index (local id - num_owned)
  std::vector<std::uint32_t> boundary_slot_offsets_;  // over owned vertices
  std::vector<Slot> boundary_slots_;
  std::vector<std::uint32_t> ghost_arc_offsets_;  // over ghosts
  std::vector<GhostArc> ghost_arcs_;
};

/// Values a rank received about its ghosts from their owners (the
/// verifiers' mates and colors), by ghost index (local id - num_owned). A
/// receipt mark sits beside each value, since any value, kNoVertex
/// included, may legitimately arrive.
template <typename T>
class GhostValues {
 public:
  explicit GhostValues(const LocalGraph& lg)
      : lg_(lg),
        values_(static_cast<std::size_t>(lg.num_ghosts())),
        received_(static_cast<std::size_t>(lg.num_ghosts()), false) {}

  /// Records the value received for global vertex `global`, which must be a
  /// ghost on this rank whose value has not arrived yet: an exchange that
  /// delivers a ghost twice fails here.
  void store(VertexId global, T value) {
    const VertexId local = lg_.local_id(global);
    PMC_CHECK(local != kNoVertex && lg_.is_ghost(local),
              "record for vertex " << global << " names no ghost of rank "
                                   << lg_.rank());
    const auto i = static_cast<std::size_t>(local - lg_.num_owned());
    PMC_CHECK(!received_[i], "boundary exchange delivered ghost "
                                 << global << " twice to rank " << lg_.rank());
    values_[i] = value;
    received_[i] = true;
  }

  /// The value received for ghost `local`; it must have arrived.
  [[nodiscard]] T at(VertexId local) const {
    const auto i = static_cast<std::size_t>(local - lg_.num_owned());
    PMC_CHECK(received_[i],
              "boundary exchange missed ghost " << lg_.global_id(local));
    return values_[i];
  }

 private:
  const LocalGraph& lg_;
  std::vector<T> values_;
  std::vector<bool> received_;
};

/// The complete distributed graph: all ranks' local views.
class DistGraph {
 public:
  /// Splits `g` according to `p`. The graph and partition must agree on the
  /// vertex count. Works rank by rank in two linear passes over `g`, with
  /// one transient n-sized array (each vertex's local id on its owner; while
  /// a rank is built, its ghosts' entries hold their ids there instead) and
  /// a list, sized by that rank's ghosts, of the owner-side ids they
  /// displaced; ghosts get local ids in the order the owned vertices'
  /// adjacency first reaches them.
  static DistGraph build(const Graph& g, const Partition& p);

  [[nodiscard]] Rank num_ranks() const noexcept {
    return static_cast<Rank>(locals_.size());
  }

  [[nodiscard]] const LocalGraph& local(Rank r) const {
    return locals_[static_cast<std::size_t>(r)];
  }

  /// Every rank's local view, indexed by rank.
  [[nodiscard]] std::span<const LocalGraph> locals() const noexcept {
    return locals_;
  }

  [[nodiscard]] VertexId num_global_vertices() const noexcept {
    return num_global_vertices_;
  }

  /// Re-checks the distribution invariants (ghost symmetry, edge
  /// conservation, ownership consistency, the global -> local index, the
  /// ghost slots, boundary slots and ghost arcs) against the original
  /// inputs.
  void validate(const Graph& g, const Partition& p) const;

 private:
  std::vector<LocalGraph> locals_;
  VertexId num_global_vertices_ = 0;
};

}  // namespace pmc
