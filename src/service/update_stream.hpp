// Dynamic-graph update streams for service mode.
//
// Service mode (DESIGN.md §8) keeps a graph alive across a stream of edge
// updates and incrementally repairs the matching and coloring after every
// batch. This header provides the three stream-side pieces:
//
//   * EdgeUpdate / UpdateOp — one insert / delete / reweight operation;
//   * DynamicGraph — a pmc::Graph plus an ordered overlay of pending edge
//     changes; updates land in the overlay and snapshot() folds it into the
//     CSR in one row-merge pass;
//   * UpdateStreamGenerator — a seeded, replayable random stream of valid
//     updates against the evolving graph;
//   * JSONL serialization — write_update_log / read_update_log, so a stream
//     can be captured once and replayed bit-identically (mtx_tool
//     --update-log / --update-replay).
//
// Every generated stream is deterministic given its seed, and a written log
// round-trips exactly (weights are printed with 17 significant digits).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace pmc {

/// Kind of one edge update.
enum class UpdateOp : std::uint8_t {
  kInsert = 1,    ///< Add edge (u, v) with weight w; (u, v) must be absent.
  kDelete = 2,    ///< Remove edge (u, v); it must be present.
  kReweight = 3,  ///< Set the weight of existing edge (u, v) to w.
};

[[nodiscard]] const char* to_string(UpdateOp op);

/// One edge update. Endpoints are stored normalized (u < v).
struct EdgeUpdate {
  UpdateOp op = UpdateOp::kInsert;
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;
  Weight w = Weight{1};  ///< Ignored for kDelete.

  [[nodiscard]] bool operator==(const EdgeUpdate&) const = default;
};

/// Mutable undirected weighted graph: a CSR Graph plus a small ordered
/// overlay of the edge changes applied since the last snapshot() (a new
/// weight, or "deleted"), keyed by normalized endpoint pair. Queries and
/// update validation read the overlay first, then the CSR. The vertex set is
/// fixed at construction; only edges change. An unweighted initial graph is
/// held with every weight 1.
class DynamicGraph {
 public:
  explicit DynamicGraph(const Graph& initial);

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return graph_.num_vertices();
  }
  [[nodiscard]] EdgeId num_edges() const noexcept { return m_; }
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;
  /// Weight of existing edge (u, v); throws if absent.
  [[nodiscard]] Weight edge_weight(VertexId u, VertexId v) const;

  /// Applies one update; throws pmc::Error when the update is invalid
  /// against the current edge set (inserting a present edge, deleting or
  /// reweighting an absent one, self-loop, out-of-range endpoint). A failed
  /// update changes nothing.
  void apply(const EdgeUpdate& update);

  /// Folds the pending updates into the CSR (one merge pass over the rows,
  /// no global sort) and returns it. Views into the returned graph stay
  /// valid until the next snapshot() that has updates to fold.
  [[nodiscard]] const Graph& snapshot();

  /// The CSR as of the last snapshot(); pending updates are not in it.
  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }

 private:
  /// Normalized endpoint pair (first < second).
  using EdgeKey = std::pair<VertexId, VertexId>;

  /// Current weight of (u, v), or nullopt when the edge is absent. Both
  /// endpoints must be in range.
  [[nodiscard]] std::optional<Weight> find_weight(VertexId u, VertexId v) const;
  void require_valid_endpoints(const EdgeUpdate& update) const;

  Graph graph_;
  EdgeId m_ = 0;
  std::map<EdgeKey, std::optional<Weight>> pending_;
};

/// Configuration of the random update stream.
struct UpdateStreamConfig {
  /// Operation mix; the remainder (1 - insert - remove) is reweights.
  double insert_fraction = 0.4;
  double delete_fraction = 0.3;
  /// Weight distribution for inserted / reweighted edges.
  WeightKind weights = WeightKind::kUniformRandom;
  std::uint64_t seed = 0;
};

/// Seeded generator of valid update streams against an evolving graph.
///
/// The generator keeps its own edge-set mirror (it does not mutate the
/// DynamicGraph a service holds), so the produced stream is a pure function
/// of (initial graph, config). Operations that are impossible in the current
/// state degrade deterministically: delete/reweight on an edgeless graph
/// becomes an insert, insert into a complete graph becomes a delete.
class UpdateStreamGenerator {
 public:
  UpdateStreamGenerator(const Graph& initial, UpdateStreamConfig config);

  /// Produces the next update (already applied to the internal mirror).
  [[nodiscard]] EdgeUpdate next();

  /// Produces the next `count` updates.
  [[nodiscard]] std::vector<EdgeUpdate> next_batch(std::int64_t count);

 private:
  [[nodiscard]] EdgeUpdate make_insert();
  [[nodiscard]] EdgeUpdate make_delete();
  [[nodiscard]] EdgeUpdate make_reweight();
  [[nodiscard]] Weight draw_weight();
  void apply_to_mirror(const EdgeUpdate& update);

  UpdateStreamConfig config_;
  Rng rng_;
  VertexId n_;
  /// Present edges as normalized (u, v) pairs, with an index map enabling
  /// O(log m) uniform sampling and swap-pop removal.
  std::vector<std::pair<VertexId, VertexId>> edges_;
  std::map<std::pair<VertexId, VertexId>, std::size_t> edge_index_;
};

/// Writes one update per line as JSON ({"op":"insert","u":1,"v":2,"w":0.5});
/// weights carry 17 significant digits so the log replays bit-identically.
void write_update_log(std::ostream& out, const std::vector<EdgeUpdate>& updates);
void write_update_log(const std::string& path,
                      const std::vector<EdgeUpdate>& updates);

/// Reads a JSONL update log written by write_update_log. Throws pmc::Error
/// on malformed lines (strict field set, no trailing garbage).
[[nodiscard]] std::vector<EdgeUpdate> read_update_log(std::istream& in);
[[nodiscard]] std::vector<EdgeUpdate> read_update_log(const std::string& path);

}  // namespace pmc
