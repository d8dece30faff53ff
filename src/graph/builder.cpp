#include "graph/builder.hpp"

#include <algorithm>
#include <tuple>

#include "support/error.hpp"

namespace pmc {

GraphBuilder::GraphBuilder(VertexId num_vertices, bool weighted,
                           DuplicatePolicy policy)
    : num_vertices_(num_vertices), weighted_(weighted), policy_(policy) {
  PMC_REQUIRE(num_vertices >= 0, "negative vertex count " << num_vertices);
}

void GraphBuilder::add_edge(VertexId u, VertexId v, Weight w) {
  PMC_REQUIRE(u >= 0 && u < num_vertices_,
              "vertex " << u << " out of range [0, " << num_vertices_ << ")");
  PMC_REQUIRE(v >= 0 && v < num_vertices_,
              "vertex " << v << " out of range [0, " << num_vertices_ << ")");
  if (u == v) return;  // drop self-loops
  if (u > v) std::swap(u, v);
  edges_.push_back(RawEdge{u, v, w});
}

Graph GraphBuilder::build() && {
  std::sort(edges_.begin(), edges_.end(),
            [](const RawEdge& a, const RawEdge& b) {
              return std::tie(a.u, a.v) < std::tie(b.u, b.v);
            });

  // Deduplicate in place according to the policy.
  std::size_t out = 0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (out > 0 && edges_[out - 1].u == edges_[i].u &&
        edges_[out - 1].v == edges_[i].v) {
      switch (policy_) {
        case DuplicatePolicy::kError:
          PMC_FAIL("duplicate edge (" << edges_[i].u << ", " << edges_[i].v
                                      << ")");
        case DuplicatePolicy::kKeepFirst:
          break;
        case DuplicatePolicy::kKeepMax:
          edges_[out - 1].w = std::max(edges_[out - 1].w, edges_[i].w);
          break;
      }
      continue;
    }
    edges_[out++] = edges_[i];
  }
  edges_.resize(out);

  // Count degrees (both directions).
  std::vector<EdgeId> offsets(static_cast<std::size_t>(num_vertices_) + 1, 0);
  for (const RawEdge& e : edges_) {
    ++offsets[static_cast<std::size_t>(e.u) + 1];
    ++offsets[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }

  std::vector<VertexId> adj(static_cast<std::size_t>(offsets.back()));
  std::vector<Weight> weights;
  if (weighted_) weights.resize(adj.size());

  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  // Edges are sorted by (u, v); writing u->v then v->u in this order leaves
  // every adjacency list sorted except the v->u back-arcs, so sort each list
  // afterwards. To keep weights aligned we sort index pairs per vertex.
  for (const RawEdge& e : edges_) {
    const auto cu = static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.u)]++);
    adj[cu] = e.v;
    if (weighted_) weights[cu] = e.w;
    const auto cv = static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.v)]++);
    adj[cv] = e.u;
    if (weighted_) weights[cv] = e.w;
  }

  std::vector<std::pair<VertexId, Weight>> tmp;  // one row's sort buffer
  for (VertexId v = 0; v < num_vertices_; ++v) {
    const auto begin = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v) + 1]);
    if (weighted_) {
      // Sort (neighbor, weight) pairs together.
      tmp.clear();
      for (std::size_t i = begin; i < end; ++i) {
        tmp.emplace_back(adj[i], weights[i]);
      }
      std::sort(tmp.begin(), tmp.end());
      for (std::size_t i = begin; i < end; ++i) {
        adj[i] = tmp[i - begin].first;
        weights[i] = tmp[i - begin].second;
      }
    } else {
      std::sort(adj.begin() + static_cast<std::ptrdiff_t>(begin),
                adj.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }

  edges_.clear();
  edges_.shrink_to_fit();
  return Graph(std::move(offsets), std::move(adj), std::move(weights));
}

Graph graph_from_edges(
    VertexId num_vertices,
    const std::vector<std::tuple<VertexId, VertexId, Weight>>& edges,
    DuplicatePolicy policy) {
  GraphBuilder builder(num_vertices, /*weighted=*/true, policy);
  for (const auto& [u, v, w] : edges) {
    builder.add_edge(u, v, w);
  }
  return std::move(builder).build();
}

Graph graph_from_edges(VertexId num_vertices,
                       const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder builder(num_vertices, /*weighted=*/false);
  for (const auto& [u, v] : edges) {
    builder.add_edge(u, v);
  }
  return std::move(builder).build();
}

}  // namespace pmc
