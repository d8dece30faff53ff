#include "graph/builder.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

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

namespace {

/// Stably sorts one weighted row by neighbor id, weights aligned: arcs to
/// the same neighbor keep their insertion order, which the duplicate
/// policies read. Insertion sort up to 32 arcs, std::stable_sort over
/// (neighbor, weight) pairs above.
void sort_row(VertexId* adj, Weight* w, std::size_t len,
              std::vector<std::pair<VertexId, Weight>>& tmp) {
  if (len <= 32) {
    for (std::size_t i = 1; i < len; ++i) {
      const VertexId a = adj[i];
      const Weight x = w[i];
      std::size_t j = i;
      for (; j > 0 && adj[j - 1] > a; --j) {
        adj[j] = adj[j - 1];
        w[j] = w[j - 1];
      }
      adj[j] = a;
      w[j] = x;
    }
    return;
  }
  tmp.clear();
  for (std::size_t i = 0; i < len; ++i) tmp.emplace_back(adj[i], w[i]);
  std::stable_sort(tmp.begin(), tmp.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  for (std::size_t i = 0; i < len; ++i) {
    adj[i] = tmp[i].first;
    w[i] = tmp[i].second;
  }
}

}  // namespace

Graph GraphBuilder::build() && {
  // Bucket both arcs of every edge by source, in insertion order.
  const auto n = static_cast<std::size_t>(num_vertices_);
  std::vector<EdgeId> offsets(n + 1, 0);
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
  {
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (const RawEdge& e : edges_) {
      const auto cu =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.u)]++);
      const auto cv =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.v)]++);
      adj[cu] = e.v;
      adj[cv] = e.u;
      if (weighted_) weights[cu] = weights[cv] = e.w;
    }
  }
  edges_.clear();
  edges_.shrink_to_fit();

  // Sort each row stably, then fold repeated neighbors by the policy while
  // compacting the rows in place. Both arcs of an edge see the same
  // insertions in the same order, so the result stays symmetric.
  std::vector<std::pair<VertexId, Weight>> tmp;  // one row's sort buffer
  std::size_t out = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto begin = static_cast<std::size_t>(offsets[v]);
    const auto end = static_cast<std::size_t>(offsets[v + 1]);
    if (weighted_) {
      sort_row(adj.data() + begin, weights.data() + begin, end - begin, tmp);
    } else {  // equal neighbors are indistinguishable: no stability needed
      std::sort(adj.data() + begin, adj.data() + end);
    }
    offsets[v] = static_cast<EdgeId>(out);
    const std::size_t row = out;
    for (std::size_t i = begin; i < end; ++i) {
      if (out > row && adj[out - 1] == adj[i]) {
        switch (policy_) {
          case DuplicatePolicy::kError:
            // Row v < adj[i] meets the pair first: (v, adj[i]) is ordered.
            PMC_FAIL("duplicate edge (" << v << ", " << adj[i] << ")");
          case DuplicatePolicy::kKeepFirst:
            break;
          case DuplicatePolicy::kKeepMax:
            if (weighted_) {
              weights[out - 1] = std::max(weights[out - 1], weights[i]);
            }
            break;
        }
        continue;
      }
      adj[out] = adj[i];
      if (weighted_) weights[out] = weights[i];
      ++out;
    }
  }
  offsets[n] = static_cast<EdgeId>(out);
  adj.resize(out);
  adj.shrink_to_fit();  // a no-op unless duplicates were folded
  weights.resize(weighted_ ? out : 0);
  weights.shrink_to_fit();
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
