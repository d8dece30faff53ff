// Unit tests for the CSR graph, the builder and basic graph algorithms.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "support/error.hpp"

namespace pmc {
namespace {

Graph triangle() {
  // The paper's Fig 3.1 example: weights (u,v)=3, (u,w)=2, (v,w)=1
  // with u=0, v=1, w=2.
  return graph_from_edges(3, {{0, 1, 3.0}, {0, 2, 2.0}, {1, 2, 1.0}});
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(Graph, TriangleBasics) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.num_arcs(), 6);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_TRUE(g.has_weights());
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 0), 3.0);  // symmetric
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 2), 1.0);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_FALSE(g.has_edge(0, 99));
  EXPECT_DOUBLE_EQ(g.total_weight(), 6.0);
  EXPECT_NO_THROW(g.validate());
}

TEST(Graph, NeighborsAreSorted) {
  const Graph g = graph_from_edges(5, {{4, 0, 1.0}, {2, 0, 1.0}, {0, 1, 1.0}});
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1);
  EXPECT_EQ(nbrs[1], 2);
  EXPECT_EQ(nbrs[2], 4);
}

TEST(Graph, EdgeWeightThrowsForMissingEdge) {
  const Graph g = triangle();
  EXPECT_THROW((void)g.edge_weight(0, 0), Error);
}

TEST(Graph, SummaryMentionsSizes) {
  const std::string s = triangle().summary();
  EXPECT_NE(s.find("|V|=3"), std::string::npos);
  EXPECT_NE(s.find("|E|=3"), std::string::npos);
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder b(3);
  b.add_edge(1, 1, 5.0);
  b.add_edge(0, 1, 1.0);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphBuilder, KeepFirstPolicy) {
  GraphBuilder b(2, true, DuplicatePolicy::kKeepFirst);
  b.add_edge(0, 1, 7.0);
  b.add_edge(1, 0, 9.0);  // same undirected edge, reversed
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 7.0);
}

TEST(GraphBuilder, KeepMaxPolicy) {
  GraphBuilder b(2, true, DuplicatePolicy::kKeepMax);
  b.add_edge(0, 1, 7.0);
  b.add_edge(1, 0, 9.0);
  const Graph g = std::move(b).build();
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 9.0);
}

/// Hub 0 joined to every other vertex (a row long enough for the stable
/// sort), plus a ring over 1..n-1 (short rows for the insertion sort).
std::vector<std::pair<VertexId, VertexId>> hub_and_ring(VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v < n; ++v) edges.emplace_back(0, v);
  for (VertexId v = 1; v < n; ++v) edges.emplace_back(v, v + 1 < n ? v + 1 : 1);
  return edges;
}

TEST(GraphBuilder, DuplicatePoliciesReadInsertionOrderOnEveryRow) {
  // Every edge is inserted three times, with weights 1, 2, 3 in that order
  // and alternating orientation; the hub row holds 3 * 59 arcs.
  constexpr VertexId kN = 60;
  const auto edges = hub_and_ring(kN);
  for (const DuplicatePolicy policy :
       {DuplicatePolicy::kKeepFirst, DuplicatePolicy::kKeepMax}) {
    GraphBuilder b(kN, true, policy);
    for (int round = 0; round < 3; ++round) {
      for (const auto& [u, v] : edges) {
        if (round == 1) {
          b.add_edge(v, u, Weight{2});
        } else {
          b.add_edge(u, v, static_cast<Weight>(round + 1));
        }
      }
    }
    const Graph g = std::move(b).build();
    g.validate();
    ASSERT_EQ(g.num_edges(), static_cast<EdgeId>(edges.size()));
    const Weight want = policy == DuplicatePolicy::kKeepFirst ? 1.0 : 3.0;
    for (const auto& [u, v] : edges) {
      EXPECT_EQ(g.edge_weight(u, v), want) << u << "-" << v;
      EXPECT_EQ(g.edge_weight(v, u), want) << v << "-" << u;
    }
  }
}

TEST(GraphBuilder, UnweightedBuilderFoldsDuplicatesUnderEveryPolicy) {
  constexpr VertexId kN = 40;
  const auto edges = hub_and_ring(kN);
  for (const DuplicatePolicy policy :
       {DuplicatePolicy::kKeepFirst, DuplicatePolicy::kKeepMax}) {
    GraphBuilder b(kN, false, policy);
    for (int round = 0; round < 2; ++round) {
      for (const auto& [u, v] : edges) b.add_edge(v, u, Weight{5});
    }
    const Graph g = std::move(b).build();
    g.validate();
    EXPECT_FALSE(g.has_weights());
    EXPECT_EQ(g.num_edges(), static_cast<EdgeId>(edges.size()));
    EXPECT_EQ(g.degree(0), kN - 1);
  }
}

TEST(GraphBuilder, ErrorPolicyNamesTheFirstDuplicateInEdgeOrder) {
  GraphBuilder b(5, true, DuplicatePolicy::kError);
  b.add_edge(3, 4, 1.0);
  b.add_edge(4, 3, 1.0);
  b.add_edge(2, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  try {
    (void)std::move(b).build();
    FAIL() << "duplicate accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate edge (1, 2)"),
              std::string::npos)
        << e.what();
  }
}

TEST(GraphBuilder, ErrorPolicyThrowsOnDuplicate) {
  GraphBuilder b(2, true, DuplicatePolicy::kError);
  b.add_edge(0, 1, 1.0);
  b.add_edge(0, 1, 2.0);
  EXPECT_THROW((void)std::move(b).build(), Error);
}

TEST(GraphBuilder, RejectsOutOfRangeVertices) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), Error);
  EXPECT_THROW(b.add_edge(-1, 0), Error);
}

TEST(GraphBuilder, UnweightedGraphHasNoWeights) {
  const Graph g = graph_from_edges(
      3, std::vector<std::pair<VertexId, VertexId>>{{0, 1}, {1, 2}});
  EXPECT_FALSE(g.has_weights());
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 1.0);  // implicit unit weight
}

TEST(GraphBuilder, LargeRandomGraphValidates) {
  const Graph g = erdos_renyi(500, 2000, WeightKind::kUniformRandom, 42);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.num_edges(), 2000);
}

// ---- algorithms -------------------------------------------------------------

TEST(Algorithms, BfsDistancesOnPath) {
  const Graph g = path(5);
  const auto dist = bfs_distances(g, 0);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(dist[static_cast<std::size_t>(v)], v);
  }
}

TEST(Algorithms, BfsUnreachableIsMinusOne) {
  // Two disconnected edges: 0-1, 2-3.
  const Graph g = graph_from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(dist[3], -1);
}

TEST(Algorithms, ConnectedComponentsCounts) {
  const Graph g = graph_from_edges(6, {{0, 1, 1.0}, {2, 3, 1.0}});
  VertexId num = 0;
  const auto comp = connected_components(g, num);
  EXPECT_EQ(num, 4);  // {0,1}, {2,3}, {4}, {5}
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(Algorithms, StatsOnGrid) {
  const Graph g = grid_2d(4, 5);
  const GraphStats s = compute_stats(g);
  EXPECT_EQ(s.num_vertices, 20);
  EXPECT_EQ(s.num_edges, 4 * 4 + 3 * 5);  // horizontal + vertical
  EXPECT_EQ(s.min_degree, 2);
  EXPECT_EQ(s.max_degree, 4);
  EXPECT_EQ(s.num_components, 1);
  EXPECT_EQ(s.num_isolated, 0);
}

TEST(Algorithms, PermutePreservesStructure) {
  const Graph g = erdos_renyi(50, 120, WeightKind::kUniformRandom, 7);
  const auto perm = random_permutation(50, 3);
  const Graph h = permute(g, perm);
  h.validate();
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.max_degree(), g.max_degree());
  // Edge weights travel with the permutation.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      EXPECT_DOUBLE_EQ(
          h.edge_weight(perm[static_cast<std::size_t>(v)],
                        perm[static_cast<std::size_t>(u)]),
          g.edge_weight(v, u));
    }
  }
}

TEST(Algorithms, PermuteRejectsNonBijection) {
  const Graph g = path(3);
  EXPECT_THROW((void)permute(g, {0, 0, 1}), Error);
  EXPECT_THROW((void)permute(g, {0, 1}), Error);
}

TEST(Algorithms, RandomPermutationIsBijection) {
  const auto perm = random_permutation(100, 9);
  std::vector<bool> seen(100, false);
  for (VertexId v : perm) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

TEST(Algorithms, CliqueLowerBoundOnComplete) {
  const Graph g = complete(6);
  EXPECT_EQ(clique_lower_bound(g), 6);
}

TEST(Algorithms, CliqueLowerBoundOnBipartiteIsTwo) {
  BipartiteInfo info;
  const Graph g = random_bipartite(10, 10, 40, info);
  EXPECT_EQ(clique_lower_bound(g), 2);
}

TEST(Algorithms, RespectsBipartition) {
  BipartiteInfo info;
  const Graph g = random_bipartite(8, 5, 20, info);
  EXPECT_TRUE(respects_bipartition(g, info));
  const Graph t = graph_from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}});
  EXPECT_FALSE(respects_bipartition(t, BipartiteInfo{1, 2}));
}

}  // namespace
}  // namespace pmc
