// Tests for the distributed graph view (ghost construction, interior/
// boundary classification, invariants).
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/simple.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/local_index.hpp"
#include "support/error.hpp"

namespace pmc {
namespace {

TEST(DistGraph, PathAcrossTwoRanks) {
  const Graph g = path(4);  // 0-1-2-3
  const Partition p(2, {0, 0, 1, 1});
  const DistGraph dist = DistGraph::build(g, p);
  dist.validate(g, p);

  const LocalGraph& l0 = dist.local(0);
  EXPECT_EQ(l0.num_owned(), 2);
  EXPECT_EQ(l0.num_ghosts(), 1);  // vertex 2 as ghost
  EXPECT_EQ(l0.num_cross_edges(), 1);
  EXPECT_EQ(l0.neighbor_ranks(), (std::vector<Rank>{1}));
  EXPECT_EQ(l0.interior_vertices().size(), 1u);
  EXPECT_EQ(l0.boundary_vertices().size(), 1u);

  // Vertex 1 (local id 1 on rank 0) is boundary; its ghost neighbor is
  // global vertex 2.
  const VertexId local1 = l0.local_id(1);
  EXPECT_TRUE(l0.is_boundary(local1));
  bool saw_ghost = false;
  for (VertexId u : l0.neighbors(local1)) {
    if (l0.is_ghost(u)) {
      saw_ghost = true;
      EXPECT_EQ(l0.global_id(u), 2);
      EXPECT_EQ(l0.ghost_owner(u), 1);
    }
  }
  EXPECT_TRUE(saw_ghost);
}

TEST(DistGraph, SingleRankHasNoGhosts) {
  const Graph g = grid_2d(6, 6);
  const Partition p = block_partition(g.num_vertices(), 1);
  const DistGraph dist = DistGraph::build(g, p);
  dist.validate(g, p);
  EXPECT_EQ(dist.local(0).num_ghosts(), 0);
  EXPECT_EQ(dist.local(0).num_cross_edges(), 0);
  EXPECT_EQ(dist.local(0).boundary_vertices().size(), 0u);
}

TEST(DistGraph, WeightsSurviveDistribution) {
  const Graph g = grid_2d(4, 4, WeightKind::kUniformRandom, 3);
  const Partition p = grid_2d_partition(4, 4, 2, 2);
  const DistGraph dist = DistGraph::build(g, p);
  for (Rank r = 0; r < dist.num_ranks(); ++r) {
    const LocalGraph& lg = dist.local(r);
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      const auto nbrs = lg.neighbors(v);
      const auto ws = lg.weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        EXPECT_DOUBLE_EQ(
            ws[i], g.edge_weight(lg.global_id(v), lg.global_id(nbrs[i])));
      }
    }
  }
}

TEST(DistGraph, CrossEdgeTotalsMatchCutMetric) {
  const Graph g = erdos_renyi(300, 1200, WeightKind::kUniformRandom, 4);
  const Partition p = random_partition(300, 5, 8);
  const DistGraph dist = DistGraph::build(g, p);
  dist.validate(g, p);
  EdgeId cross_arcs = 0;
  for (Rank r = 0; r < dist.num_ranks(); ++r) {
    cross_arcs += dist.local(r).num_cross_edges();
  }
  const auto metrics = compute_metrics(g, p);
  EXPECT_EQ(cross_arcs, 2 * metrics.edge_cut);  // each cut edge seen twice
}

TEST(DistGraph, GhostsDeduplicatedPerRank) {
  // Star: center 0 on rank 0, leaves on rank 1. Rank 1 must hold exactly one
  // ghost copy of the center.
  const Graph g = star(6);
  std::vector<Rank> owner{0, 1, 1, 1, 1, 1};
  const Partition p(2, std::move(owner));
  const DistGraph dist = DistGraph::build(g, p);
  dist.validate(g, p);
  EXPECT_EQ(dist.local(1).num_ghosts(), 1);
  EXPECT_EQ(dist.local(0).num_ghosts(), 5);
}

TEST(DistGraph, MismatchedPartitionThrows) {
  const Graph g = path(4);
  const Partition p(2, {0, 1});
  EXPECT_THROW((void)DistGraph::build(g, p), Error);
}

TEST(DistGraph, LocalIdLookupForUnknownVertex) {
  const Graph g = path(4);
  const Partition p(2, {0, 0, 1, 1});
  const DistGraph dist = DistGraph::build(g, p);
  EXPECT_EQ(dist.local(0).local_id(3), kNoVertex);  // 3 not visible on rank 0
}

TEST(LocalIndex, InternGrowsAndFindsEveryId) {
  // Interning grows the table past several doublings; every id keeps its
  // first local id, and absent ids miss.
  LocalIndex index;
  std::vector<VertexId> ids;
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const VertexId global =
        i % 7 == 6 ? ids[ids.size() / 2] : static_cast<VertexId>(x >> 34);
    const VertexId before = index.find(ids, global);
    const auto size_before = ids.size();
    const VertexId local = index.intern(ids, global);
    if (before != kNoVertex) {
      EXPECT_EQ(local, before);
      EXPECT_EQ(ids.size(), size_before);
    } else {
      EXPECT_EQ(local, static_cast<VertexId>(size_before));
    }
  }
  for (std::size_t l = 0; l < ids.size(); ++l) {
    ASSERT_EQ(index.find(ids, ids[l]), static_cast<VertexId>(l));
  }
  EXPECT_EQ(index.find(ids, VertexId{-5}), kNoVertex);
  EXPECT_EQ(LocalIndex{}.find(ids, ids.front()), kNoVertex);
}

class DistGraphSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DistGraphSweep, InvariantsAcrossGraphsAndParts) {
  const auto [graph_kind, parts] = GetParam();
  Graph g;
  switch (graph_kind) {
    case 0: g = grid_2d(12, 12, WeightKind::kUniformRandom, 1); break;
    case 1: g = erdos_renyi(256, 1024, WeightKind::kUniformRandom, 2); break;
    case 2: g = circuit_like(300, 600); break;
    case 3: g = rmat(8, 4); break;
    default: FAIL();
  }
  const Partition p =
      multilevel_partition(g, static_cast<Rank>(parts),
                           MultilevelConfig::metis_like(5));
  const DistGraph dist = DistGraph::build(g, p);
  dist.validate(g, p);

  // The global -> local index round-trips every local id and answers
  // kNoVertex for vertices the rank does not hold (out-of-range ids too).
  const VertexId n = g.num_vertices();
  for (Rank r = 0; r < dist.num_ranks(); ++r) {
    const LocalGraph& lg = dist.local(r);
    std::vector<bool> held(static_cast<std::size_t>(n), false);
    for (VertexId l = 0; l < lg.num_local(); ++l) {
      ASSERT_EQ(lg.local_id(lg.global_id(l)), l) << "rank " << r;
      held[static_cast<std::size_t>(lg.global_id(l))] = true;
    }
    for (VertexId v = r % 3; v < n; v += 3) {
      if (!held[static_cast<std::size_t>(v)]) {
        ASSERT_EQ(lg.local_id(v), kNoVertex) << "rank " << r << " vertex " << v;
      }
    }
    EXPECT_EQ(lg.local_id(n), kNoVertex);
    EXPECT_EQ(lg.local_id(kNoVertex), kNoVertex);
  }
}

INSTANTIATE_TEST_SUITE_P(GraphsTimesParts, DistGraphSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(2, 7, 16)));

}  // namespace
}  // namespace pmc
