// Tests for the distributed graph view (ghost construction, interior/
// boundary classification, invariants).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
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

/// Recomputes every rank's neighbour ranks, ghost slots, boundary slots and
/// ghost arcs from the global graph and compares them with the tables
/// DistGraph::build derived. The local adjacency keeps each vertex's global
/// neighbour order, so the i-th neighbour of v is arc offset_begin(v) + i.
void expect_boundary_tables_match_global(const Graph& g, const Partition& p,
                                         const DistGraph& dist) {
  for (Rank r = 0; r < dist.num_ranks(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const LocalGraph& lg = dist.local(r);
    const std::vector<Rank>& nbrs = lg.neighbor_ranks();
    std::vector<Rank> all_owners;
    std::vector<std::vector<std::pair<VertexId, EdgeId>>> arcs(
        static_cast<std::size_t>(lg.num_ghosts()));
    for (VertexId v = 0; v < lg.num_owned(); ++v) {
      const auto global_nbrs = g.neighbors(lg.global_id(v));
      std::vector<Rank> owners;
      for (std::size_t i = 0; i < global_nbrs.size(); ++i) {
        const Rank owner = p.owner(global_nbrs[i]);
        if (owner == r) continue;
        owners.push_back(owner);
        const VertexId ghost = lg.local_id(global_nbrs[i]);
        ASSERT_TRUE(ghost != kNoVertex && lg.is_ghost(ghost));
        arcs[static_cast<std::size_t>(ghost - lg.num_owned())].emplace_back(
            v, lg.offset_begin(v) + static_cast<EdgeId>(i));
      }
      std::sort(owners.begin(), owners.end());
      owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
      all_owners.insert(all_owners.end(), owners.begin(), owners.end());
      std::vector<Rank> got;
      for (const Slot s : lg.boundary_slots(v)) {
        ASSERT_LT(s, nbrs.size());
        got.push_back(nbrs[s]);
      }
      ASSERT_EQ(got, owners) << "global vertex " << lg.global_id(v);
      EXPECT_EQ(lg.is_boundary(v), !owners.empty());
    }
    std::sort(all_owners.begin(), all_owners.end());
    all_owners.erase(std::unique(all_owners.begin(), all_owners.end()),
                     all_owners.end());
    EXPECT_EQ(nbrs, all_owners);
    for (VertexId l = lg.num_owned(); l < lg.num_local(); ++l) {
      ASSERT_LT(lg.ghost_slot(l), nbrs.size());
      EXPECT_EQ(nbrs[lg.ghost_slot(l)], p.owner(lg.global_id(l)));
      EXPECT_EQ(lg.ghost_owner(l), p.owner(lg.global_id(l)));
      std::vector<std::pair<VertexId, EdgeId>> got;
      for (const LocalGraph::GhostArc ga : lg.ghost_arcs(l)) {
        got.emplace_back(ga.vertex, ga.arc);
      }
      EXPECT_EQ(got, arcs[static_cast<std::size_t>(l - lg.num_owned())])
          << "ghost " << lg.global_id(l);
    }
  }
}

TEST(DistGraph, BoundaryTablesMatchTheGlobalGraph) {
  struct Case {
    const char* name;
    Graph g;
    Partition p;
  };
  const Graph grid = grid_2d(13, 10, WeightKind::kUniformRandom, 9);
  const Graph circuit = circuit_like(600, 1200, 6, WeightKind::kUnit, 10);
  const Graph power_law = rmat(9, 8);
  const Graph hub = star(40);
  std::vector<Case> cases;
  // 3 processor rows do not divide 13 grid rows: uneven blocks.
  cases.push_back({"grid 13x10 on 3x2", grid, grid_2d_partition(13, 10, 3, 2)});
  cases.push_back({"circuit multilevel 7", circuit,
                   multilevel_partition(circuit, 7,
                                        MultilevelConfig::metis_like(4))});
  cases.push_back({"rmat random 6", power_law,
                   random_partition(power_law.num_vertices(), 6, 11)});
  cases.push_back({"rmat multilevel 5", power_law,
                   multilevel_partition(power_law, 5,
                                        MultilevelConfig::metis_like(5))});
  // One hub adjacent to every other rank: its slot list spans them all.
  cases.push_back({"star random 9", hub,
                   random_partition(hub.num_vertices(), 9, 12)});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const DistGraph dist = DistGraph::build(c.g, c.p);
    dist.validate(c.g, c.p);
    expect_boundary_tables_match_global(c.g, c.p, dist);
  }
}

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
  EXPECT_FALSE(l0.is_boundary(l0.local_id(0)));  // the interior vertex

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
  for (VertexId v = 0; v < dist.local(0).num_owned(); ++v) {
    EXPECT_FALSE(dist.local(0).is_boundary(v));
  }
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

TEST(GhostValues, StoresEachGhostOnce) {
  const Graph g = path(4);
  const Partition p(2, {0, 0, 1, 1});
  const DistGraph dist = DistGraph::build(g, p);
  const LocalGraph& lg = dist.local(0);  // owns {0,1}, ghost {2}
  GhostValues<Color> values(lg);
  EXPECT_THROW((void)values.at(lg.local_id(2)), Error);  // not arrived yet
  values.store(2, 5);
  EXPECT_EQ(values.at(lg.local_id(2)), 5);
  // A second receipt means the exchange staged the ghost's record twice.
  EXPECT_THROW(values.store(2, 5), Error);
  // Owned and unseen vertices are no ghosts.
  EXPECT_THROW(values.store(1, 5), Error);
  EXPECT_THROW(values.store(3, 5), Error);
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
  expect_boundary_tables_match_global(g, p, dist);

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
