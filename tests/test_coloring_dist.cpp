// Tests for the distributed speculative coloring framework: properness for
// every variant, convergence, communication-mode comparisons, and the
// framework's conflict-resolution semantics.
#include <gtest/gtest.h>

#include <tuple>

#include "coloring/color_exchange.hpp"
#include "coloring/jones_plassmann.hpp"
#include "coloring/parallel.hpp"
#include "coloring/sequential.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/simple.hpp"
#include "support/error.hpp"

namespace pmc {
namespace {

DistColoringOptions zero_cost(DistColoringOptions o = {}) {
  o.model = MachineModel::zero_cost();
  return o;
}

TEST(DistColoring, SingleRankEqualsSequentialGreedy) {
  const Graph g = erdos_renyi(300, 1200, WeightKind::kUnit, 1);
  const Partition p = block_partition(g.num_vertices(), 1);
  const auto result = color_distributed(g, p, zero_cost());
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
  EXPECT_EQ(result.rounds, 1);  // no boundary, no conflicts
  EXPECT_EQ(result.run.comm.messages, 0);
  const Coloring seq = greedy_coloring(g);
  EXPECT_EQ(result.coloring.num_colors(), seq.num_colors());
}

TEST(DistColoring, ProperOnGridAcrossRankCounts) {
  const Graph g = grid_2d(20, 20);
  for (Rank ranks : {2, 4, 16}) {
    Rank pr = 0, pc = 0;
    factor_processor_grid(ranks, pr, pc);
    const Partition p = grid_2d_partition(20, 20, pr, pc);
    const auto result = color_distributed(g, p, zero_cost());
    std::string why;
    EXPECT_TRUE(is_proper_coloring(g, result.coloring, &why)) << why;
    EXPECT_LE(result.coloring.num_colors(),
              static_cast<Color>(g.max_degree()) + 1);
  }
}

TEST(DistColoring, ConvergesWithinFewRoundsOnWellPartitionedInput) {
  // Paper: "algorithms FIAC and FIAB converged rapidly — within at most six
  // rounds".
  const Graph g = grid_2d(32, 32);
  const Partition p = grid_2d_partition(32, 32, 4, 4);
  const auto result = color_distributed(g, p, zero_cost());
  EXPECT_LE(result.rounds, 6);
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
}

TEST(DistColoring, ConflictCountsDecreaseToZero) {
  const Graph g = erdos_renyi(500, 3000, WeightKind::kUnit, 2);
  const Partition p = random_partition(g.num_vertices(), 8, 1);
  auto opts = zero_cost();
  opts.superstep_size = 50;
  const auto result = color_distributed(g, p, opts);
  ASSERT_GE(result.conflicts_per_round.size(), 1u);
  EXPECT_EQ(result.conflicts_per_round.back(), 0);
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
}

TEST(DistColoring, ColorCountStaysNearSequential) {
  // Paper: "the number of colors ... in general remained nearly the same as
  // the number used by the underlying serial algorithm".
  const Graph g = circuit_like(2000, 4200, 6, WeightKind::kUnit, 3);
  const Coloring seq = greedy_coloring(g);
  const Partition p = multilevel_partition(g, 16, MultilevelConfig::metis_like());
  const auto result = color_distributed(g, p, zero_cost());
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
  EXPECT_LE(result.coloring.num_colors(), seq.num_colors() + 2);
}

TEST(DistColoring, SuperstepSizeOneStillConverges) {
  const Graph g = grid_2d(8, 8);
  const Partition p = grid_2d_partition(8, 8, 2, 2);
  auto opts = zero_cost();
  opts.superstep_size = 1;
  const auto result = color_distributed(g, p, opts);
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
}

TEST(DistColoring, HugeSuperstepBehavesLikeOnePerRound) {
  const Graph g = grid_2d(8, 8);
  const Partition p = grid_2d_partition(8, 8, 2, 2);
  auto opts = zero_cost();
  opts.superstep_size = 1 << 20;
  const auto result = color_distributed(g, p, opts);
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
}

TEST(DistColoring, CommModesAllProperAndOrderedByTraffic) {
  const Graph g = erdos_renyi(400, 2400, WeightKind::kUnit, 4);
  const Partition p = multilevel_partition(g, 8, MultilevelConfig::metis_like());
  auto base = zero_cost();
  base.superstep_size = 100;
  auto fiab = base;
  fiab.comm_mode = CommMode::kBroadcastUnion;
  auto fiac = base;
  fiac.comm_mode = CommMode::kCustomizedAll;
  auto improved = base;
  improved.comm_mode = CommMode::kCustomizedNeighbors;
  const auto rb = color_distributed(g, p, fiab);
  const auto rc = color_distributed(g, p, fiac);
  const auto rn = color_distributed(g, p, improved);
  EXPECT_TRUE(is_proper_coloring(g, rb.coloring));
  EXPECT_TRUE(is_proper_coloring(g, rc.coloring));
  EXPECT_TRUE(is_proper_coloring(g, rn.coloring));
  // FIAC cuts volume but not message count; NEW cuts both (paper §4.2).
  EXPECT_LT(rc.run.comm.bytes, rb.run.comm.bytes);
  EXPECT_LE(rn.run.comm.messages, rc.run.comm.messages);
  EXPECT_LE(rn.run.comm.bytes, rc.run.comm.bytes);
}

// A 16x16 grid on 64 ranks of 2x2: each rank neighbours at most four of
// the other 63, so staging keyed by the neighbour set must leave every
// mode's traffic exactly as it was when every rank staged for all ranks.
TEST(DistColoring, SparseNeighbourStagingKeepsEveryModesTraffic) {
  const Graph g = grid_2d(16, 16);
  const Partition p = grid_2d_partition(16, 16, 8, 8);
  const DistGraph dist = DistGraph::build(g, p);
  auto run = [&](CommMode mode) {
    DistColoringOptions opts;  // Blue Gene/P model: envelopes cost bytes
    opts.comm_mode = mode;
    return color_distributed(dist, opts);
  };
  const auto rb = run(CommMode::kBroadcastUnion);
  const auto rc = run(CommMode::kCustomizedAll);
  const auto rn = run(CommMode::kCustomizedNeighbors);
  for (const auto* r : {&rb, &rc, &rn}) {
    std::string why;
    EXPECT_TRUE(is_proper_coloring(g, r->coloring, &why)) << why;
  }
  // Pinned from the all-ranks staging (64 writers per rank per run).
  EXPECT_EQ(rb.run.comm.messages, 4473);
  EXPECT_EQ(rb.run.comm.bytes, 210546);
  EXPECT_EQ(rc.run.comm.messages, 4473);
  EXPECT_EQ(rc.run.comm.bytes, 145889);
  EXPECT_EQ(rn.run.comm.messages, 236);
  EXPECT_EQ(rn.run.comm.bytes, 10305);
  // FIAC still sends a (mostly empty) frame to every other rank: the first
  // round alone is 64 x 63 messages, against at most 4 neighbours per rank,
  // and each empty frame still pays its envelope bytes.
  EXPECT_GE(rc.run.comm.messages, 64 * 63);
  EXPECT_GT(rc.run.comm.bytes, rn.run.comm.bytes);
  const auto jp = color_jones_plassmann(dist);
  std::string why;
  EXPECT_TRUE(is_proper_coloring(g, jp.coloring, &why)) << why;
  EXPECT_EQ(jp.run.comm.messages, 409);
  EXPECT_EQ(jp.run.comm.bytes, 17159);
}

TEST(DistColoring, SyncModeAlsoProper) {
  const Graph g = grid_2d(16, 16);
  const Partition p = grid_2d_partition(16, 16, 4, 4);
  auto opts = zero_cost();
  opts.superstep_mode = SuperstepMode::kSync;
  opts.superstep_size = 20;
  const auto result = color_distributed(g, p, opts);
  EXPECT_TRUE(is_proper_coloring(g, result.coloring));
  // Synchronous supersteps add one barrier per superstep.
  EXPECT_GT(result.run.comm.collectives, result.rounds);
}

TEST(DistColoring, PresetsMatchPaperParameters) {
  EXPECT_EQ(DistColoringOptions::fiab().comm_mode, CommMode::kBroadcastUnion);
  EXPECT_EQ(DistColoringOptions::fiab().superstep_size, 100);
  EXPECT_EQ(DistColoringOptions::fiac().comm_mode, CommMode::kCustomizedAll);
  EXPECT_EQ(DistColoringOptions::fiac().superstep_size, 1000);
  EXPECT_EQ(DistColoringOptions::improved().comm_mode,
            CommMode::kCustomizedNeighbors);
}

TEST(DistColoring, DeterministicGivenSeed) {
  const Graph g = erdos_renyi(300, 1500, WeightKind::kUnit, 5);
  const Partition p = random_partition(g.num_vertices(), 6, 2);
  const auto a = color_distributed(g, p, zero_cost());
  const auto b = color_distributed(g, p, zero_cost());
  EXPECT_EQ(a.coloring.color, b.coloring.color);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.run.comm.messages, b.run.comm.messages);
}

TEST(DistColoring, SeedChangesConflictResolution) {
  const Graph g = erdos_renyi(300, 1500, WeightKind::kUnit, 5);
  const Partition p = random_partition(g.num_vertices(), 6, 2);
  auto o1 = zero_cost();
  o1.seed = 1;
  auto o2 = zero_cost();
  o2.seed = 2;
  const auto a = color_distributed(g, p, o1);
  const auto b = color_distributed(g, p, o2);
  EXPECT_TRUE(is_proper_coloring(g, a.coloring));
  EXPECT_TRUE(is_proper_coloring(g, b.coloring));
}

TEST(DistColoring, DecoderSkipsForeignRecordsOnlyUnderBroadcast) {
  // Path 0-1-2-3-4-5 in three blocks: rank 0 owns {0,1}, ghost {2}.
  const DistGraph dist = DistGraph::build(path(6), block_partition(6, 3));
  const LocalGraph& lg = dist.local(0);
  ASSERT_EQ(lg.local_id(5), kNoVertex);
  const auto frame = [](VertexId vertex, Color color) {
    FrameWriter w;
    w.append(ColorRecord{vertex, color});
    BspMessage msg;
    msg.records = w.records();
    msg.payload = w.take();
    return msg;
  };
  std::vector<Color> color(static_cast<std::size_t>(lg.num_local()), kNoColor);
  // A ghost's record applies under every policy.
  apply_color_records(lg, color, frame(2, 4), SendPolicy::kCustomizedNeighbors);
  EXPECT_EQ(color[static_cast<std::size_t>(lg.local_id(2))], 4);
  // FIAB's union payload names vertices the receiver never heard of.
  const std::vector<Color> before = color;
  apply_color_records(lg, color, frame(5, 7), SendPolicy::kBroadcastUnion);
  EXPECT_EQ(color, before);
  // A customized frame only ever reaches ranks that hold the vertex.
  EXPECT_THROW(apply_color_records(lg, color, frame(5, 7),
                                   SendPolicy::kCustomizedNeighbors),
               Error);
  EXPECT_THROW(
      apply_color_records(lg, color, frame(5, 7), SendPolicy::kCustomizedAll),
      Error);
}

TEST(DistColoring, RejectsBadOptions) {
  const Graph g = path(4);
  const Partition p = block_partition(4, 2);
  auto opts = zero_cost();
  opts.superstep_size = 0;
  EXPECT_THROW((void)color_distributed(g, p, opts), Error);
}

/// The central property sweep: every variant combination colors properly.
class DistColoringSweep
    : public ::testing::TestWithParam<
          std::tuple<CommMode, SuperstepMode, LocalOrder, int>> {};

TEST_P(DistColoringSweep, AlwaysProper) {
  const auto [comm, sync, order, superstep] = GetParam();
  const Graph g = circuit_like(500, 1100, 6, WeightKind::kUnit, 6);
  const Partition p = multilevel_partition(g, 6, MultilevelConfig::metis_like(2));
  auto opts = zero_cost();
  opts.comm_mode = comm;
  opts.superstep_mode = sync;
  opts.local_order = order;
  opts.superstep_size = superstep;
  const auto result = color_distributed(g, p, opts);
  std::string why;
  EXPECT_TRUE(is_proper_coloring(g, result.coloring, &why)) << why;
  EXPECT_LE(result.coloring.num_colors(),
            static_cast<Color>(g.max_degree()) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, DistColoringSweep,
    ::testing::Combine(
        ::testing::Values(CommMode::kBroadcastUnion, CommMode::kCustomizedAll,
                          CommMode::kCustomizedNeighbors),
        ::testing::Values(SuperstepMode::kAsync, SuperstepMode::kSync),
        ::testing::Values(LocalOrder::kInteriorFirst,
                          LocalOrder::kBoundaryFirst, LocalOrder::kNatural),
        ::testing::Values(1, 64, 1000)));

/// Strategy sweep on the distributed path.
class DistStrategySweep : public ::testing::TestWithParam<ColorStrategy> {};

TEST_P(DistStrategySweep, ProperWithEveryColorStrategy) {
  const Graph g = erdos_renyi(300, 1200, WeightKind::kUnit, 7);
  const Partition p = random_partition(g.num_vertices(), 5, 3);
  auto opts = zero_cost();
  opts.strategy = GetParam();
  const auto result = color_distributed(g, p, opts);
  std::string why;
  EXPECT_TRUE(is_proper_coloring(g, result.coloring, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Strategies, DistStrategySweep,
                         ::testing::Values(ColorStrategy::kFirstFit,
                                           ColorStrategy::kStaggeredFirstFit,
                                           ColorStrategy::kLeastUsed));

}  // namespace
}  // namespace pmc
