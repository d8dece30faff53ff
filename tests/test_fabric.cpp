// Tests for the shared communication fabric (runtime/fabric.hpp): clocks and
// cost charging, the per-channel FIFO non-overtaking invariant (with and
// without jitter), the SlotWriters and FanoutStage staging helpers, and the
// per-rank / per-round instrumentation breakdowns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pmc.hpp"
#include "runtime/fabric.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace pmc {
namespace {

/// One message from src, sent the way both engines send: the sender-side
/// cost is paid on src's lane, the lane is absorbed, the ticket is posted.
CommFabric::SendReceipt lane_send(CommFabric& fabric, Rank src, Rank dst,
                                  std::size_t payload_bytes,
                                  std::int64_t records) {
  CommFabric::Lane lane = fabric.make_lane(src);
  CommFabric::SendTicket ticket = lane.begin_send();
  fabric.absorb_lane(lane);
  return fabric.post_send_at(std::move(ticket), dst, payload_bytes, records);
}

// ---- CommFabric: clocks, sends, collectives --------------------------------

TEST(CommFabric, PostSendChargesOverheadAndPricesMessage) {
  const MachineModel m = MachineModel::blue_gene_p();
  CommFabric fabric(m);
  fabric.add_rank();
  fabric.add_rank();
  CommFabric::Lane lane = fabric.make_lane(0);
  CommFabric::SendTicket ticket = lane.begin_send();
  // The sender pays the LogP software overhead on its lane; the ticket
  // carries the resulting send time.
  EXPECT_DOUBLE_EQ(lane.now(), m.send_overhead);
  EXPECT_DOUBLE_EQ(ticket.time(), m.send_overhead);
  EXPECT_EQ(ticket.src(), 0);
  fabric.absorb_lane(lane);
  const auto receipt = fabric.post_send_at(std::move(ticket), 1, 100, 3);
  // The arrival adds the alpha-beta transfer cost on top.
  EXPECT_DOUBLE_EQ(fabric.now(0), m.send_overhead);
  EXPECT_DOUBLE_EQ(receipt.arrival, m.send_overhead + m.message_seconds(100.0));
  EXPECT_EQ(receipt.seq, 0u);
  EXPECT_EQ(fabric.comm().messages, 1);
  EXPECT_EQ(fabric.comm().records, 3);
  EXPECT_EQ(fabric.comm().bytes,
            100 + static_cast<std::int64_t>(m.header_bytes));
}

TEST(CommFabric, RejectsInvalidSends) {
  CommFabric fabric(MachineModel::zero_cost());
  fabric.add_rank();
  fabric.add_rank();
  // A rejected ticket counts as posted: the throw does not abort.
  EXPECT_THROW(lane_send(fabric, 0, 0, 0, 0), Error);
  EXPECT_THROW(lane_send(fabric, 0, 7, 0, 0), Error);
}

TEST(SendTicketDeathTest, UnpostedTicketAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  CommFabric fabric(MachineModel::blue_gene_p());
  fabric.add_rank();
  fabric.add_rank();
  // The overhead is charged but the send never reaches the cost model.
  EXPECT_DEATH(
      {
        CommFabric::Lane lane = fabric.make_lane(0);
        CommFabric::SendTicket ticket = lane.begin_send();
        CommFabric::SendTicket moved = std::move(ticket);
        (void)moved.time();
      },
      "destroyed without post_send_at");
}

TEST(SendTicket, UnwindingDropsAnUnpostedTicketQuietly) {
  // A phase abandoned by an exception may leave tickets unposted; they die
  // with the stack instead of turning the error into an abort.
  CommFabric fabric(MachineModel::blue_gene_p());
  fabric.add_rank();
  fabric.add_rank();
  CommFabric::Lane lane = fabric.make_lane(0);
  EXPECT_THROW(
      {
        CommFabric::SendTicket ticket = lane.begin_send();
        (void)ticket.time();
        throw std::runtime_error("phase abandoned");
      },
      std::runtime_error);
  // A moved-from ticket is inert; only the posted one counts.
  CommFabric::SendTicket first = lane.begin_send();
  CommFabric::SendTicket second = std::move(first);
  fabric.absorb_lane(lane);
  (void)fabric.post_send_at(std::move(second), 1, 8, 1);
  EXPECT_EQ(fabric.comm().messages, 1);
}

TEST(CommFabric, FifoNonOvertakingWithinChannel) {
  CommFabric fabric(MachineModel::blue_gene_p());
  fabric.add_rank();
  fabric.add_rank();
  const auto big = lane_send(fabric, 0, 1, 100000, 1);
  const auto small = lane_send(fabric, 0, 1, 4, 1);
  // The small message is cheaper but may not overtake the big one.
  EXPECT_GE(small.arrival, big.arrival);
}

TEST(CommFabric, FifoNonOvertakingHoldsUnderJitter) {
  FabricConfig config;
  config.jitter_seconds = 1e-3;  // enormous vs the transfer costs
  config.jitter_seed = 42;
  CommFabric fabric(MachineModel::blue_gene_p(), config);
  for (int r = 0; r < 3; ++r) fabric.add_rank();
  std::map<std::pair<Rank, Rank>, double> last_arrival;
  // A burst of variously-sized messages across several channels: arrivals
  // must stay non-decreasing per (src, dst) channel no matter the jitter.
  for (int i = 0; i < 64; ++i) {
    const Rank src = static_cast<Rank>(i % 3);
    const Rank dst = static_cast<Rank>((i + 1 + i % 2) % 3);
    if (src == dst) continue;
    const std::size_t bytes = static_cast<std::size_t>((i * 37) % 5000);
    const auto receipt = lane_send(fabric, src, dst, bytes, 1);
    const auto key = std::make_pair(src, dst);
    const auto it = last_arrival.find(key);
    if (it != last_arrival.end()) {
      EXPECT_GE(receipt.arrival, it->second)
          << "message overtook its predecessor on channel " << src << "->"
          << dst;
    }
    last_arrival[key] = receipt.arrival;
  }
}

TEST(CommFabric, CollectiveAdvancesEveryClockToCommonHorizon) {
  const MachineModel m = MachineModel::blue_gene_p();
  CommFabric fabric(m);
  for (int r = 0; r < 4; ++r) fabric.add_rank();
  CommFabric::Lane lane = fabric.make_lane(2);
  lane.charge(1000.0);
  fabric.absorb_lane(lane);
  const double horizon = fabric.max_time();
  fabric.complete_collective(horizon);
  const double expected = horizon + m.collective_seconds(4);
  for (Rank r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(fabric.now(r), expected);
  EXPECT_EQ(fabric.comm().collectives, 1);
}

TEST(CommFabric, ChargeAttributesPhasesInBreakdown) {
  MachineModel m = MachineModel::zero_cost();
  m.seconds_per_work = 1.0;
  CommFabric fabric(m);
  fabric.add_rank();
  fabric.add_rank();
  CommFabric::Lane lane0 = fabric.make_lane(0);
  lane0.charge(2.0, WorkPhase::kInterior);
  lane0.charge(3.0, WorkPhase::kBoundary);
  CommFabric::Lane lane1 = fabric.make_lane(1);
  lane1.set_phase(WorkPhase::kBoundary);
  lane1.charge(5.0);  // attributed to the rank's sticky phase
  fabric.absorb_lane(lane0);
  fabric.absorb_lane(lane1);
  const CommBreakdown& b = fabric.breakdown();
  ASSERT_EQ(b.interior_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(b.interior_seconds[0], 2.0);
  EXPECT_DOUBLE_EQ(b.boundary_seconds[0], 3.0);
  EXPECT_DOUBLE_EQ(b.boundary_seconds[1], 5.0);
  EXPECT_DOUBLE_EQ(b.interior_seconds[1], 0.0);
}

TEST(CommFabric, BreakdownAttributesSendsToRankAndRound) {
  CommFabric fabric(MachineModel::blue_gene_p());
  fabric.add_rank();
  fabric.add_rank();
  fabric.set_round(0, 0);
  (void)lane_send(fabric, 0, 1, 8, 2);
  fabric.set_round(0, 3);
  (void)lane_send(fabric, 0, 1, 8, 1);
  const CommBreakdown& b = fabric.breakdown();
  ASSERT_EQ(b.per_rank.size(), 2u);
  EXPECT_EQ(b.per_rank[0].messages, 2);
  EXPECT_EQ(b.per_rank[1].messages, 0);
  ASSERT_EQ(b.per_round.size(), 4u);  // rounds 0..3
  EXPECT_EQ(b.per_round[0].records, 2);
  EXPECT_EQ(b.per_round[1].messages, 0);
  EXPECT_EQ(b.per_round[3].records, 1);
}

TEST(CommBreakdown, SizeBucketsArePowersOfTwo) {
  EXPECT_EQ(CommBreakdown::size_bucket(0), 0u);
  EXPECT_EQ(CommBreakdown::size_bucket(1), 0u);
  EXPECT_EQ(CommBreakdown::size_bucket(2), 1u);
  EXPECT_EQ(CommBreakdown::size_bucket(3), 1u);
  EXPECT_EQ(CommBreakdown::size_bucket(1024), 10u);
  EXPECT_EQ(CommBreakdown::size_bucket(std::int64_t{1} << 40),
            kMessageSizeBuckets - 1);
}

TEST(CommBreakdown, SizeBucketEdgeCases) {
  // Degenerate inputs clamp into the first bucket instead of indexing with
  // bit_width of a sign-extended cast.
  EXPECT_EQ(CommBreakdown::size_bucket(-1), 0u);
  EXPECT_EQ(CommBreakdown::size_bucket(std::numeric_limits<std::int64_t>::min()),
            0u);
  // Boundary of the last regular bucket vs the overflow bucket.
  EXPECT_EQ(CommBreakdown::size_bucket((std::int64_t{1} << 23) - 1),
            kMessageSizeBuckets - 2);
  EXPECT_EQ(CommBreakdown::size_bucket(std::int64_t{1} << 23),
            kMessageSizeBuckets - 1);
  EXPECT_EQ(CommBreakdown::size_bucket((std::int64_t{1} << 23) + 1),
            kMessageSizeBuckets - 1);
  EXPECT_EQ(CommBreakdown::size_bucket(std::numeric_limits<std::int64_t>::max()),
            kMessageSizeBuckets - 1);
}

// ---- fault injection --------------------------------------------------------

FabricConfig fault_config(double drop, double dup, double delay = 0.0,
                          std::uint64_t seed = 1) {
  FabricConfig config;
  config.fault.drop_rate = drop;
  config.fault.duplicate_rate = dup;
  config.fault.delay_rate = delay;
  if (delay > 0.0) config.fault.max_extra_delay_seconds = 1e-5;
  config.fault.seed = seed;
  return config;
}

TEST(FaultInjection, DisabledConfigIsInert) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  CommFabric plain(MachineModel::blue_gene_p());
  CommFabric with_cfg(MachineModel::blue_gene_p(), FabricConfig{});
  plain.add_rank();
  plain.add_rank();
  with_cfg.add_rank();
  with_cfg.add_rank();
  const auto a = lane_send(plain, 0, 1, 64, 1);
  const auto b = lane_send(with_cfg, 0, 1, 64, 1);
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_FALSE(b.dropped);
  EXPECT_FALSE(b.duplicated);
  EXPECT_FALSE(with_cfg.breakdown().total_faults().any());
}

TEST(FaultInjection, RejectsInvalidRates) {
  EXPECT_THROW(CommFabric(MachineModel::zero_cost(),
                          fault_config(1.5, 0.0)),
               Error);
  EXPECT_THROW(CommFabric(MachineModel::zero_cost(),
                          fault_config(0.0, -0.1)),
               Error);
  FabricConfig bad_delay;
  bad_delay.fault.delay_rate = 0.5;  // no max_extra_delay_seconds
  EXPECT_THROW(CommFabric(MachineModel::zero_cost(), bad_delay), Error);
  FabricConfig bad_attempts = fault_config(0.1, 0.0);
  bad_attempts.fault.max_attempts = 0;
  EXPECT_THROW(CommFabric(MachineModel::zero_cost(), bad_attempts), Error);
}

TEST(FaultInjection, CertainDropLosesEveryMessageAndCountsIt) {
  CommFabric fabric(MachineModel::blue_gene_p(), fault_config(1.0, 0.0));
  fabric.add_rank();
  fabric.add_rank();
  for (int i = 0; i < 10; ++i) {
    const auto receipt = lane_send(fabric, 0, 1, 32, 1);
    EXPECT_TRUE(receipt.dropped);
    EXPECT_FALSE(receipt.duplicated);  // dropped messages never duplicate
  }
  // Sends are still accounted (the sender did send); drops are charged to
  // the sending rank.
  EXPECT_EQ(fabric.comm().messages, 10);
  const FaultStats total = fabric.breakdown().total_faults();
  EXPECT_EQ(total.drops, 10);
  EXPECT_EQ(total.duplicates, 0);
  ASSERT_EQ(fabric.breakdown().per_rank_faults.size(), 2u);
  EXPECT_EQ(fabric.breakdown().per_rank_faults[0].drops, 10);
  EXPECT_EQ(fabric.breakdown().per_rank_faults[1].drops, 0);
}

TEST(FaultInjection, CertainDuplicationDeliversASecondCopyNoEarlier) {
  CommFabric fabric(MachineModel::blue_gene_p(), fault_config(0.0, 1.0));
  fabric.add_rank();
  fabric.add_rank();
  for (int i = 0; i < 10; ++i) {
    const auto receipt = lane_send(fabric, 0, 1, 32, 1);
    EXPECT_FALSE(receipt.dropped);
    EXPECT_TRUE(receipt.duplicated);
    EXPECT_GE(receipt.duplicate_arrival, receipt.arrival);
  }
  EXPECT_EQ(fabric.breakdown().total_faults().duplicates, 10);
}

TEST(FaultInjection, InjectedDelayOnlyDefersArrival) {
  const MachineModel m = MachineModel::blue_gene_p();
  CommFabric fabric(m, fault_config(0.0, 0.0, 1.0));
  fabric.add_rank();
  fabric.add_rank();
  const auto receipt = lane_send(fabric, 0, 1, 64, 1);
  const double undelayed = m.send_overhead + m.message_seconds(64.0);
  EXPECT_FALSE(receipt.dropped);
  EXPECT_GE(receipt.arrival, undelayed);
  EXPECT_LE(receipt.arrival, undelayed + 1e-5);
}

TEST(FaultInjection, VerdictsAreDeterministicInTheSeed) {
  auto verdicts = [](std::uint64_t seed) {
    CommFabric fabric(MachineModel::blue_gene_p(),
                      fault_config(0.3, 0.2, 0.0, seed));
    fabric.add_rank();
    fabric.add_rank();
    std::vector<int> out;
    for (int i = 0; i < 64; ++i) {
      const auto receipt = lane_send(fabric, 0, 1, 32, 1);
      out.push_back(receipt.dropped ? 2 : (receipt.duplicated ? 1 : 0));
    }
    return out;
  };
  EXPECT_EQ(verdicts(7), verdicts(7));
  EXPECT_NE(verdicts(7), verdicts(8));
  // Rates in (0,1) produce a mix, not all-or-nothing.
  const auto v = verdicts(7);
  EXPECT_NE(std::count(v.begin(), v.end(), 0), 0);
  EXPECT_NE(std::count(v.begin(), v.end(), 2), 0);
}

TEST(FaultInjection, StallWindowDefersInjectionAndDelivery) {
  const MachineModel m = MachineModel::blue_gene_p();
  FabricConfig config;
  config.fault.stalls.push_back(StallWindow{0, 0.0, 1e-3});
  CommFabric fabric(m, config);
  fabric.add_rank();
  fabric.add_rank();
  EXPECT_TRUE(fabric.config().fault.enabled());
  // Sender rank 0 is stalled at t=0: its send waits for the window to end.
  const auto from_stalled = lane_send(fabric, 0, 1, 8, 1);
  EXPECT_GE(from_stalled.arrival, 1e-3);
  EXPECT_GE(fabric.now(0), 1e-3);
  // A delivery *to* rank 0 inside the window is deferred past it.
  const auto to_stalled = lane_send(fabric, 1, 0, 8, 1);
  EXPECT_GE(to_stalled.arrival, 1e-3);
  EXPECT_LT(fabric.now(1), 1e-3);  // the unstalled sender is not delayed
}

TEST(FaultInjection, StallClearHandlesChainedWindows) {
  FabricConfig config;
  config.fault.stalls.push_back(StallWindow{0, 0.0, 1.0});
  config.fault.stalls.push_back(StallWindow{0, 1.0, 1.0});
  config.fault.stalls.push_back(StallWindow{1, 5.0, 1.0});
  CommFabric fabric(MachineModel::zero_cost(), config);
  fabric.add_rank();
  fabric.add_rank();
  EXPECT_DOUBLE_EQ(fabric.stall_clear(0, 0.5), 2.0);  // hops both windows
  EXPECT_DOUBLE_EQ(fabric.stall_clear(0, 2.5), 2.5);
  EXPECT_DOUBLE_EQ(fabric.stall_clear(1, 0.5), 0.5);  // other rank's window
  EXPECT_DOUBLE_EQ(fabric.stall_clear(1, 5.5), 6.0);
}

TEST(FaultInjection, RecoveryHooksChargeTheBreakdown) {
  CommFabric fabric(MachineModel::blue_gene_p(), fault_config(0.5, 0.0));
  fabric.add_rank();
  fabric.add_rank();
  fabric.note_retry_at(fabric.now(0), 0, 1, 2);
  fabric.note_backoff(0, 1e-4);
  fabric.note_dup_suppressed(1);
  const CommBreakdown& b = fabric.breakdown();
  EXPECT_EQ(b.per_rank_faults[0].retries, 1);
  EXPECT_DOUBLE_EQ(b.per_rank_faults[0].backoff_seconds, 1e-4);
  EXPECT_EQ(b.per_rank_faults[1].dup_suppressed, 1);
  const FaultStats total = b.total_faults();
  EXPECT_TRUE(total.any());
  EXPECT_EQ(total.retries, 1);
  // Round attribution mirrors the rank attribution.
  ASSERT_FALSE(b.per_round_faults.empty());
  EXPECT_EQ(b.per_round_faults[0].retries, 1);
}

// ---- SlotWriters ------------------------------------------------------------

/// Collects every (dst, payload, records) triple a SlotWriters flush emits
/// and decodes the record ids back out for loss/duplication checks.
struct SendLog {
  struct Sent {
    Rank dst;
    std::vector<std::byte> payload;
    std::int64_t records;
  };
  std::vector<Sent> sent;

  auto sink() {
    return [this](Rank dst, std::vector<std::byte> payload,
                  std::int64_t records) {
      sent.push_back({dst, std::move(payload), records});
    };
  }

  [[nodiscard]] std::vector<int> decode_ids() const {
    std::vector<int> ids;
    for (const auto& s : sent) {
      if (s.payload.empty()) {
        EXPECT_EQ(s.records, 0) << "empty frame claimed records";
        continue;
      }
      const FrameReader r(s.payload);
      EXPECT_TRUE(r.valid()) << r.error();
      EXPECT_EQ(r.records(), s.records)
          << "record count disagrees with payload";
      // Throws on trailing bytes after the last record.
      for_each_record<test::IdRecord>(
          s.payload, [&](const test::IdRecord& rec) {
            ids.push_back(static_cast<int>(rec.id));
          });
    }
    return ids;
  }
};

/// The slot of rank `dst` in the sorted destination set `dests`.
std::size_t slot_of(const std::vector<Rank>& dests, Rank dst) {
  return static_cast<std::size_t>(
      std::lower_bound(dests.begin(), dests.end(), dst) - dests.begin());
}

/// Stages ids 0..num_records-1 round-robin over slots {0, 1, 2} and flushes
/// in ascending order; `eager` sends each record on its own as it is staged
/// (the matching's unbundled mode).
std::vector<int> round_trip(bool eager, int num_records, SendLog& log) {
  SlotWriters out({0, 1, 2}, WireCodec::kCompact);
  std::vector<int> staged;
  for (int i = 0; i < num_records; ++i) {
    const auto slot = static_cast<std::size_t>(i % 3);
    out.append(slot, test::IdRecord{i});
    if (eager) out.send_now(slot, log.sink());
    staged.push_back(i);
  }
  out.flush_ascending(log.sink());
  return staged;
}

TEST(SlotWriters, SendNowSendsEachRecordAsItsOwnMessage) {
  SendLog log;
  const auto staged = round_trip(true, 10, log);
  EXPECT_EQ(log.sent.size(), 10u);
  for (const auto& s : log.sent) EXPECT_EQ(s.records, 1);
  auto ids = log.decode_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, staged);
}

TEST(SlotWriters, FlushLosesAndDuplicatesNothing) {
  SendLog log;
  const auto staged = round_trip(false, 30, log);
  // One message per destination that has records (3 destinations here).
  EXPECT_EQ(log.sent.size(), 3u);
  auto ids = log.decode_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, staged);
}

TEST(SlotWriters, FlushAscendingEmitsInDestinationOrder) {
  // Determinism pin: flush order must be the sorted destination order,
  // never the order destinations were first touched in — the send
  // sequence feeds FIFO channels, jitter and fault verdicts.
  SendLog log;
  const Rank dsts[] = {41, 3, 29, 7, 101, 0, 57, 19, 83, 11,
                       67, 5, 97, 23, 31, 2,  89, 13, 71, 47};
  std::vector<Rank> neighbours(std::begin(dsts), std::end(dsts));
  std::sort(neighbours.begin(), neighbours.end());
  SlotWriters out(neighbours, WireCodec::kCompact);
  for (const Rank dst : dsts) {
    out.append(slot_of(neighbours, dst), test::IdRecord{dst});
  }
  out.flush_ascending(log.sink());
  ASSERT_EQ(log.sent.size(), std::size(dsts));
  for (std::size_t i = 1; i < log.sent.size(); ++i) {
    EXPECT_LT(log.sent[i - 1].dst, log.sent[i].dst);
  }
}

TEST(SlotWriters, SecondFlushSendsNothing) {
  SendLog log;
  SlotWriters out({1}, WireCodec::kCompact);
  out.append(0, test::IdRecord{7});
  out.flush_ascending(log.sink());
  const std::size_t after_first = log.sent.size();
  out.flush_ascending(log.sink());
  EXPECT_EQ(log.sent.size(), after_first);
  EXPECT_EQ(out.staged_records(), 0);
}

TEST(SlotWriters, FlushAfterTouchingOneOfManyNeighboursSendsOneMessage) {
  std::vector<Rank> neighbours;
  for (Rank r = 1; r <= 200; r += 2) neighbours.push_back(r);
  SlotWriters out(neighbours, WireCodec::kCompact);
  SendLog log;
  out.append(slot_of(neighbours, 77), test::IdRecord{5});
  out.append(slot_of(neighbours, 77), test::IdRecord{6});
  EXPECT_EQ(out.staged_records(), 2);
  out.flush_ascending(log.sink());
  ASSERT_EQ(log.sent.size(), 1u);
  EXPECT_EQ(log.sent[0].dst, 77);
  EXPECT_EQ(log.sent[0].records, 2);
  EXPECT_EQ(log.decode_ids(), (std::vector<int>{5, 6}));
}

TEST(SlotWriters, RejectsASlotOutsideItsDestinationSet) {
  SendLog log;
  SlotWriters out({2, 5, 9}, WireCodec::kCompact);
  EXPECT_THROW(out.append(3, test::IdRecord{1}), Error);
  EXPECT_THROW(out.append(10, test::IdRecord{1}), Error);
  EXPECT_THROW(out.append(kNoSlot, test::IdRecord{1}), Error);
  out.flush_ascending(log.sink());
  EXPECT_TRUE(log.sent.empty());
  EXPECT_THROW(SlotWriters({5, 2}, WireCodec::kCompact), Error);
  EXPECT_THROW(SlotWriters({2, 2}, WireCodec::kCompact), Error);
}

TEST(SlotWriters, FlushesTouchedSlotsInAscendingOrFirstTouchOrder) {
  // The core FanoutStage builds on: the same staging, flushed in
  // first-touch order (FanoutStage's NEW policy), then in ascending slot =
  // rank order (the matching, the verifiers, Jones–Plassmann).
  SlotWriters out({2, 5, 9}, WireCodec::kCompact);
  const auto stage = [&] {
    out.append(2, test::IdRecord{0});
    out.append(0, test::IdRecord{1});
    out.append(2, test::IdRecord{2});
    out.append(1, test::IdRecord{3});
  };
  SendLog first;
  stage();
  EXPECT_EQ(out.staged_records(), 4);
  out.flush_first_touch(first.sink());
  ASSERT_EQ(first.sent.size(), 3u);
  EXPECT_EQ(first.sent[0].dst, 9);
  EXPECT_EQ(first.sent[0].records, 2);
  EXPECT_EQ(first.sent[1].dst, 2);
  EXPECT_EQ(first.sent[2].dst, 5);
  EXPECT_EQ(first.decode_ids(), (std::vector<int>{0, 2, 1, 3}));
  EXPECT_EQ(out.staged_records(), 0);

  SendLog ascending;
  stage();
  out.flush_ascending(ascending.sink());
  ASSERT_EQ(ascending.sent.size(), 3u);
  EXPECT_EQ(ascending.sent[0].dst, 2);
  EXPECT_EQ(ascending.sent[1].dst, 5);
  EXPECT_EQ(ascending.sent[2].dst, 9);
  EXPECT_EQ(ascending.sent[2].records, 2);
  EXPECT_EQ(ascending.decode_ids(), (std::vector<int>{1, 3, 0, 2}));

  // Either flush resets the touched list: nothing is left to send.
  out.flush_first_touch(ascending.sink());
  out.flush_ascending(ascending.sink());
  EXPECT_EQ(ascending.sent.size(), 3u);
  EXPECT_THROW(SlotWriters({9, 2}, WireCodec::kCompact), Error);
}

// ---- FanoutStage ------------------------------------------------------------

TEST(FanoutStage, CustomizedNeighborsSendsOnlyToTouchedRanks) {
  FanoutStage stage(4, {1, 2, 3});
  SendLog log;
  stage.stage(0, VertexId{10}, Color{2});  // rank 1
  stage.stage(2, VertexId{11}, Color{4});  // rank 3
  stage.stage(0, VertexId{12}, Color{1});
  stage.flush(SendPolicy::kCustomizedNeighbors, 0, log.sink());
  ASSERT_EQ(log.sent.size(), 2u);
  EXPECT_EQ(log.sent[0].dst, 1);
  EXPECT_EQ(log.sent[0].records, 2);
  EXPECT_EQ(log.sent[1].dst, 3);
  EXPECT_EQ(log.sent[1].records, 1);
}

TEST(FanoutStage, CustomizedNeighborsFlushesInFirstTouchOrder) {
  FanoutStage stage(4, {1, 3});
  SendLog log;
  stage.stage(1, VertexId{10}, Color{2});  // rank 3
  stage.stage(0, VertexId{11}, Color{4});  // rank 1
  stage.stage(1, VertexId{12}, Color{1});
  stage.flush(SendPolicy::kCustomizedNeighbors, 0, log.sink());
  ASSERT_EQ(log.sent.size(), 2u);
  EXPECT_EQ(log.sent[0].dst, 3);
  EXPECT_EQ(log.sent[0].records, 2);
  EXPECT_EQ(log.sent[1].dst, 1);
  EXPECT_EQ(log.sent[1].records, 1);
}

TEST(FanoutStage, CustomizedAllSendsPossiblyEmptyMessageToEveryOtherRank) {
  FanoutStage stage(4, {0, 1, 3});
  SendLog log;
  stage.stage(1, VertexId{10}, Color{2});  // rank 1
  stage.flush(SendPolicy::kCustomizedAll, 2, log.sink());
  // Three messages (every rank but the source), only one non-empty.
  ASSERT_EQ(log.sent.size(), 3u);
  std::int64_t nonempty = 0;
  for (const auto& s : log.sent) {
    EXPECT_NE(s.dst, 2);
    if (!s.payload.empty()) ++nonempty;
  }
  EXPECT_EQ(nonempty, 1);
}

TEST(FanoutStage, CustomizedAllSendsEmptyFramesToRanksOutsideTheSet) {
  FanoutStage stage(4, {1});
  SendLog log;
  stage.stage(0, VertexId{10}, Color{2});  // rank 1
  stage.flush(SendPolicy::kCustomizedAll, 2, log.sink());
  // Every rank but the source, in ascending order; only rank 1 (the one
  // destination-set member) carries bytes.
  ASSERT_EQ(log.sent.size(), 3u);
  const std::vector<Rank> expected_dst = {0, 1, 3};
  for (std::size_t i = 0; i < log.sent.size(); ++i) {
    const auto& s = log.sent[i];
    EXPECT_EQ(s.dst, expected_dst[i]);
    if (s.dst == 1) {
      EXPECT_FALSE(s.payload.empty());
      EXPECT_EQ(s.records, 1);
    } else {
      EXPECT_TRUE(s.payload.empty());
      EXPECT_EQ(s.records, 0);
    }
  }
}

TEST(FanoutStage, StagingAnOutOfRangeSlotThrows) {
  FanoutStage stage(4, {1, 3});
  EXPECT_THROW(stage.stage(2, VertexId{10}, Color{0}), Error);
  EXPECT_THROW(stage.stage(kNoSlot, VertexId{10}, Color{0}), Error);
  EXPECT_THROW((FanoutStage(4, {3, 1})), Error);  // unsorted
  EXPECT_THROW((FanoutStage(4, {1, 1})), Error);  // duplicate
}

TEST(FanoutStage, BroadcastUnionCopiesTheUnionToEveryOtherRank) {
  FanoutStage stage(4, {});
  SendLog log;
  stage.stage_union(VertexId{10}, Color{2});
  stage.stage_union(VertexId{11}, Color{3});
  stage.flush(SendPolicy::kBroadcastUnion, 1, log.sink());
  ASSERT_EQ(log.sent.size(), 3u);
  for (const auto& s : log.sent) {
    EXPECT_NE(s.dst, 1);
    EXPECT_EQ(s.records, 2);
    EXPECT_EQ(s.payload, log.sent.front().payload);
  }
}

TEST(FanoutStage, FlushResetsStateBetweenSupersteps) {
  FanoutStage stage(3, {1});
  SendLog log;
  stage.stage(0, VertexId{10}, Color{0});
  stage.flush(SendPolicy::kCustomizedNeighbors, 0, log.sink());
  stage.flush(SendPolicy::kCustomizedNeighbors, 0, log.sink());
  EXPECT_EQ(log.sent.size(), 1u);  // nothing staged for the second flush
}

// ---- JSONL sink -------------------------------------------------------------

TEST(CommTrace, JsonlSinkRecordsSendsAndCollectives) {
  FabricConfig config;
  config.trace.jsonl_path = test::unique_temp_path("pmc_fabric_trace.jsonl");
  {
    CommFabric fabric(MachineModel::blue_gene_p(), config);
    fabric.add_rank();
    fabric.add_rank();
    fabric.set_round(0, 1);
    (void)lane_send(fabric, 0, 1, 16, 2);
    fabric.complete_collective(fabric.max_time());
  }  // closes the sink
  std::ifstream in(config.trace.jsonl_path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::remove(config.trace.jsonl_path.c_str());
  ASSERT_EQ(lines.size(), 3u);  // round, send, collective
  EXPECT_NE(lines[0].find(R"("ev":"round")"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("ev":"send")"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("records":2)"), std::string::npos);
  EXPECT_NE(lines[2].find(R"("ev":"collective")"), std::string::npos);
}

// ---- cross-engine determinism and breakdown consistency --------------------

CommStats sum_stats(const std::vector<CommStats>& parts) {
  CommStats total;
  for (const CommStats& s : parts) {
    total.messages += s.messages;
    total.bytes += s.bytes;
    total.records += s.records;
  }
  return total;
}

void expect_breakdown_consistent(const RunResult& run) {
  const CommStats by_rank = sum_stats(run.breakdown.per_rank);
  EXPECT_EQ(by_rank.messages, run.comm.messages);
  EXPECT_EQ(by_rank.bytes, run.comm.bytes);
  EXPECT_EQ(by_rank.records, run.comm.records);
  const CommStats by_round = sum_stats(run.breakdown.per_round);
  EXPECT_EQ(by_round.messages, run.comm.messages);
  EXPECT_EQ(by_round.bytes, run.comm.bytes);
  EXPECT_EQ(by_round.records, run.comm.records);
  const std::int64_t histogram_total =
      std::accumulate(run.breakdown.message_size_histogram.begin(),
                      run.breakdown.message_size_histogram.end(),
                      std::int64_t{0});
  EXPECT_EQ(histogram_total, run.comm.messages);
}

TEST(FabricDeterminism, EventEngineRunsAreBitIdenticalAndConsistent) {
  const Graph g = grid_2d(24, 24, WeightKind::kUniformRandom, 5);
  const Partition p = grid_2d_partition(24, 24, 2, 2);
  const DistGraph dist = DistGraph::build(g, p);
  DistMatchingOptions options;
  const auto a = match_distributed(dist, options);
  const auto b = match_distributed(dist, options);
  EXPECT_EQ(a.run.sim_seconds, b.run.sim_seconds);
  EXPECT_EQ(a.run.comm.messages, b.run.comm.messages);
  EXPECT_EQ(a.run.comm.bytes, b.run.comm.bytes);
  EXPECT_EQ(a.run.comm.records, b.run.comm.records);
  expect_breakdown_consistent(a.run);
}

TEST(FabricDeterminism, BspEngineRunsAreBitIdenticalAndConsistent) {
  const Graph g = circuit_like(600, 1200, 5, WeightKind::kUnit, 9);
  const Partition p = block_partition(g.num_vertices(), 4);
  const auto options = DistColoringOptions::improved();
  const auto a = color_distributed(g, p, options);
  const auto b = color_distributed(g, p, options);
  EXPECT_EQ(a.run.sim_seconds, b.run.sim_seconds);
  EXPECT_EQ(a.run.comm.messages, b.run.comm.messages);
  EXPECT_EQ(a.run.comm.bytes, b.run.comm.bytes);
  EXPECT_EQ(a.run.comm.records, b.run.comm.records);
  EXPECT_EQ(a.run.comm.collectives, b.run.comm.collectives);
  expect_breakdown_consistent(a.run);
}

}  // namespace
}  // namespace pmc
