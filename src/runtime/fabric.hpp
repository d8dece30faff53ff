// Shared communication fabric of the simulated runtimes.
//
// EventEngine (asynchronous, message-driven) and BspEngine (superstep /
// barrier) each used to hand-roll the same mechanics: per-rank virtual
// clocks, the per-(src,dst) channel FIFO non-overtaking rule, alpha-beta
// cost charging, and CommStats accounting. CommFabric owns all of it once;
// the engines keep only their scheduling discipline (a global event queue
// vs per-rank inboxes) and compose the fabric.
//
// The fabric also owns the per-neighbour staging the paper's algorithms
// share. Its core, SlotWriters, keeps one writer per neighbour slot (an
// index into a LocalGraph's neighbor_ranks()) and flushes the touched ones
// in ascending or first-touch order; two helpers build on it:
//
//   * Bundler — per-destination record aggregation (the matching paper's
//     §3.3 "aggressive message bundling") with eager, bundled, and
//     flush-on-threshold modes. Eager mode is the unbundled ablation
//     baseline: every record travels as its own message.
//   * FanoutStage — per-source staging of boundary records, flushed under
//     one of the coloring paper's §4.2 send policies: kBroadcastUnion
//     (FIAB), kCustomizedAll (FIAC), or kCustomizedNeighbors (NEW).
//
// All modelled-time semantics (send overhead, latency + inverse-bandwidth
// cost, FIFO channels, deterministic jitter) are bit-identical to the
// pre-fabric engines; tests/test_determinism_regression.cpp pins this.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "runtime/comm_stats.hpp"
#include "runtime/machine_model.hpp"
#include "runtime/serialize.hpp"
#include "runtime/trace.hpp"
#include "support/types.hpp"

namespace pmc {

/// Who receives a superstep's staged boundary records (the coloring paper's
/// §4.2 communication modes).
enum class SendPolicy {
  kBroadcastUnion,       ///< FIAB: same union payload to every other rank.
  kCustomizedAll,        ///< FIAC: customized (possibly empty) message to all.
  kCustomizedNeighbors,  ///< NEW: customized messages, touched ranks only.
};

/// One interval during which a rank's network is unavailable: messages it
/// would inject, and messages that would arrive at it, wait for the window
/// to close (a transient node stall, not a crash — no state is lost).
struct StallWindow {
  Rank rank = 0;
  double start = 0.0;
  double duration = 0.0;
};

/// Deterministic fault-injection knobs. Every per-message verdict is a pure
/// function of (seed, global send sequence number), so a fixed seed gives a
/// bit-identical fault schedule; with all rates zero and no stall windows the
/// layer is inert and the fabric behaves exactly as without it.
struct FaultConfig {
  double drop_rate = 0.0;       ///< P(message silently lost).
  double duplicate_rate = 0.0;  ///< P(second copy delivered); never on drops
                                ///< or corruptions.
  double delay_rate = 0.0;      ///< P(extra delay added to arrival).
  /// P(message garbled in flight). The message still arrives; the engine
  /// flips a bit of the delivered bytes and the frame checksum catches it —
  /// a detected corruption routes into retry (event engine) or repair
  /// re-entry (BSP paths) instead of being decoded.
  double corrupt_rate = 0.0;
  /// Upper bound on the injected extra delay (and on the duplicate copy's
  /// lag behind the original).
  double max_extra_delay_seconds = 0.0;
  std::uint64_t seed = 0;  ///< Verdict stream seed (independent of jitter).
  /// Per-rank network-unavailability intervals.
  std::vector<StallWindow> stalls;

  // Recovery protocol (used by the engines' reliable transport, not by the
  // fabric itself). Defaults sized for blue_gene_p-scale latencies: the
  // first timeout fires at ~7x the one-way latency.
  double rto_seconds = 25e-6;  ///< Initial retransmission timeout.
  double rto_backoff = 2.0;    ///< Timeout multiplier per failed attempt.
  int max_attempts = 12;       ///< Total tries per message (1 = no retry).
  /// When true, the final attempt bypasses fault injection (the model for
  /// "escalate to a reliable path"), guaranteeing termination. When false,
  /// exhausting the budget on a lost message is a hard error.
  bool reliable_tail = true;

  [[nodiscard]] bool enabled() const noexcept {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || delay_rate > 0.0 ||
           corrupt_rate > 0.0 || !stalls.empty();
  }
};

/// Construction options for a CommFabric.
struct FabricConfig {
  /// > 0 adds a deterministic pseudo-random delay in [0, jitter_seconds)
  /// to each message arrival (per-message, derived from jitter_seed).
  double jitter_seconds = 0.0;
  std::uint64_t jitter_seed = 0;
  FaultConfig fault;
  TraceConfig trace;
};

/// Shared clock/cost/accounting substrate composed by both engines.
class CommFabric {
 public:
  using Config = FabricConfig;

  /// What post_send_at() hands back to the engine's scheduler.
  struct SendReceipt {
    double arrival = 0.0;    ///< Modelled arrival time (FIFO-adjusted).
    std::uint64_t seq = 0;   ///< Global send sequence number (tie-breaker).
    bool dropped = false;    ///< Fault layer lost the message (no delivery).
    bool duplicated = false; ///< A second copy arrives at duplicate_arrival.
    /// Fault layer garbled the message in flight: it arrives, but the
    /// engine delivers flipped bytes and the frame checksum rejects them.
    bool corrupted = false;
    double duplicate_arrival = 0.0;
  };

  class Lane;

  /// One message whose sender-side cost (stall wait, software overhead) a
  /// Lane has already paid, waiting to be priced by post_send_at(). Only
  /// Lane::begin_send() creates a ticket and only post_send_at() consumes
  /// one, so every engine send is priced at a lane-recorded send time. The
  /// ticket is move-only; destroying one that was never posted (outside
  /// exception unwinding) aborts — its overhead was charged, but the send
  /// would never reach CommStats or the alpha-beta model.
  class [[nodiscard]] SendTicket {
   public:
    SendTicket(SendTicket&& other) noexcept;
    SendTicket& operator=(SendTicket&&) = delete;
    ~SendTicket();

    [[nodiscard]] Rank src() const noexcept { return src_; }
    /// The lane clock at the send point (what the message is priced at).
    [[nodiscard]] double time() const noexcept { return time_; }

   private:
    friend class CommFabric;
    friend class Lane;
    SendTicket(Rank src, double time, bool fault_exempt) noexcept;

    Rank src_;
    double time_;
    bool fault_exempt_;
    bool live_ = true;
    /// std::uncaught_exceptions() at creation: a ticket dropped by stack
    /// unwinding belongs to an abandoned phase and may die unposted.
    int unwinding_;
  };

  explicit CommFabric(MachineModel model, Config config = {});

  /// Registers one more rank; returns its id (registration order).
  Rank add_rank();

  [[nodiscard]] Rank num_ranks() const noexcept {
    return static_cast<Rank>(clocks_.size());
  }
  [[nodiscard]] const MachineModel& model() const noexcept { return model_; }

  // ---- clocks ------------------------------------------------------------

  [[nodiscard]] double now(Rank r) const {
    return clocks_[static_cast<std::size_t>(r)];
  }

  /// Modelled parallel time so far (max over rank clocks).
  [[nodiscard]] double max_time() const;

  // ---- point-to-point ------------------------------------------------------

  /// The shared send path: prices the ticketed message with the alpha-beta
  /// model (+ optional deterministic jitter) from the ticket's send time,
  /// enforces FIFO non-overtaking on the (src, dst) channel, and accounts
  /// the message in CommStats and the trace. The engine schedules delivery
  /// at the returned arrival time. The sender's live clock is never read or
  /// moved (the lane already paid the sender-side costs), so replaying a
  /// phase's tickets in a deterministic order reproduces sequence numbers,
  /// jitter and fault verdicts, channel FIFO state and trace events
  /// bit-for-bit at every thread count.
  ///
  /// When fault injection is configured (config().fault.enabled()) the
  /// receipt may additionally report the message dropped, duplicated or
  /// corrupted, and the arrival is deferred past any stall window covering
  /// dst. Fault-exempt tickets (the reliable tail) bypass the verdicts but
  /// still consume a sequence number.
  SendReceipt post_send_at(SendTicket ticket, Rank dst,
                           std::size_t payload_bytes, std::int64_t records);

  // ---- collectives ---------------------------------------------------------

  /// Completes a barrier/allreduce: every clock advances to `horizon` (the
  /// caller's max over clocks and in-flight arrivals) plus the collective
  /// cost for the current rank count.
  void complete_collective(double horizon);

  // ---- instrumentation passthrough ---------------------------------------

  void set_round(Rank r, int round) { trace_.set_round(r, round); }
  void set_round_all(int round) { trace_.set_round_all(round); }

  /// Recovery-protocol accounting hooks for the engines' reliable transport
  /// (the fabric injects faults; the engines recover and report here).
  void note_backoff(Rank src, double seconds) {
    trace_.on_backoff(src, seconds);
  }
  /// The receiver suppressed a duplicate / rejected a garbled frame, noted
  /// at its current clock.
  void note_dup_suppressed(Rank dst) {
    trace_.on_dup_suppressed(now(dst), dst);
  }
  void note_corruption_detected(Rank dst) {
    trace_.on_corruption_detected(now(dst), dst);
  }

  /// Time-explicit variants of the recovery hooks, for replaying a lane's
  /// recorded notes: the note carries the lane clock at the moment it was
  /// made, and the replay reports it here verbatim.
  void note_retry_at(double time, Rank src, Rank dst, int attempt) {
    trace_.on_retry(time, src, dst, attempt);
  }
  void note_dup_suppressed_at(double time, Rank dst) {
    trace_.on_dup_suppressed(time, dst);
  }
  void note_corruption_detected_at(double time, Rank dst) {
    trace_.on_corruption_detected(time, dst);
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Earliest time >= t at which rank r's network is outside every stall
  /// window (identity when no window covers t).
  [[nodiscard]] double stall_clear(Rank r, double t) const;

  // ---- lanes: the one way rank code touches the fabric --------------------

  /// Private per-rank accounting replica. Every rank callback of either
  /// engine charges compute and pays sender-side message costs against its
  /// own Lane, while only *reading* shared fabric state (model, config,
  /// stall windows); the engine then absorbs the lane and replays the
  /// callback's recorded sends in a deterministic order, which fixes the
  /// global order of the shared counters (send sequence, channel FIFO,
  /// CommStats, trace sink). A sequential backend runs the same lanes
  /// inline, so every thread count executes one code path.
  class Lane {
   public:
    Lane() = default;

    [[nodiscard]] Rank rank() const noexcept { return rank_; }
    [[nodiscard]] double now() const noexcept { return clock_; }

    /// Charges work_units of compute (attributed to the lane's current
    /// phase, or to an explicit one-shot phase).
    void charge(double work_units);
    void charge(double work_units, WorkPhase phase);

    /// Sets the phase later charges are attributed to (absorbed into the
    /// trace with the lane).
    void set_phase(WorkPhase phase) noexcept { phase_ = phase; }

    /// Delivery of an event at time t: clock = max(clock, t).
    void advance_to(double t) noexcept { clock_ = std::max(clock_, t); }

    /// Applies the sender-side cost of one message (stall wait unless the
    /// send is fault-exempt, then the software overhead) to the replica
    /// clock and returns the ticket post_send_at() prices the message with.
    [[nodiscard]] SendTicket begin_send(bool fault_exempt = false);

   private:
    friend class CommFabric;
    Lane(const CommFabric& fabric, Rank r);

    const CommFabric* fabric_ = nullptr;
    Rank rank_ = -1;
    double clock_ = 0.0;
    double compute_seconds_ = 0.0;
    double interior_seconds_ = 0.0;
    double boundary_seconds_ = 0.0;
    double other_seconds_ = 0.0;
    WorkPhase phase_ = WorkPhase::kOther;
  };

  /// Snapshot of rank r's accounting (clock, charged compute, phase timers,
  /// current phase label) to run a rank callback against.
  [[nodiscard]] Lane make_lane(Rank r) const { return Lane(*this, r); }

  /// Installs a lane's final accounting back into the fabric (assignment,
  /// not accumulation — the lane already contains the snapshot baseline).
  void absorb_lane(const Lane& lane);

  // ---- results -------------------------------------------------------------

  [[nodiscard]] const CommStats& comm() const noexcept { return comm_; }
  [[nodiscard]] const CommBreakdown& breakdown() const noexcept {
    return trace_.breakdown();
  }

  /// Per-rank charged-compute distribution (load balance).
  [[nodiscard]] LoadStats load_stats() const;

  /// Fills run with sim_seconds (max clock), comm, load and breakdown.
  void export_into(RunResult& run) const;

 private:
  MachineModel model_;
  Config config_;
  std::vector<double> clocks_;
  /// Charged compute seconds per rank (load-balance statistics).
  std::vector<double> compute_seconds_;
  /// Last scheduled arrival per (src, dst) channel, enforcing FIFO order:
  /// per source, (dst, arrival) pairs sorted by dst. They grow with the
  /// channels a run uses (graph neighbours), where a dense P*P array would
  /// not scale to 16k ranks.
  std::vector<std::vector<std::pair<Rank, double>>> channel_last_arrival_;
  std::uint64_t send_seq_ = 0;
  CommStats comm_;
  CommTrace trace_;
};

/// `ctx.send` of either engine's rank context as the send callable the
/// staging types below flush to.
template <typename Ctx>
[[nodiscard]] auto sender(Ctx& ctx) {
  return [&ctx](Rank dst, std::vector<std::byte> payload,
                std::int64_t records) {
    ctx.send(dst, std::move(payload), records);
  };
}

/// One FrameWriter per destination slot: the per-neighbour staging core of
/// Bundler and FanoutStage, which the verifiers and Jones–Plassmann also
/// use directly. A slot indexes a sorted, unique rank list — in practice a
/// LocalGraph's neighbor_ranks() — so callers stage by the slots LocalGraph
/// holds (ghost_slot(), boundary_slots()), and ascending slots are
/// ascending ranks. A flush sends the writers touched since the last one,
/// in ascending or first-touch order, as (dst rank, frame, record count).
class SlotWriters {
 public:
  SlotWriters() = default;
  /// `dests` — the rank of every slot — must be sorted and unique.
  SlotWriters(std::vector<Rank> dests, WireCodec codec)
      : dests_(std::move(dests)), out_(dests_.size(), FrameWriter(codec)) {
    PMC_CHECK(std::adjacent_find(dests_.begin(), dests_.end(),
                                 std::greater_equal<>()) == dests_.end(),
              "destination set must be sorted and unique");
  }

  /// Appends one record to `slot`'s writer; the slot must be in range.
  template <typename R>
  const FrameWriter& append(std::size_t slot, const R& record) {
    PMC_CHECK(slot < out_.size(), "slot " << slot
                                          << " is outside a destination set of "
                                          << out_.size() << " ranks");
    FrameWriter& w = out_[slot];
    // send_now() empties a writer without untouching it, so a slot may
    // repeat here; the flushes send each writer once, while non-empty.
    if (w.empty()) touched_.push_back(slot);
    w.append(record);
    return w;
  }

  /// Sends `slot`'s staged records now.
  template <typename SendFn>
  void send_now(std::size_t slot, SendFn& send) {
    FrameWriter& w = out_[slot];
    const std::int64_t records = w.records();
    send(dests_[slot], w.take(), records);
  }

  /// Sends every non-empty touched writer in ascending slot (= rank) order.
  template <typename SendFn>
  void flush_ascending(SendFn&& send) {
    std::sort(touched_.begin(), touched_.end());
    flush_first_touch(send);
  }

  /// Sends every non-empty touched writer in the order slots were first
  /// touched since the last flush.
  template <typename SendFn>
  void flush_first_touch(SendFn&& send) {
    for (const std::size_t slot : touched_) {
      if (!out_[slot].empty()) send_now(slot, send);
    }
    touched_.clear();
  }

  /// Records currently staged across all slots.
  [[nodiscard]] std::int64_t staged_records() const noexcept {
    std::int64_t total = 0;
    for (const FrameWriter& w : out_) total += w.records();
    return total;
  }

 private:
  std::vector<Rank> dests_;
  std::vector<FrameWriter> out_;      // parallel to dests_
  std::vector<std::size_t> touched_;  // slots, since the last flush
};

/// How a Bundler treats appended records.
enum class BundleMode {
  kEager,    ///< Each record is sent immediately as its own message.
  kBundled,  ///< Records are staged per destination until flush().
};

/// Per-destination record aggregation — the paper's §3.3 message bundling,
/// promoted from the matching algorithm into the runtime so every algorithm
/// (and the unbundled ablation) shares one implementation.
///
/// Records (any type with a fields() list, see serialize.hpp) are appended
/// to their destination slot's writer (SlotWriters over the rank's
/// neighbour ranks). With a non-zero flush threshold, a destination's bundle
/// is sent as soon as its staged *payload* (pre-frame encoded bytes)
/// reaches the threshold (bounding message size without changing record
/// order).
class Bundler {
 public:
  /// `dests` — the rank of every slot add() may address — must be sorted
  /// and unique.
  Bundler(std::vector<Rank> dests, BundleMode mode,
          std::size_t flush_threshold_bytes = 0,
          WireCodec codec = WireCodec::kCompact)
      : out_(std::move(dests), codec),
        mode_(mode),
        flush_threshold_bytes_(flush_threshold_bytes) {}

  /// Appends one record for destination `slot`, which must be in range.
  /// SendFn is void(Rank, std::vector<std::byte>, std::int64_t records).
  template <typename R, typename SendFn>
  void add(std::size_t slot, const R& record, SendFn&& send) {
    const FrameWriter& w = out_.append(slot, record);
    if (mode_ == BundleMode::kEager ||
        (flush_threshold_bytes_ != 0 &&
         w.payload_size() >= flush_threshold_bytes_)) {
      out_.send_now(slot, send);
    }
  }

  /// Sends every non-empty staged bundle in ascending destination order
  /// (nothing is staged in eager mode): the send sequence feeds FIFO
  /// channels, jitter and fault verdicts downstream, so it must not follow
  /// the order the destinations were first touched in.
  template <typename SendFn>
  void flush(SendFn&& send) {
    out_.flush_ascending(send);
  }

  /// Records currently staged across all destinations.
  [[nodiscard]] std::int64_t staged_records() const noexcept {
    return out_.staged_records();
  }

 private:
  SlotWriters out_;
  BundleMode mode_;
  std::size_t flush_threshold_bytes_;
};

/// The coloring's boundary announcement (§4.2): vertex `vertex` now has
/// color `color`.
struct ColorRecord {
  VertexId vertex = 0;
  Color color = 0;

  template <class IO>
  static void fields(IO& io, ColorRecord& r) {
    io.id(r.vertex);
    io.color(r.color);
  }
};

/// Per-source staging of one superstep's boundary records, flushed under a
/// SendPolicy — the coloring paper's FIAB / FIAC / NEW comparison expressed
/// as a fabric-level primitive. Customized records are staged by slot of
/// the source's destination set (its neighbour ranks), so a rank's staging
/// grows with the ranks it can reach, not with the machine size.
class FanoutStage {
 public:
  FanoutStage() = default;
  /// `dests` — the rank of every slot stage() may address — must be sorted
  /// and unique.
  FanoutStage(Rank num_ranks, std::vector<Rank> dests,
              WireCodec codec = WireCodec::kCompact)
      : num_ranks_(num_ranks),
        out_(std::move(dests), codec),
        union_payload_(codec) {}

  /// Stages one customized (vertex, color) record for destination `slot`
  /// (kCustomizedNeighbors / -All), which must be in range.
  void stage(std::size_t slot, VertexId global, Color c) {
    out_.append(slot, ColorRecord{global, c});
  }

  /// Stages one (vertex, color) record of the shared union payload
  /// (kBroadcastUnion).
  void stage_union(VertexId global, Color c) {
    union_payload_.append(ColorRecord{global, c});
  }

  /// Sends the staged records from src under `policy` and resets the stage.
  /// SendFn is void(Rank dst, std::vector<std::byte>, std::int64_t records).
  template <typename SendFn>
  void flush(SendPolicy policy, Rank src, SendFn&& send) {
    switch (policy) {
      case SendPolicy::kCustomizedNeighbors:
        out_.flush_first_touch(send);
        break;
      case SendPolicy::kCustomizedAll: {
        // Customized content, but a message goes to *every* other rank —
        // empty where nothing was staged. Same count as FIAB, lower volume.
        Rank next = 0;
        const auto send_upto = [&](Rank dst, std::vector<std::byte> bytes,
                                   std::int64_t records) {
          for (; next < dst; ++next) {
            if (next != src) send(next, std::vector<std::byte>{}, 0);
          }
          if (dst < num_ranks_) send(dst, std::move(bytes), records);
          ++next;
        };
        out_.flush_ascending(send_upto);
        send_upto(num_ranks_, {}, 0);
        break;
      }
      case SendPolicy::kBroadcastUnion: {
        const std::int64_t records = union_payload_.records();
        const auto bytes = union_payload_.take();
        for (Rank dst = 0; dst < num_ranks_; ++dst) {
          if (dst == src) continue;
          send(dst, bytes, records);
        }
        break;
      }
    }
  }

 private:
  Rank num_ranks_ = 0;
  SlotWriters out_;
  FrameWriter union_payload_;
};

}  // namespace pmc
