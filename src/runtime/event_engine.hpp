// Asynchronous discrete-event engine — the simulated stand-in for MPI
// point-to-point communication.
//
// Each logical rank is a Process (a message-driven state machine). The
// engine composes the shared CommFabric (runtime/fabric.hpp) for clocks,
// channel FIFO ordering, alpha-beta costs and accounting, and owns only the
// scheduling discipline: a global event queue ordered by arrival time.
// Semantics:
//
//   * Process::start(ctx) runs once per rank; computation advances the
//     rank's clock via ctx.charge(work_units).
//   * ctx.send(dst, payload) timestamps the message with the sender's
//     current clock; arrival = send + latency + beta * (payload + header).
//     Delivery is FIFO per (src, dst) channel, like MPI's non-overtaking
//     guarantee. An optional deterministic jitter perturbs cross-channel
//     delivery order (used by tests to exercise the arrival-order
//     sensitivity discussed around the paper's Fig 3.1).
//   * The engine pops events globally in (time, sequence) order and invokes
//     Process::handle on the destination, after advancing that rank's clock
//     to at least the arrival time. With a threaded backend, dispatch is
//     *windowed*: a batch of events closer together than the model's minimum
//     event-generation lookahead is popped at once, sharded by destination
//     rank across the thread pool (handlers run against private fabric
//     lanes), and the recorded effects are merged back in (time, seq) order
//     — bit-identical to the sequential schedule (DESIGN.md §5c).
//   * When the queue drains and some rank reports !done(), the engine calls
//     Process::idle once per such rank; if that generates no messages and
//     ranks are still unfinished, the run aborts with a deadlock diagnostic.
//
// The modelled parallel time of a run is the maximum rank clock at
// completion — what the paper's "compute time" plots show.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "runtime/comm_stats.hpp"
#include "runtime/exec/backend.hpp"
#include "runtime/fabric.hpp"
#include "runtime/machine_model.hpp"
#include "support/types.hpp"

namespace pmc {

class EventEngine;

/// Per-rank API surface handed to Process callbacks.
///
/// Every context borrows a private fabric lane from the engine (one lane
/// per rank shard; one lane may serve many per-event contexts in sequence):
/// charges go to the lane, and every fabric-visible action — sends, round
/// labels, transport acks/retransmissions, recovery notes — is recorded in
/// program order, then replayed through the fabric in deterministic order
/// once the callback (or dispatch window) ends. A sequential backend runs
/// the same lanes inline, so the event schedule is bit-identical at every
/// thread count.
class EventContext {
 public:
  [[nodiscard]] Rank rank() const noexcept { return lane_->rank(); }

  /// Advances this rank's virtual clock by work_units * seconds_per_work.
  void charge(double work_units) noexcept { lane_->charge(work_units); }

  /// Sends a payload to dst; `records` is the number of algorithm-level
  /// records inside (statistics only).
  void send(Rank dst, std::vector<std::byte> payload, std::int64_t records);

  /// Current virtual time of this rank.
  [[nodiscard]] double now() const noexcept { return lane_->now(); }

  /// Trace attribution (instrumentation only): the round label this rank's
  /// subsequent sends carry, and the phase its charges count toward.
  void set_round(int round);
  void set_phase(WorkPhase phase) noexcept { lane_->set_phase(phase); }

 private:
  friend class EventEngine;

  /// One recorded action; ops replay in their original program order (a
  /// round label attributes the sends that follow it, a transport ack
  /// precedes the handler it unblocked, and so on). Handler-level ops
  /// (kSend/kRound) and engine-level transport ops share one list so a
  /// replay reproduces each event's full effect sequence.
  struct DeferredOp {
    enum class Kind : std::uint8_t {
      kSend,                 ///< Handler ctx.send (first transmission).
      kRound,                ///< Trace round label.
      kAck,                  ///< Transport ack for a delivered data message.
      kRetransmit,           ///< Retry-timer resend of an unacked message.
      kNoteBackoff,          ///< Sender sat out a retry timeout.
      kNoteRetry,            ///< Retry trace/accounting line.
      kNoteDupSuppressed,    ///< Receiver suppressed a duplicate delivery.
      kNoteCorruptDetected,  ///< Receiver rejected a garbled frame.
    };
    Kind kind = Kind::kSend;
    Rank peer = kNoRank;             ///< Send/ack target or retry peer.
    std::vector<std::byte> payload;  ///< kSend; kRetransmit (snapshot).
    std::int64_t records = 0;
    /// kSend/kAck/kRetransmit: the lane-priced send.
    std::optional<CommFabric::SendTicket> ticket;
    double note_time = 0.0;  ///< kNote*: the clock value the note reads.
    double seconds = 0.0;    ///< kNoteBackoff: waited seconds.
    int round = 0;           ///< kRound label.
    int attempt = 0;         ///< kRetransmit/kNoteRetry: attempt number.
    std::uint64_t tseq = 0;  ///< kAck/kRetransmit: transport sequence.
  };

  EventContext(EventEngine& engine, CommFabric::Lane& lane)
      : engine_(&engine), lane_(&lane) {}

  /// Appends an op of `kind` and returns it for the caller to fill in.
  DeferredOp& record(DeferredOp::Kind kind);

  EventEngine* engine_;
  CommFabric::Lane* lane_;  // borrowed
  std::vector<DeferredOp> ops_;
};

/// A rank's algorithm state machine.
class Process {
 public:
  virtual ~Process() = default;

  /// Initial computation; runs once before any message delivery.
  virtual void start(EventContext& ctx) = 0;

  /// Delivery of one message.
  virtual void handle(EventContext& ctx, Rank src,
                      std::span<const std::byte> payload) = 0;

  /// Called when the system is quiescent but this rank is not done. May send
  /// messages to make progress. Default: no-op.
  virtual void idle(EventContext& ctx) { (void)ctx; }

  /// True once this rank's part of the computation is complete.
  [[nodiscard]] virtual bool done() const = 0;

  /// One-line state description for deadlock diagnostics.
  [[nodiscard]] virtual std::string debug_state() const { return "?"; }
};

/// Discrete-event scheduler over a set of rank Processes.
class EventEngine {
 public:
  /// Full-configuration constructor. When config.fault is enabled the
  /// engine layers a reliable transport over the lossy fabric: every data
  /// message carries a per-channel transport sequence number (plus a small
  /// modelled header), the receiver acknowledges and suppresses duplicate
  /// sequence numbers, and the sender retransmits unacknowledged messages
  /// on an exponential-backoff timer up to fault.max_attempts tries (the
  /// final try escalating to a fault-exempt path when fault.reliable_tail).
  /// With faults disabled the transport is absent and behavior is
  /// bit-identical to the pre-fault engine.
  ///
  /// `exec` selects the execution backend: with exec.threads > 1 the
  /// per-rank start() and idle() fan-outs run on a work-stealing pool, and
  /// event dispatch runs *windowed*: batches of events within the model's
  /// minimum event-generation lookahead are sharded by destination rank
  /// across the pool and their recorded effects merged in (time, seq) order.
  /// Every path runs its contexts over private fabric lanes and replays
  /// their recorded effects in order, so the observable run is
  /// bit-identical at every thread count.
  EventEngine(MachineModel model, FabricConfig config, ExecConfig exec = {});

  /// `jitter_seconds` > 0 adds a deterministic pseudo-random delay in
  /// [0, jitter_seconds) to each message arrival (per-message, derived from
  /// `jitter_seed`), exercising alternative delivery interleavings.
  explicit EventEngine(MachineModel model, double jitter_seconds = 0.0,
                       std::uint64_t jitter_seed = 0, TraceConfig trace = {});

  /// Registers a rank process; ranks are numbered in registration order.
  Rank add_process(std::unique_ptr<Process> process);

  [[nodiscard]] Rank num_ranks() const noexcept {
    return static_cast<Rank>(processes_.size());
  }

  /// Runs to completion; throws pmc::Error on deadlock. Returns the run
  /// result (modelled time = max rank clock).
  RunResult run();

  /// Access to a rank's process (e.g. to extract results after run()).
  [[nodiscard]] Process& process(Rank r) { return *processes_[static_cast<std::size_t>(r)]; }

  /// The shared comm substrate (clocks, costs, stats, instrumentation).
  [[nodiscard]] CommFabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const CommFabric& fabric() const noexcept { return fabric_; }

  /// Reliable-transport state summed over the ranks (all zero without
  /// faults): delivered sequence numbers held above the per-channel
  /// watermarks for duplicate suppression (now, and the largest count any
  /// one rank held at once), and unacknowledged messages kept for
  /// retransmission.
  struct TransportFootprint {
    std::size_t out_of_order = 0;
    std::size_t peak_out_of_order = 0;
    std::size_t unacked = 0;
  };
  [[nodiscard]] TransportFootprint transport_footprint() const;

 private:
  friend class EventContext;

  /// Event kinds. kData is an algorithm message; kAck and kTimer exist only
  /// when the reliable transport is active (faults enabled).
  enum class EventKind : std::uint8_t { kData, kAck, kTimer };

  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  ///< Engine-local push order (tie-breaker).
    Rank src = kNoRank;
    Rank dst = kNoRank;
    std::vector<std::byte> payload;
    EventKind kind = EventKind::kData;
    std::uint64_t tseq = 0;  ///< Transport sequence on the (src,dst) channel.
    /// The fabric garbled this copy in flight: the payload carries a flipped
    /// bit and the receiver's checksum validation must reject it.
    bool corrupted = false;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;  // min-heap on time
      return a.seq > b.seq;
    }
  };

  /// An unacknowledged data message kept for retransmission.
  struct Pending {
    std::uint64_t tseq = 0;
    std::vector<std::byte> payload;
    std::int64_t records = 0;
    int attempt = 0;  ///< Tries made so far.
  };

  /// One rank's reliable-transport state towards one peer: the sender side
  /// of the rank -> peer channel and the receiver side of peer -> rank.
  struct PeerChannel {
    Rank peer = kNoRank;
    std::uint64_t next_tseq = 0;   ///< Sender: next sequence to assign.
    std::vector<Pending> unacked;  ///< Sender: ascending tseq.
    /// Receiver: every tseq below the watermark has been delivered; the
    /// ones above it that have (ascending) wait for the gap to close, then
    /// fold into the watermark, so the dedup state is bounded by the
    /// messages in flight (TCP-style cumulative acknowledgement).
    std::uint64_t delivered_below = 0;
    std::vector<std::uint64_t> delivered_above;
  };

  /// Per-rank reliable-transport bookkeeping. Indexed by rank id so the
  /// concurrent shards of a dispatch window touch disjoint slots: a rank's
  /// sender-side state is mutated only by its own timer/ack events and by
  /// the serial replay of its sends, its receiver-side state only by its
  /// own data events.
  struct RankTransport {
    std::vector<PeerChannel> peers;  ///< Sorted by peer; grows on first use.
    std::size_t out_of_order = 0;    ///< Sum of delivered_above sizes.
    std::size_t peak_out_of_order = 0;

    /// The channel to `peer`, created on first use.
    PeerChannel& channel(Rank peer);
    /// Records the delivery of `tseq` from `peer`; false for a duplicate.
    bool mark_delivered(Rank peer, std::uint64_t tseq);
  };

  void push_event(Event ev);
  /// Posts a handler's first transmission of `payload` (ticket from the
  /// sending rank's lane), through the reliable transport when it is on.
  void enqueue(Rank dst, std::vector<std::byte> payload, std::int64_t records,
               CommFabric::SendTicket ticket);
  /// Prices and schedules one (re)transmission of `payload` whose
  /// sender-side clock costs the ticket already paid, arming the next retry
  /// timer unless `attempt` exhausted the budget.
  void transmit(Rank dst, std::uint64_t tseq,
                const std::vector<std::byte>& payload, std::int64_t records,
                int attempt, CommFabric::SendTicket ticket);
  /// Prices and schedules one transport ack. Acks ride the same lossy
  /// fabric but never retry.
  void send_ack(Rank to, std::uint64_t tseq, CommFabric::SendTicket ticket);
  /// Dispatches one event through `ctx`, recording its effects on the
  /// context for replay_ops().
  void dispatch(const Event& ev, EventContext& ctx);
  /// Runs body(ctx) for one rank inline: make lane → body → absorb_lane →
  /// replay_ops (the sequential loop and single-shard windows).
  template <typename Body>
  void run_inline(Rank rank, Body&& body);
  /// Pops the next window of events (all within window_seconds_ of the
  /// queue head), dispatches it sharded by destination rank on the backend,
  /// then merges: absorbs the shard lanes and replays every event's
  /// recorded ops in (time, seq) pop order.
  void dispatch_window();
  /// Replays one context's recorded ops against the live fabric.
  void replay_ops(Rank rank, std::vector<EventContext::DeferredOp>& ops);
  /// Runs start() (phase == kStart) or idle() over `ranks` on the backend
  /// (inline and in order when sequential), merged in rank order.
  enum class FanPhase : std::uint8_t { kStart, kIdle };
  void fan_out(const std::vector<Rank>& ranks, FanPhase phase);

  CommFabric fabric_;
  ExecutionBackend backend_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  std::uint64_t events_posted_ = 0;
  std::uint64_t order_seq_ = 0;
  bool ran_ = false;

  /// Windowed-dispatch lookahead: events closer together than this are safe
  /// to dispatch concurrently because no event can generate a successor
  /// sooner (DESIGN.md §5c). 0 disables windowing (sequential backend, or a
  /// degenerate cost model with no minimum event spacing).
  double window_seconds_ = 0.0;

  /// Reliable transport state, one slot per rank (unused entries stay empty
  /// unless faults are enabled).
  bool transport_ = false;
  std::vector<RankTransport> transport_state_;
};

}  // namespace pmc
