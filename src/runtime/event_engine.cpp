#include "runtime/event_engine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/error.hpp"
#include "support/timer.hpp"

namespace pmc {

namespace {

/// Modelled wire overhead of the reliable transport (faults enabled only):
/// a kind tag plus the 8-byte channel sequence number on every data
/// message, and the same 12 bytes as an ack's whole payload.
constexpr std::size_t kTransportHeaderBytes = 12;
constexpr std::size_t kAckPayloadBytes = 12;

/// The unacked entry with sequence `tseq` (entries ascend), or end().
template <typename Pendings>
auto find_pending(Pendings& unacked, std::uint64_t tseq) {
  const auto it = std::lower_bound(
      unacked.begin(), unacked.end(), tseq,
      [](const auto& p, std::uint64_t t) { return p.tseq < t; });
  return it != unacked.end() && it->tseq == tseq ? it : unacked.end();
}

}  // namespace

EventContext::DeferredOp& EventContext::record(DeferredOp::Kind kind) {
  DeferredOp& op = ops_.emplace_back();
  op.kind = kind;
  return op;
}

void EventContext::send(Rank dst, std::vector<std::byte> payload,
                        std::int64_t records) {
  // With the reliable transport, a one-attempt budget makes the very first
  // transmit the (fault-exempt) reliable tail, which skips the stall wait.
  const FaultConfig& F = engine_->fabric_.config().fault;
  const bool exempt_first =
      engine_->transport_ && F.max_attempts == 1 && F.reliable_tail;
  DeferredOp& op = record(DeferredOp::Kind::kSend);
  op.peer = dst;
  op.payload = std::move(payload);
  op.records = records;
  op.ticket.emplace(lane_->begin_send(exempt_first));
}

void EventContext::set_round(int round) {
  record(DeferredOp::Kind::kRound).round = round;
}

EventEngine::EventEngine(MachineModel model, FabricConfig config,
                         ExecConfig exec)
    : fabric_(std::move(model), std::move(config)),
      backend_(exec),
      transport_(fabric_.config().fault.enabled()) {
  if (backend_.mode() == ExecMode::kThreads) {
    // Minimum spacing between an event and any event its dispatch can
    // generate: every send pays the software overhead, then either the wire
    // latency (data/ack arrival) or a full retransmission timeout (retry
    // timer). Half of that bound is the window span — the margin keeps
    // floating-point associativity drift (computing horizon as W + span vs
    // a generated time as ((t + o) + alpha)) from ever pulling a generated
    // event inside its own window. A degenerate (all-zero) cost model has
    // no spacing; windowing stays off and dispatch falls back to the
    // sequential path.
    const MachineModel& m = fabric_.model();
    double lookahead = m.latency;
    if (transport_) {
      lookahead = std::min(lookahead, fabric_.config().fault.rto_seconds);
    }
    lookahead += m.send_overhead;
    if (lookahead > 0.0) window_seconds_ = 0.5 * lookahead;
  }
}

EventEngine::EventEngine(MachineModel model, double jitter_seconds,
                         std::uint64_t jitter_seed, TraceConfig trace)
    : EventEngine(std::move(model),
                  CommFabric::Config{jitter_seconds, jitter_seed,
                                     FaultConfig{}, std::move(trace)}) {}

Rank EventEngine::add_process(std::unique_ptr<Process> process) {
  PMC_REQUIRE(process != nullptr, "null process");
  PMC_REQUIRE(!ran_, "cannot add processes after run()");
  processes_.push_back(std::move(process));
  transport_state_.emplace_back();
  return fabric_.add_rank();
}

EventEngine::PeerChannel& EventEngine::RankTransport::channel(Rank peer) {
  const auto it = std::lower_bound(
      peers.begin(), peers.end(), peer,
      [](const PeerChannel& c, Rank r) { return c.peer < r; });
  if (it != peers.end() && it->peer == peer) return *it;
  return *peers.insert(it, PeerChannel{.peer = peer});
}

bool EventEngine::RankTransport::mark_delivered(Rank peer,
                                                std::uint64_t tseq) {
  PeerChannel& c = channel(peer);
  if (tseq < c.delivered_below) return false;
  auto& above = c.delivered_above;
  const auto it = std::lower_bound(above.begin(), above.end(), tseq);
  if (it != above.end() && *it == tseq) return false;
  if (tseq != c.delivered_below) {
    above.insert(it, tseq);
    peak_out_of_order = std::max(peak_out_of_order, ++out_of_order);
    return true;
  }
  // The gap at the watermark closed: fold in the run that now follows it.
  auto run = above.begin();
  while (run != above.end() && *run == c.delivered_below + 1) {
    ++run;
    ++c.delivered_below;
  }
  ++c.delivered_below;
  out_of_order -= static_cast<std::size_t>(run - above.begin());
  above.erase(above.begin(), run);
  return true;
}

EventEngine::TransportFootprint EventEngine::transport_footprint() const {
  TransportFootprint f;
  for (const RankTransport& t : transport_state_) {
    f.out_of_order += t.out_of_order;
    f.peak_out_of_order = std::max(f.peak_out_of_order, t.peak_out_of_order);
    for (const PeerChannel& c : t.peers) f.unacked += c.unacked.size();
  }
  return f;
}

void EventEngine::push_event(Event ev) {
  ev.seq = order_seq_++;
  queue_.push(std::move(ev));
  ++events_posted_;
}

void EventEngine::enqueue(Rank dst, std::vector<std::byte> payload,
                          std::int64_t records,
                          CommFabric::SendTicket ticket) {
  const Rank src = ticket.src();
  if (!transport_) {
    const auto receipt =
        fabric_.post_send_at(std::move(ticket), dst, payload.size(), records);
    Event ev;
    ev.time = receipt.arrival;
    ev.src = src;
    ev.dst = dst;
    ev.payload = std::move(payload);
    push_event(std::move(ev));
    return;
  }
  PeerChannel& channel =
      transport_state_[static_cast<std::size_t>(src)].channel(dst);
  const std::uint64_t tseq = channel.next_tseq++;
  Pending& entry = channel.unacked.emplace_back();
  entry.tseq = tseq;
  entry.payload = std::move(payload);
  entry.records = records;
  entry.attempt = 1;
  const FaultConfig& F = fabric_.config().fault;
  const bool exempt = entry.attempt >= F.max_attempts && F.reliable_tail;
  transmit(dst, tseq, entry.payload, entry.records, entry.attempt,
           std::move(ticket));
  // Exempt tail: delivery is guaranteed, drop the retransmission state (a
  // late ack for an earlier try is ignored harmlessly). Without the tail a
  // delivered final try just stops retrying; the entry stays until its ack
  // arrives, or inertly forever if that ack is lost.
  if (exempt) channel.unacked.pop_back();
}

void EventEngine::transmit(Rank dst, std::uint64_t tseq,
                           const std::vector<std::byte>& payload,
                           std::int64_t records, int attempt,
                           CommFabric::SendTicket ticket) {
  const Rank src = ticket.src();
  const double send_time = ticket.time();
  const FaultConfig& F = fabric_.config().fault;
  const bool final_attempt = attempt >= F.max_attempts;
  const auto receipt =
      fabric_.post_send_at(std::move(ticket), dst,
                           payload.size() + kTransportHeaderBytes, records);
  if (receipt.dropped) {
    if (final_attempt) {
      // reliable_tail is off and the last try was lost: no further recovery
      // is possible, fail loudly rather than hang or silently diverge.
      PMC_FAIL("retry budget exhausted: rank " << src << " -> rank " << dst
               << " tseq " << tseq << " lost after " << attempt
               << " attempts");
    }
  } else {
    if (receipt.corrupted && final_attempt) {
      // A corrupted copy will be rejected at the receiver, so without the
      // reliable tail (an exempt send is never corrupted) the message is as
      // lost as a drop — same loud failure.
      PMC_FAIL("retry budget exhausted: rank " << src << " -> rank " << dst
               << " tseq " << tseq << " garbled after " << attempt
               << " attempts");
    }
    Event ev;
    ev.time = receipt.arrival;
    ev.src = src;
    ev.dst = dst;
    ev.payload = payload;  // keep the original for retransmission
    ev.tseq = tseq;
    ev.corrupted = receipt.corrupted;
    // Physically garble the delivered copy (never the retransmission
    // source) so the receiver's checksum check rejects it honestly.
    if (ev.corrupted && !ev.payload.empty()) {
      corrupt_one_bit(ev.payload, receipt.seq);
    }
    push_event(std::move(ev));
    if (receipt.duplicated) {
      Event dup;
      dup.time = receipt.duplicate_arrival;
      dup.src = src;
      dup.dst = dst;
      dup.payload = payload;
      dup.tseq = tseq;
      push_event(std::move(dup));
    }
  }
  if (!final_attempt) {
    Event timer;
    timer.kind = EventKind::kTimer;
    // The timer is armed at the ticket's send time (the live clock has
    // already absorbed the whole lane by the time the replay runs).
    timer.time =
        send_time + F.rto_seconds * std::pow(F.rto_backoff, attempt - 1);
    timer.src = dst;  // peer the pending message targets
    timer.dst = src;  // rank whose timer fires
    timer.tseq = tseq;
    push_event(std::move(timer));
  }
}

void EventEngine::send_ack(Rank to, std::uint64_t tseq,
                           CommFabric::SendTicket ticket) {
  // Acks ride the same lossy fabric (a lost ack is what makes duplicate
  // suppression necessary) but are never themselves retried.
  const Rank from = ticket.src();
  const auto receipt =
      fabric_.post_send_at(std::move(ticket), to, kAckPayloadBytes, 0);
  if (receipt.dropped) return;
  Event ev;
  ev.kind = EventKind::kAck;
  ev.time = receipt.arrival;
  ev.src = from;
  ev.dst = to;
  ev.tseq = tseq;
  // An ack's payload is modelled-only (no bytes to flip): the corrupted
  // flag alone marks it for rejection at the sender.
  ev.corrupted = receipt.corrupted;
  push_event(std::move(ev));
  if (receipt.duplicated) {
    Event dup = ev;
    dup.time = receipt.duplicate_arrival;
    dup.payload.clear();
    push_event(std::move(dup));
  }
}

void EventEngine::dispatch(const Event& ev, EventContext& ctx) {
  using Kind = EventContext::DeferredOp::Kind;
  CommFabric::Lane& lane = *ctx.lane_;
  switch (ev.kind) {
    case EventKind::kData: {
      lane.advance_to(ev.time);
      if (ev.corrupted) {
        // Honest detection: the delivered bytes themselves must fail frame
        // validation (empty payloads have nothing to flip and are rejected
        // outright). No ack — the sender's retry timer recovers.
        PMC_CHECK(ev.payload.empty() || !FrameReader(ev.payload).valid(),
                  "garbled frame passed checksum validation");
        ctx.record(Kind::kNoteCorruptDetected).note_time = lane.now();
        return;
      }
      if (transport_) {
        const bool fresh =
            transport_state_[static_cast<std::size_t>(ev.dst)].mark_delivered(
                ev.src, ev.tseq);
        // Always (re-)ack: the sender may be retrying because an earlier
        // ack was lost.
        EventContext::DeferredOp& ack = ctx.record(Kind::kAck);
        ack.peer = ev.src;
        ack.tseq = ev.tseq;
        ack.ticket.emplace(lane.begin_send());
        if (!fresh) {
          ctx.record(Kind::kNoteDupSuppressed).note_time = lane.now();
          return;
        }
      }
      processes_[static_cast<std::size_t>(ev.dst)]->handle(ctx, ev.src,
                                                           ev.payload);
      return;
    }
    case EventKind::kAck: {
      lane.advance_to(ev.time);
      if (ev.corrupted) {
        // A garbled ack is rejected, not trusted: the pending entry stays
        // and the data message will be retransmitted (then re-acked).
        ctx.record(Kind::kNoteCorruptDetected).note_time = lane.now();
        return;
      }
      auto& unacked =
          transport_state_[static_cast<std::size_t>(ev.dst)].channel(ev.src)
              .unacked;
      const auto it = find_pending(unacked, ev.tseq);
      if (it != unacked.end()) unacked.erase(it);
      return;
    }
    case EventKind::kTimer: {
      const Rank sender = ev.dst;
      const Rank peer = ev.src;
      auto& unacked =
          transport_state_[static_cast<std::size_t>(sender)].channel(peer)
              .unacked;
      const auto it = find_pending(unacked, ev.tseq);
      if (it == unacked.end()) return;  // acked meanwhile: timer no-ops
      // Still unacknowledged: the rank sat out the timeout, then retries.
      const double waited = ev.time - lane.now();
      if (waited > 0.0) ctx.record(Kind::kNoteBackoff).seconds = waited;
      lane.advance_to(ev.time);
      Pending& entry = *it;
      entry.attempt += 1;
      EventContext::DeferredOp& retry = ctx.record(Kind::kNoteRetry);
      retry.peer = peer;
      retry.attempt = entry.attempt;
      retry.note_time = lane.now();
      const FaultConfig& F = fabric_.config().fault;
      const bool final_attempt = entry.attempt >= F.max_attempts;
      const bool exempt = final_attempt && F.reliable_tail;
      // Snapshot the message: a later ack in the same window (processed by
      // this same shard) may erase the entry before the replay retransmits.
      EventContext::DeferredOp& resend = ctx.record(Kind::kRetransmit);
      resend.peer = peer;
      resend.payload = entry.payload;
      resend.records = entry.records;
      resend.attempt = entry.attempt;
      resend.tseq = ev.tseq;
      resend.ticket.emplace(lane.begin_send(exempt));
      // See enqueue(): the exempt tail's delivery is guaranteed, so the
      // retransmission state goes now.
      if (exempt) unacked.erase(it);
      return;
    }
  }
}

template <typename Body>
void EventEngine::run_inline(Rank rank, Body&& body) {
  CommFabric::Lane lane = fabric_.make_lane(rank);
  EventContext ctx(*this, lane);
  body(ctx);
  fabric_.absorb_lane(lane);
  replay_ops(rank, ctx.ops_);
}

void EventEngine::dispatch_window() {
  // The events of one window, in (time, seq) pop order — the order the
  // sequential engine would have dispatched them, restored at merge time.
  std::vector<Event> window;
  const double horizon = queue_.top().time + window_seconds_;
  while (!queue_.empty() && queue_.top().time < horizon) {
    // priority_queue::top is const; the move is safe because the element is
    // popped immediately after.
    window.push_back(std::move(const_cast<Event&>(queue_.top())));
    queue_.pop();
  }

  // Shard by destination rank (each event mutates only its destination's
  // clock, process and transport slot). Shards are ordered by rank so a
  // multi-shard failure deterministically surfaces the lowest rank's error.
  std::vector<Rank> shard_ranks;
  std::vector<std::vector<std::uint32_t>> shard_events;
  {
    std::vector<std::int32_t> shard_of(
        static_cast<std::size_t>(num_ranks()), -1);
    std::vector<Rank> order;
    for (const Event& ev : window) {
      if (shard_of[static_cast<std::size_t>(ev.dst)] < 0) {
        shard_of[static_cast<std::size_t>(ev.dst)] = 0;
        order.push_back(ev.dst);
      }
    }
    std::sort(order.begin(), order.end());
    shard_ranks = std::move(order);
    for (std::size_t s = 0; s < shard_ranks.size(); ++s) {
      shard_of[static_cast<std::size_t>(shard_ranks[s])] =
          static_cast<std::int32_t>(s);
    }
    shard_events.resize(shard_ranks.size());
    for (std::uint32_t i = 0; i < window.size(); ++i) {
      shard_events[static_cast<std::size_t>(
                       shard_of[static_cast<std::size_t>(window[i].dst)])]
          .push_back(i);
    }
  }

  if (shard_ranks.size() == 1) {
    // One destination: nothing to run concurrently, so dispatch exactly as
    // the sequential loop does.
    for (const Event& ev : window) {
      run_inline(ev.dst, [&](EventContext& ctx) { dispatch(ev, ctx); });
    }
    return;
  }

  // Run the shards concurrently: each against a private lane, recording
  // per-event op frames. The shared fabric and other ranks' transport slots
  // are only read.
  std::vector<CommFabric::Lane> lanes(shard_ranks.size());
  std::vector<std::vector<EventContext::DeferredOp>> frames(window.size());
  auto tasks = backend_.make_window();
  for (std::size_t s = 0; s < shard_ranks.size(); ++s) {
    tasks.submit([this, s, &shard_ranks, &shard_events, &window, &lanes,
                  &frames] {
      lanes[s] = fabric_.make_lane(shard_ranks[s]);
      for (const std::uint32_t i : shard_events[s]) {
        EventContext ctx(*this, lanes[s]);
        dispatch(window[i], ctx);
        frames[i] = std::move(ctx.ops_);
      }
    });
  }
  tasks.wait();

  // Merge: install the lanes' final accounting, then replay every event's
  // recorded effects in the window's (time, seq) order — which is exactly
  // the order the sequential engine would have applied them, so sequence
  // numbers, jitter and fault verdicts, FIFO channel state and trace output
  // all land bit-identically.
  for (const CommFabric::Lane& lane : lanes) fabric_.absorb_lane(lane);
  for (std::size_t i = 0; i < window.size(); ++i) {
    replay_ops(window[i].dst, frames[i]);
  }
}

void EventEngine::replay_ops(Rank rank,
                             std::vector<EventContext::DeferredOp>& ops) {
  using Kind = EventContext::DeferredOp::Kind;
  for (EventContext::DeferredOp& op : ops) {
    switch (op.kind) {
      case Kind::kSend:
        enqueue(op.peer, std::move(op.payload), op.records,
                std::move(*op.ticket));
        break;
      case Kind::kRound:
        fabric_.set_round(rank, op.round);
        break;
      case Kind::kAck:
        send_ack(op.peer, op.tseq, std::move(*op.ticket));
        break;
      case Kind::kRetransmit:
        transmit(op.peer, op.tseq, op.payload, op.records, op.attempt,
                 std::move(*op.ticket));
        break;
      case Kind::kNoteBackoff:
        fabric_.note_backoff(rank, op.seconds);
        break;
      case Kind::kNoteRetry:
        fabric_.note_retry_at(op.note_time, rank, op.peer, op.attempt);
        break;
      case Kind::kNoteDupSuppressed:
        fabric_.note_dup_suppressed_at(op.note_time, rank);
        break;
      case Kind::kNoteCorruptDetected:
        fabric_.note_corruption_detected_at(op.note_time, rank);
        break;
    }
  }
  ops.clear();
}

void EventEngine::fan_out(const std::vector<Rank>& ranks, FanPhase phase) {
  std::vector<CommFabric::Lane> lanes;
  lanes.reserve(ranks.size());
  std::vector<EventContext> ctxs;
  ctxs.reserve(ranks.size());
  for (Rank r : ranks) {
    lanes.push_back(fabric_.make_lane(r));
    ctxs.push_back(EventContext(*this, lanes.back()));
  }
  // Callbacks run against their lanes (the shared fabric is only read):
  // concurrently under a threaded backend, inline in order otherwise. The
  // rank-ordered merge below fixes the global order of sequence numbers,
  // transport state and trace output.
  backend_.parallel_for(ctxs.size(), [&](std::size_t i) {
    Process& p = *processes_[static_cast<std::size_t>(ranks[i])];
    if (phase == FanPhase::kStart) {
      p.start(ctxs[i]);
    } else {
      p.idle(ctxs[i]);
    }
  });
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    fabric_.absorb_lane(lanes[i]);
    replay_ops(ranks[i], ctxs[i].ops_);
  }
}

RunResult EventEngine::run() {
  PMC_REQUIRE(!ran_, "EventEngine::run() may only be called once");
  PMC_REQUIRE(!processes_.empty(), "no processes registered");
  ran_ = true;
  WallTimer wall;

  {
    std::vector<Rank> all(static_cast<std::size_t>(num_ranks()));
    for (Rank r = 0; r < num_ranks(); ++r) {
      all[static_cast<std::size_t>(r)] = r;
    }
    fan_out(all, FanPhase::kStart);
  }

  const bool windowed =
      backend_.mode() == ExecMode::kThreads && window_seconds_ > 0.0;
  while (true) {
    while (!queue_.empty()) {
      if (windowed) {
        dispatch_window();
        continue;
      }
      // priority_queue::top is const; the move is safe because the element
      // is popped immediately after.
      const Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      run_inline(ev.dst, [&](EventContext& ctx) { dispatch(ev, ctx); });
    }
    bool all_done = true;
    for (const auto& p : processes_) {
      if (!p->done()) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;

    // Quiescent but unfinished: give stuck ranks a chance to make progress.
    // Progress = new messages or a done-state change; otherwise deadlock.
    const std::uint64_t posted_before = events_posted_;
    Rank done_before = 0;
    for (const auto& p : processes_) {
      if (p->done()) ++done_before;
    }
    std::vector<Rank> stuck;
    for (Rank r = 0; r < num_ranks(); ++r) {
      if (!processes_[static_cast<std::size_t>(r)]->done()) stuck.push_back(r);
    }
    fan_out(stuck, FanPhase::kIdle);
    Rank done_after = 0;
    for (const auto& p : processes_) {
      if (p->done()) ++done_after;
    }
    if (queue_.empty() && events_posted_ == posted_before &&
        done_after == done_before) {
      std::ostringstream oss;
      oss << "distributed computation deadlocked; unfinished ranks:";
      int listed = 0;
      for (Rank r = 0; r < num_ranks() && listed < 8; ++r) {
        if (!processes_[static_cast<std::size_t>(r)]->done()) {
          oss << " [rank " << r << ": "
              << processes_[static_cast<std::size_t>(r)]->debug_state() << "]";
          ++listed;
        }
      }
      PMC_FAIL(oss.str());
    }
  }

  RunResult result;
  fabric_.export_into(result);
  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace pmc
