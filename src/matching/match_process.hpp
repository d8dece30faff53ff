// The per-rank state machine of the distributed half-approximate matching
// (the paper's §3.2/§3.3 protocol), factored out of matching/parallel.cpp so
// extensions can derive from it.
//
// The base class implements the one-shot protocol exactly: REQUEST /
// SUCCEEDED / FAILED records, bundled or eager, over the event engine.
// Derived classes (e.g. the service-mode incremental re-matcher) handle the
// record kinds the one-shot protocol never sends by overriding
// handle_record() and reuse the candidate/cascade machinery through the
// protected surface. The base behavior is byte-identical to the
// pre-refactor implementation — the determinism pins
// in tests/test_determinism_regression.cpp hold across the move.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "matching/parallel.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/event_engine.hpp"
#include "runtime/fabric.hpp"
#include "runtime/serialize.hpp"
#include "support/error.hpp"

namespace pmc {

/// One rank's matching state machine (see matching/parallel.hpp for the
/// protocol description).
class MatchProcess : public Process {
 public:
  MatchProcess(const LocalGraph& lg, const DistMatchingOptions& options);

  void start(EventContext& ctx) override;
  void handle(EventContext& ctx, Rank src,
              std::span<const std::byte> payload) override;
  [[nodiscard]] bool done() const override;
  [[nodiscard]] std::string debug_state() const override;

  /// Extracts the rank's matched pairs as (owned global id, mate global id).
  void collect(std::vector<VertexId>& global_mate) const;

  [[nodiscard]] int activations() const noexcept { return activations_; }

  enum class RecordType : std::uint8_t {
    kRequest = 1,     // (sender vertex, target vertex)
    kSucceeded = 2,   // (matched vertex, its mate)
    kFailed = 3,      // (failed vertex)
    kInvalidate = 4,  // (revived vertex); service-mode repair only
  };

  /// One matching record (§3.3): a kind tag, then the kind's ids.
  struct Record {
    RecordType kind = RecordType::kRequest;
    VertexId vertex = 0;
    VertexId partner = kNoVertex;  ///< REQUEST target / SUCCEEDED mate.

    template <class IO>
    static void fields(IO& io, Record& r) {
      io.u8(r.kind);
      switch (r.kind) {
        case RecordType::kRequest:
        case RecordType::kSucceeded:
          io.id(r.vertex);
          // The partner is a graph neighbor of vertex, so the relative
          // encoding stays short under the compact codec.
          io.id_rel(r.partner);
          return;
        case RecordType::kFailed:
        case RecordType::kInvalidate:
          io.id(r.vertex);
          return;
      }
      PMC_FAIL("unknown matching record kind " << static_cast<int>(r.kind));
    }
  };

 protected:

  enum class VState : std::uint8_t {
    kUndecided = 0,
    kMatched = 1,
    kFailed = 2
  };

  /// Dispatches one decoded record. The base implementation handles the
  /// three one-shot kinds and fails on kInvalidate; derived classes
  /// intercept the kinds they add and delegate the rest here.
  virtual void handle_record(EventContext& ctx, const Record& rec);

  // ---- candidate maintenance ---------------------------------------------

  [[nodiscard]] bool target_dead(VertexId t) const;
  void recompute_candidate(EventContext& ctx, VertexId v);

  // ---- state transitions --------------------------------------------------

  void fail_vertex(EventContext& ctx, VertexId v);
  void match_local(EventContext& ctx, VertexId a, VertexId b);
  void match_cross(EventContext& ctx, VertexId v, VertexId ghost);
  void notify_decided(EventContext& ctx, VertexId x, RecordType type,
                      VertexId mate_global, Slot exclude_slot);
  void ghost_died(VertexId ghost, VertexId skip);
  void process_pending(EventContext& ctx);

  // ---- message handling ---------------------------------------------------

  void handle_request(EventContext& ctx, VertexId u_global, VertexId v_global);
  void handle_succeeded(EventContext& ctx, VertexId x_global,
                        VertexId mate_global);
  void handle_failed(EventContext& ctx, VertexId x_global);
  [[nodiscard]] EdgeId find_arc(VertexId v, VertexId t) const;

  // ---- outgoing records ---------------------------------------------------

  /// Stages `rec` for the neighbour rank in `slot` (see LocalGraph).
  void enqueue_record(EventContext& ctx, Slot slot, const Record& rec);
  void flush(EventContext& ctx);

  /// Sorts vertex v's arcs by (weight desc, neighbor global id asc) — the
  /// paper's tie-breaking rule — into arc_order_ and charges deg(v).
  void sort_arcs(EventContext& ctx, VertexId v);

  const LocalGraph& lg_;
  Bundler bundler_;
  std::vector<VState> state_;
  std::vector<VertexId> mate_;  // local ids
  std::vector<VertexId> cand_;  // local ids
  std::vector<EdgeId> ptr_;     // position within sorted arc order
  std::vector<bool> initialized_;
  std::vector<bool> ghost_dead_;
  std::vector<bool> arc_requested_;
  std::vector<std::uint32_t> arc_order_;  // per-vertex-relative positions
  std::deque<VertexId> pending_;
  std::vector<Slot> scratch_slots_;
  VertexId undecided_ = 0;
  int activations_ = 0;
};

}  // namespace pmc
