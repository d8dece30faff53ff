// Distributed-memory parallel half-approximate weighted matching —
// the paper's Section 3 algorithm, executed on the simulated runtime.
//
// Each rank runs a message-driven state machine over its LocalGraph:
//
//   * Interior edges are processed locally through a work queue (the
//     paper's inner loop); no messages are generated.
//   * Cross edges are negotiated with the three message types of §3.2:
//     REQUEST (matching preference), SUCCEEDED (vertex got matched — carries
//     the mate so receivers can distinguish handshake completions), FAILED
//     (vertex can never be matched).
//   * With `bundled = true` (the paper's key scalability ingredient, §3.3)
//     all records generated while processing one incoming message — and all
//     records of the initial round — are aggregated into one message per
//     destination rank, and SUCCEEDED/FAILED are emitted once per
//     (vertex, neighbor-rank) pair rather than once per cross edge.
//     With `bundled = false` every record travels as its own message
//     (the Manne–Bisseling-style baseline used for the ablation study).
//
// The computed matching is independent of message timing (and therefore of
// the rank count): the locally-dominant matching with deterministic
// tie-breaking is unique.
#pragma once

#include <cstdint>

#include "graph/csr_graph.hpp"
#include "matching/matching.hpp"
#include "partition/partition.hpp"
#include "runtime/comm_stats.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/exec/backend.hpp"
#include "runtime/fabric.hpp"
#include "runtime/machine_model.hpp"
#include "runtime/trace.hpp"

namespace pmc {

/// Options for a distributed matching run.
struct DistMatchingOptions {
  /// Aggregate records into one message per destination per activation
  /// (the paper's §3.3 bundling); false selects the eager mode where every
  /// record travels as its own message (the ablation baseline).
  bool bundled = true;
  /// Wire codec for the REQUEST/SUCCEEDED/FAILED frames (kFixed is the
  /// legacy fixed-width ablation baseline).
  WireCodec codec = WireCodec::kCompact;
  /// Machine cost model for the simulation.
  MachineModel model = MachineModel::blue_gene_p();
  /// Deterministic message-delivery jitter (seconds); exercises alternative
  /// arrival orders (paper Fig 3.1 discussion). 0 disables.
  double jitter_seconds = 0.0;
  std::uint64_t jitter_seed = 0;
  /// Deterministic fault injection (drops / duplicates / delays / stalls);
  /// when enabled the runtime's ack/retry transport recovers lost records,
  /// so the computed matching equals the fault-free one. Disabled default.
  FaultConfig faults;
  /// Instrumentation options (optional JSONL trace sink).
  TraceConfig trace;
  /// Execution backend: exec.threads > 1 runs the event engine's windowed
  /// dispatch — each virtual-time window of the queue is sharded by rank
  /// across a thread pool and merged in (time, seq) order — plus the
  /// start/idle fan-outs, bit-identically to sequential execution
  /// (DESIGN.md §5c).
  ExecConfig exec;
};

/// Result of a distributed matching run.
struct DistMatchingResult {
  Matching matching;   ///< Global matching (indexed by global vertex id).
  RunResult run;       ///< Modelled time + communication statistics.
  int max_activations = 0;  ///< Max per-rank message activations ("rounds").
};

/// Runs the distributed matching on a pre-built distribution.
[[nodiscard]] DistMatchingResult match_distributed(
    const DistGraph& dist, const DistMatchingOptions& options = {});

/// Convenience overload: builds the distribution from (g, p) first.
[[nodiscard]] DistMatchingResult match_distributed(
    const Graph& g, const Partition& p, const DistMatchingOptions& options = {});

}  // namespace pmc
