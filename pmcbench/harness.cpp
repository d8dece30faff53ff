// pmcbench harness: runs one benchmark workload over and over until its time
// budget is spent and streams one JSON line per operation to stdout.
//
// An operation is one full pipeline (generate -> partition -> distribute ->
// solve -> verify) or one pass of the service update stream (its 128 batches
// count as operations). Every operation checks its own outputs; run.py
// aggregates the lines, guards against hangs, compares modelled results
// across operations and runs, and prints the benchmark's result.
//
// With --trace 1 the harness also records spans around each call it makes
// into a layer's public functions, keeps them in memory, and writes them out
// once when the run ends. Every second operation is then run untraced so the
// tracing overhead can be measured inside the same process.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "core/pmc.hpp"

namespace pmc::benchmark {
namespace {

double now_seconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

// ---------------------------------------------------------------- memory

/// Reads a "VmXxx:   123 kB" field of /proc/self/status, in MiB; 0 when the
/// field is unavailable.
double proc_status_mb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line[key.size()] == ':') {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

double rss_mb() { return proc_status_mb("VmRSS"); }

/// Peak resident memory of one operation. The kernel's high-water mark is
/// reset (Linux clear_refs "5") at the start of each operation and before
/// each probed call, so probes see their own peaks; peak() is the maximum
/// over every interval since start().
class PeakRss {
 public:
  void start() {
    peak_ = 0.0;
    clear();
  }
  void reset() {
    peak_ = peak();
    clear();
  }
  [[nodiscard]] double peak() const {
    return std::max(peak_, proc_status_mb("VmHWM"));
  }

 private:
  static void clear() { std::ofstream("/proc/self/clear_refs") << "5"; }

  double peak_ = 0.0;
};

/// Runs fn; returns resident MB after it minus resident MB before it.
template <class F>
double rss_growth(F&& fn) {
  const double before = rss_mb();
  fn();
  return rss_mb() - before;
}

/// Runs fn; returns the peak resident MB during it minus resident MB before
/// it (transient allocations freed before fn returns still show).
template <class F>
double rss_peak_growth(PeakRss& peak, F&& fn) {
  const double before = rss_mb();
  peak.reset();
  fn();
  return proc_status_mb("VmHWM") - before;
}

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  int op = 0;
  int parent = -1;  ///< Index into the span list; -1 for a root.
  double start = 0.0;
  double end = 0.0;
};

/// Times calls into the library. Every timed call returns its duration;
/// when tracing is on it is also recorded as a span nested under the span
/// that is open at the time.
class Tracer {
 public:
  template <class F>
  double time(const char* name, F&& fn) {
    const int id = recording_ ? open(name) : -1;
    const double t0 = now_seconds();
    try {
      fn();
    } catch (...) {
      if (id >= 0) close(id, t0, now_seconds());
      throw;
    }
    const double t1 = now_seconds();
    if (id >= 0) close(id, t0, t1);
    return t1 - t0;
  }

  /// Starts an operation; spans are recorded only when `traced`.
  void begin_op(int op, bool traced) {
    op_ = op;
    recording_ = traced;
    stack_.clear();
    op_first_ = spans_.size();
  }

  /// Self time (duration minus the time covered by child spans) summed per
  /// span name over the current operation's spans.
  [[nodiscard]] std::map<std::string, double> op_self_times() const {
    std::map<std::string, double> self;
    for (std::size_t i = op_first_; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[s.name] += s.end - s.start;
      if (s.parent >= 0) {
        self[spans_[static_cast<std::size_t>(s.parent)].name] -= s.end - s.start;
      }
    }
    return self;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"op\": %d, \"parent\": %d, \"start\": %.9f, \"end\": %.9f",
                    s.op, s.parent, s.start, s.end);
      out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \""
          << s.name << "\", " << buf << "}";
    }
    out << "\n]}\n";
  }

 private:
  int open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, op_, stack_.empty() ? -1 : stack_.back(), 0.0, 0.0});
    stack_.push_back(id);
    return id;
  }
  void close(int id, double t0, double t1) {
    spans_[static_cast<std::size_t>(id)].start = t0;
    spans_[static_cast<std::size_t>(id)].end = t1;
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::size_t op_first_ = 0;
  int op_ = 0;
  bool recording_ = false;
};

// ---------------------------------------------------------------- output

/// One flat JSON object, doubles printed with all 17 significant digits so
/// modelled values round-trip bit for bit.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonLine& num(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    return raw(key, quoted + "\"");
  }
  JsonLine& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonLine& object(const std::string& key, const JsonLine& v) {
    return raw(key, v.text());
  }
  JsonLine& array(const std::string& key, const std::vector<double>& vs) {
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.9g", vs[i]);
      s += (i ? ", " : "") + std::string(buf);
    }
    return raw(key, s + "]");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  JsonLine& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

void emit(const JsonLine& line) {
  std::cout << line.text() << std::endl;  // flush: run.py watches progress
}

// ---------------------------------------------------------------- workloads

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int threads = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// What one operation measured. Modelled values must repeat exactly.
struct OpResult {
  JsonLine host;      ///< Host wall times / memory (vary run to run).
  JsonLine modelled;  ///< Deterministic outputs (compared for drift).
  JsonLine layers;    ///< Per-layer metrics (traced operations only).
  std::vector<double> batch_ms;  ///< Service batch latencies.
  std::int64_t units = 1;        ///< Operations this line accounts for.
};

void require(bool cond, const std::string& what) {
  if (!cond) throw std::runtime_error(what);
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// The correctness gate every operation passes: both distributed verifiers
/// report no violation, and the matching equals the sequential
/// locally-dominant matching (unique, so any difference is a bug).
void verify(Tracer& tr, const DistGraph& dist, const Matching& m,
            const Coloring& c, const Matching& reference, int threads) {
  const ExecConfig exec{threads};
  tr.time("verify.match", [&] {
    const auto v =
        verify_matching_distributed(dist, m, MachineModel::zero_cost(), exec);
    require(v.violations == 0, "verify_matching_distributed reported " +
                                   std::to_string(v.violations) + " violations");
  });
  tr.time("verify.color", [&] {
    const auto v =
        verify_coloring_distributed(dist, c, MachineModel::zero_cost(), exec);
    require(v.violations == 0, "verify_coloring_distributed reported " +
                                   std::to_string(v.violations) + " violations");
  });
  tr.time("verify.reference", [&] {
    require(m.mate == reference.mate,
            "matching differs from the sequential locally-dominant matching");
  });
}

/// Counters and ratios every traced operation reports from its solves.
void add_solver_layers(JsonLine& layers, const DistMatchingResult& m,
                       const RunResult& color_run, double match_s,
                       double color_s, std::int64_t color_rounds,
                       double recolor_share, double snapshot_share) {
  const CommStats& mc = m.run.comm;
  const CommStats& cc = color_run.comm;
  layers.num("matching.solve_s", match_s)
      .num("matching.messages", mc.messages)
      .num("matching.bytes", mc.bytes)
      .num("matching.records_per_message",
           share(static_cast<double>(mc.records), static_cast<double>(mc.messages)))
      .num("matching.max_activations", std::int64_t{m.max_activations})
      .num("matching.host_us_per_message",
           share(match_s * 1e6, static_cast<double>(mc.messages)))
      .num("coloring.solve_s", color_s)
      .num("coloring.messages", cc.messages)
      .num("coloring.bytes", cc.bytes)
      .num("coloring.rounds", color_rounds)
      .num("coloring.recolor_share", recolor_share)
      .num("coloring.snapshot_parallel_share", snapshot_share)
      .num("runtime.payload_bytes_per_record",
           share(static_cast<double>(mc.payload_bytes + cc.payload_bytes),
                 static_cast<double>(mc.records + cc.records)))
      .num("runtime.collectives", mc.collectives + cc.collectives);
}

// ------------------------------------------------------------ pipelines

/// A paper-shaped pipeline: one graph, one partition, one solve.
struct PipelineSpec {
  Rank ranks;
  Graph (*generate)(std::uint64_t seed);
  Partition (*partition)(const Graph& g);
};

constexpr VertexId kGridSide = 1024;
constexpr Rank kGridRanksPerSide = 64;  // 4,096 ranks of 16x16 vertices

Graph grid_weak_graph(std::uint64_t seed) {
  return grid_2d(kGridSide, kGridSide, WeightKind::kUniformRandom, seed);
}
Partition grid_weak_partition(const Graph&) {
  return grid_2d_partition(kGridSide, kGridSide, kGridRanksPerSide,
                           kGridRanksPerSide);
}

// The circuit's structure is a fixed input, like the paper's G3_circuit
// matrix; the seed draws its edge weights, as the paper draws random weights
// for its real inputs. The partitioner uses structural weights only, so the
// partition and cut are the same for every seed.
constexpr Rank kCircuitParts = 1024;

Graph circuit_graph(std::uint64_t seed) {
  return reweight(circuit_like(500000, 1000000, 6, WeightKind::kUnit, 4),
                  WeightKind::kUniformRandom, seed);
}
Partition circuit_partition(const Graph& g) {
  return multilevel_partition(g, kCircuitParts,
                              MultilevelConfig::parmetis_like(7));
}

class PipelineWorkload {
 public:
  PipelineWorkload(const Args& args, PipelineSpec spec)
      : args_(args), spec_(spec) {
    matching_.exec.threads = args.threads;
    coloring_ = DistColoringOptions::improved();
    coloring_.seed = args.seed;  // conflict-resolution priorities
    coloring_.exec.threads = args.threads;
    // Reference solution, computed once before timing starts: the
    // locally-dominant matching is unique, so the distributed one must
    // equal the sequential construction exactly.
    const Graph g = spec_.generate(args_.seed);
    reference_ = locally_dominant_matching(g);
    vertices_ = g.num_vertices();
    edges_ = g.num_edges();
  }

  void describe(JsonLine& info) const {
    info.num("vertices", std::int64_t{vertices_})
        .num("edges", std::int64_t{edges_})
        .num("ranks", std::int64_t{spec_.ranks});
  }

  OpResult run(Tracer& tr, PeakRss& peak, bool traced) {
    OpResult r;
    Graph g;
    Partition p;
    std::optional<DistGraph> dist;
    double dist_rss_delta = 0.0;
    const double t_begin = now_seconds();
    double setup = 0.0, solve = 0.0, match_s = 0.0, color_s = 0.0;
    double color_rss_delta = 0.0;
    DistMatchingResult m;
    DistColoringResult c;
    tr.time("op", [&] {
      setup += tr.time("graph.generate", [&] { g = spec_.generate(args_.seed); });
      setup += tr.time("partition", [&] { p = spec_.partition(g); });
      setup += tr.time("dist_graph.build", [&] {
        dist_rss_delta = rss_growth([&] { dist.emplace(DistGraph::build(g, p)); });
      });
      match_s = tr.time("matching.solve",
                        [&] { m = match_distributed(*dist, matching_); });
      color_s = tr.time("coloring.solve", [&] {
        color_rss_delta =
            rss_peak_growth(peak, [&] { c = color_distributed(*dist, coloring_); });
      });
      solve = match_s + color_s;
      verify(tr, *dist, m.matching, c.coloring, reference_, args_.threads);
    });
    const double total = now_seconds() - t_begin;
    const double weight = matching_weight(g, m.matching);

    r.host.num("total_s", total)
        .num("setup_s", setup)
        .num("solve_s", solve)
        .num("peak_rss_mb", peak.peak());
    r.modelled.num("match_sim_s", m.run.sim_seconds)
        .num("color_sim_s", c.run.sim_seconds)
        .num("match_weight", weight)
        .num("colors", std::int64_t{c.coloring.num_colors()})
        .num("match_messages", m.run.comm.messages)
        .num("match_bytes", m.run.comm.bytes)
        .num("color_messages", c.run.comm.messages)
        .num("color_bytes", c.run.comm.bytes)
        .num("color_rounds", std::int64_t{c.rounds});
    if (!traced) return r;

    // Diagnostics outside the measured pipeline: they feed the per-layer
    // report but never the end-to-end times.
    double cut_fraction = 0.0, speedup = 1.0;
    tr.time("diagnostics", [&] {
      tr.time("partition.metrics",
              [&] { cut_fraction = compute_metrics(g, p).cut_fraction; });
      if (args_.threads > 1) speedup = sequential_speedup(tr, *dist, m, c, solve);
    });
    std::int64_t recolored = 0;
    for (const EdgeId n : c.conflicts_per_round) recolored += n;
    const auto parallel = static_cast<double>(c.snapshot_parallel_supersteps);
    const auto fallback = static_cast<double>(c.snapshot_fallback_supersteps);
    r.layers.num("partition.cut_fraction", cut_fraction)
        .num("dist_graph.rss_delta_mb", dist_rss_delta)
        .num("coloring.rss_delta_mb", color_rss_delta)
        .num("exec.speedup", speedup);
    add_solver_layers(r.layers, m, c.run, match_s, color_s, c.rounds,
                      share(static_cast<double>(recolored),
                            static_cast<double>(g.num_vertices())),
                      share(parallel, parallel + fallback));
    return r;
  }

 private:
  /// Re-solves at one thread and requires byte-identical results; returns
  /// the 1-thread solve time over the N-thread one.
  double sequential_speedup(Tracer& tr, const DistGraph& dist,
                            const DistMatchingResult& m,
                            const DistColoringResult& c, double solve) {
    DistMatchingOptions mo = matching_;
    DistColoringOptions co = coloring_;
    mo.exec.threads = 1;
    co.exec.threads = 1;
    DistMatchingResult m1;
    DistColoringResult c1;
    const double solve1 =
        tr.time("exec.baseline_match", [&] { m1 = match_distributed(dist, mo); }) +
        tr.time("exec.baseline_color", [&] { c1 = color_distributed(dist, co); });
    require(m1.matching.mate == m.matching.mate &&
                m1.run.sim_seconds == m.run.sim_seconds &&
                m1.run.comm.messages == m.run.comm.messages &&
                m1.run.comm.bytes == m.run.comm.bytes,
            "matching at 1 thread differs from " +
                std::to_string(args_.threads) + " threads");
    require(c1.coloring.color == c.coloring.color &&
                c1.run.sim_seconds == c.run.sim_seconds &&
                c1.run.comm.messages == c.run.comm.messages &&
                c1.run.comm.bytes == c.run.comm.bytes && c1.rounds == c.rounds,
            "coloring at 1 thread differs from " +
                std::to_string(args_.threads) + " threads");
    return solve1 / solve;
  }

  const Args& args_;
  PipelineSpec spec_;
  DistMatchingOptions matching_;
  DistColoringOptions coloring_;
  Matching reference_;
  VertexId vertices_ = 0;
  EdgeId edges_ = 0;
};

// -------------------------------------------------------------- service

constexpr VertexId kServiceSide = 256;
constexpr Rank kServiceRanksPerSide = 4;  // 16 ranks
constexpr std::int64_t kServiceUpdates = 2048;
constexpr std::int64_t kServiceWindow = 16;  // 128 batches

class ServiceWorkload {
 public:
  explicit ServiceWorkload(const Args& args) : args_(args) {
    options_.batch_window = kServiceWindow;
    options_.matching.exec.threads = args.threads;
    options_.coloring.seed = args.seed;
    options_.coloring.exec.threads = args.threads;
    // The update stream and the reference final state are produced before
    // timing starts; the service only ever sees the generated updates.
    const Graph g = generate();
    UpdateStreamConfig cfg;
    cfg.seed = args_.seed + 1;
    UpdateStreamGenerator gen(g, cfg);
    updates_ = gen.next_batch(kServiceUpdates);
    DynamicGraph replay(g);
    for (const EdgeUpdate& u : updates_) replay.apply(u);
    reference_ = locally_dominant_matching(replay.snapshot());
    vertices_ = g.num_vertices();
    edges_ = g.num_edges();
  }

  void describe(JsonLine& info) const {
    info.num("vertices", std::int64_t{vertices_})
        .num("edges", std::int64_t{edges_})
        .num("ranks", std::int64_t{kServiceRanksPerSide * kServiceRanksPerSide})
        .num("updates", kServiceUpdates)
        .num("batch_window", kServiceWindow);
  }

  OpResult run(Tracer& tr, PeakRss& peak, bool traced) {
    OpResult r;
    r.units = kServiceUpdates / kServiceWindow;
    Graph g;
    Partition p;
    std::optional<GraphService> service;
    DistMatchingResult cold_m;
    IncrementalColorResult cold_c;
    double setup = 0.0, stream = 0.0, match_s = 0.0, color_s = 0.0;
    double dist_rss_delta = 0.0, color_rss_delta = 0.0;
    const double t_begin = now_seconds();
    tr.time("op", [&] {
      setup += tr.time("graph.generate", [&] { g = generate(); });
      setup += tr.time("partition", [&] { p = partition(); });
      setup += tr.time("service.init", [&] { service.emplace(g, p, options_); });
      // Closed loop, one client: the next update is pushed as soon as the
      // previous push() returns. A batch's latency is the push that
      // triggers its refresh.
      stream = tr.time("service.stream", [&] {
        for (const EdgeUpdate& u : updates_) {
          const double t0 = now_seconds();
          if (service->push(u)) r.batch_ms.push_back((now_seconds() - t0) * 1e3);
        }
      });
      require(static_cast<std::int64_t>(service->history().size()) == r.units,
              "service produced " + std::to_string(service->history().size()) +
                  " batches");
      // Correctness: the repaired solutions equal cold solves of the final
      // snapshot and pass the same gate as the pipelines.
      const Graph& final_graph = service->graph();
      std::optional<DistGraph> dist;
      tr.time("dist_graph.build", [&] {
        dist_rss_delta =
            rss_growth([&] { dist.emplace(DistGraph::build(final_graph, p)); });
      });
      match_s = tr.time("matching.solve",
                        [&] { cold_m = match_distributed(*dist, options_.matching); });
      color_s = tr.time("coloring.solve", [&] {
        color_rss_delta = rss_peak_growth(
            peak, [&] { cold_c = color_canonical(*dist, options_.coloring); });
      });
      require(cold_m.matching.mate == service->matching().mate,
              "service matching differs from a cold match_distributed");
      require(cold_c.coloring.color == service->coloring().color,
              "service coloring differs from a cold color_canonical");
      verify(tr, *dist, service->matching(), service->coloring(), reference_,
             args_.threads);
    });
    const double total = now_seconds() - t_begin;

    double match_sim = 0.0, color_sim = 0.0;
    std::int64_t invalidated = 0, recolored = 0;
    for (const BatchReport& b : service->history()) {
      match_sim += b.match_sim_seconds;
      color_sim += b.color_sim_seconds;
      invalidated += b.match_invalidated;
      recolored += b.color_recolored;
    }
    r.host.num("total_s", total)
        .num("setup_s", setup)
        .num("solve_s", stream)
        .num("peak_rss_mb", peak.peak());
    r.modelled.num("match_sim_s", match_sim)
        .num("color_sim_s", color_sim)
        .num("match_weight", matching_weight(service->graph(), service->matching()))
        .num("colors", std::int64_t{service->coloring().num_colors()})
        .num("match_invalidated", invalidated)
        .num("color_recolored", recolored)
        .num("cold_match_sim_s", cold_m.run.sim_seconds)
        .num("cold_color_sim_s", cold_c.run.sim_seconds);
    if (!traced) return r;

    double cut_fraction = 0.0;
    tr.time("diagnostics", [&] {
      tr.time("partition.metrics",
              [&] { cut_fraction = compute_metrics(g, p).cut_fraction; });
      replay(tr, g, p, *service);
    });
    r.layers.num("service.match_invalidated_share",
                 share(static_cast<double>(invalidated),
                       static_cast<double>(vertices_ * r.units)))
        .num("service.color_recolored", recolored)
        .num("partition.cut_fraction", cut_fraction)
        .num("dist_graph.rss_delta_mb", dist_rss_delta)
        .num("coloring.rss_delta_mb", color_rss_delta)
        .num("exec.speedup", 1.0);
    add_solver_layers(r.layers, cold_m, cold_c.run, match_s, color_s,
                      cold_c.rounds, 0.0, 0.0);
    return r;
  }

 private:
  Graph generate() const {
    return grid_2d(kServiceSide, kServiceSide, WeightKind::kUniformRandom,
                   args_.seed);
  }
  static Partition partition() {
    return grid_2d_partition(kServiceSide, kServiceSide, kServiceRanksPerSide,
                             kServiceRanksPerSide);
  }

  /// Replays the stream through the public calls GraphService::refresh
  /// makes, one span each, and requires the replay to reproduce the
  /// service's batches and final solutions byte for byte.
  void replay(Tracer& tr, const Graph& g, const Partition& p,
              const GraphService& service) {
    std::optional<DynamicGraph> dynamic;
    Matching matching;
    Coloring coloring;
    tr.time("service.replay_init", [&] {
      dynamic.emplace(g);
      const DistGraph dist = DistGraph::build(g, p);
      matching = match_distributed(dist, options_.matching).matching;
      coloring = color_canonical(dist, options_.coloring).coloring;
    });
    const auto& history = service.history();
    for (std::size_t b = 0; b < history.size(); ++b) {
      const std::vector<EdgeUpdate> batch(
          updates_.begin() + static_cast<std::ptrdiff_t>(b * kServiceWindow),
          updates_.begin() + static_cast<std::ptrdiff_t>((b + 1) * kServiceWindow));
      std::vector<VertexId> touched;
      Graph snapshot;
      std::optional<DistGraph> dist;
      IncrementalMatchResult im;
      IncrementalColorResult ic;
      tr.time("service.apply", [&] {
        for (const EdgeUpdate& u : batch) dynamic->apply(u);
        touched = touched_vertices(batch);
      });
      tr.time("service.snapshot", [&] { snapshot = dynamic->snapshot(); });
      tr.time("service.dist_build",
              [&] { dist.emplace(DistGraph::build(snapshot, p)); });
      tr.time("service.inc_match", [&] {
        im = match_incremental(*dist, matching, touched, options_.matching);
      });
      tr.time("service.inc_color", [&] {
        ic = color_incremental(*dist, coloring, touched, options_.coloring);
      });
      require(im.run.sim_seconds == history[b].match_sim_seconds &&
                  ic.run.sim_seconds == history[b].color_sim_seconds &&
                  im.invalidated == history[b].match_invalidated &&
                  ic.recolored == history[b].color_recolored,
              "replay of batch " + std::to_string(b) + " differs from the service");
      matching = std::move(im.matching);
      coloring = std::move(ic.coloring);
    }
    require(matching.mate == service.matching().mate &&
                coloring.color == service.coloring().color,
            "replayed final solutions differ from the service's");
  }

  const Args& args_;
  ServiceOptions options_;
  std::vector<EdgeUpdate> updates_;
  Matching reference_;
  VertexId vertices_ = 0;
  EdgeId edges_ = 0;
};

// ---------------------------------------------------------------- driver

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

/// Per-layer self times of one traced operation, by layer metric name. A
/// layer the workload never calls reports zero.
void add_self_times(JsonLine& layers, const std::map<std::string, double>& self) {
  const auto get = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  layers.num("graph.generate_s", get("graph.generate"))
      .num("partition.compute_s", get("partition"))
      .num("dist_graph.build_s", get("dist_graph.build"))
      .num("verify.match_s", get("verify.match"))
      .num("verify.color_s", get("verify.color"))
      .num("service.init_s", get("service.init"))
      .num("service.stream_s", get("service.stream"))
      .num("unattributed_s", get("op"));
  // The service's replayed write path, in seconds and as shares of the
  // replayed batches' time.
  const char* steps[] = {"apply", "snapshot", "dist_build", "inc_match", "inc_color"};
  double replayed = 0.0;
  for (const char* step : steps) replayed += get(std::string("service.") + step);
  for (const char* step : steps) {
    const double t = get(std::string("service.") + step);
    layers.num(std::string("service.") + step + "_s", t)
        .num(std::string("service.") + step + "_share", share(t, replayed));
  }
}

template <class Workload>
int drive(const Args& args, Workload& workload) {
  Tracer tracer;
  PeakRss peak;
  const double deadline = now_seconds() + args.seconds;
  // Traced runs need an untraced warm-up, a traced and an untraced operation.
  const int min_ops = args.trace ? 3 : 1;
  std::vector<double> took[2];  // operation durations, untraced / traced
  for (int op = 0;; ++op) {
    // Traced runs alternate untraced and traced operations so the tracing
    // overhead is measured in the same process on the same inputs.
    const bool traced = args.trace && op % 2 == 1;
    // Start an operation only if one like it still fits the budget.
    if (op >= min_ops && now_seconds() + median(took[traced]) > deadline) break;
    const double t0 = now_seconds();
    tracer.begin_op(op, traced);
    // Hand the previous operation's freed memory back to the kernel, so each
    // operation pays its own page faults and its memory probes see its own
    // allocations, as a fresh process would.
    malloc_trim(0);
    peak.start();
    JsonLine line;
    line.str("type", "op").num("op", std::int64_t{op}).boolean("traced", traced);
    try {
      OpResult r = workload.run(tracer, peak, traced);
      if (traced) add_self_times(r.layers, tracer.op_self_times());
      line.boolean("ok", true)
          .num("units", r.units)
          .object("host", r.host)
          .object("modelled", r.modelled)
          .array("batch_ms", r.batch_ms);
      if (traced) line.object("layers", r.layers);
    } catch (const std::exception& e) {
      line.boolean("ok", false).str("error", e.what());
    }
    emit(line);
    took[traced].push_back(now_seconds() - t0);
  }
  if (args.trace && !args.trace_out.empty()) tracer.write(args.trace_out);
  return 0;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--threads") a.threads = std::stoi(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--trace-out") a.trace_out = value;
    else throw std::runtime_error("unknown argument " + key);
  }
  if (a.threads < 1) throw std::runtime_error("--threads must be >= 1");
  return a;
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  JsonLine info;
  info.str("type", "info")
      .str("workload", args.workload)
      .num("seed", static_cast<std::int64_t>(args.seed))
      .num("threads", std::int64_t{args.threads})
      .num("hardware_concurrency",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .str("build_type", PMCBENCH_BUILD_TYPE)
      .str("compiler", PMCBENCH_COMPILER);
  if (args.workload == "grid-weak" || args.workload == "circuit-highcut") {
    PipelineWorkload w(args, args.workload == "grid-weak"
                                 ? PipelineSpec{kGridRanksPerSide * kGridRanksPerSide,
                                                grid_weak_graph, grid_weak_partition}
                                 : PipelineSpec{kCircuitParts,
                                                circuit_graph, circuit_partition});
    w.describe(info);
    emit(info);
    return drive(args, w);
  }
  if (args.workload == "service-stream") {
    ServiceWorkload w(args);
    w.describe(info);
    emit(info);
    return drive(args, w);
  }
  throw std::runtime_error("unknown workload '" + args.workload + "'");
}

}  // namespace
}  // namespace pmc::benchmark

int main(int argc, char** argv) {
  try {
    return pmc::benchmark::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pmcbench_harness: " << e.what() << '\n';
    return 2;
  }
}
