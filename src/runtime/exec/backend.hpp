// Execution backend selection: sequential rank loops or a shared thread
// pool. Engines take an ExecConfig and dispatch per-rank compute through an
// ExecutionBackend; drivers thread it in from their options structs.
//
// The backend only decides WHERE rank callbacks run. The engines keep the
// WHAT deterministic: every phase, at every thread count, runs each rank
// against a private accounting lane and replays the results in a fixed
// order, so the observable simulation (modelled time, traces, matchings,
// colorings) is bit-identical whichever backend ran it.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace pmc {

class ThreadPool;

enum class ExecMode {
  kSequential,  ///< Rank callbacks run inline, in rank order.
  kThreads,     ///< Rank callbacks run on a work-stealing thread pool.
};

/// How rank compute executes. threads == 1 selects the sequential backend;
/// threads > 1 spins up that many pool workers. Engines accept any value
/// >= 1 — the CLI-facing hardware_concurrency×4 cap lives in
/// Options::get_threads so tests and benches can oversubscribe knowingly.
struct ExecConfig {
  int threads = 1;
};

/// Reads PMC_THREADS (strictly validated) and returns the resulting config;
/// {1} when the variable is unset or empty. Lets test binaries pick up the
/// CI stage's thread count without plumbing flags through every harness.
[[nodiscard]] ExecConfig exec_config_from_env();

/// Copyable handle: sequential when threads == 1, otherwise owns a shared
/// work-stealing pool.
class ExecutionBackend {
 public:
  /// Sequential backend.
  ExecutionBackend() = default;
  explicit ExecutionBackend(ExecConfig config);

  [[nodiscard]] ExecMode mode() const noexcept {
    return pool_ ? ExecMode::kThreads : ExecMode::kSequential;
  }
  [[nodiscard]] int threads() const noexcept;

  /// Runs fn(i) for i in [0, n): in ascending order on the caller's thread
  /// when sequential, in unspecified order on the pool when threaded.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn) const;

  /// One batch of independent tasks with a completion barrier — the unit the
  /// event engine's windowed dispatch schedules (one task per rank shard).
  /// Tasks may not start until wait(); wait() blocks until every submitted
  /// task has run, rethrows the exception of the lowest-numbered throwing
  /// task, and leaves the window empty and reusable. A wait() with no
  /// submissions is a no-op barrier; submitting from inside a task of the
  /// same backend runs the nested window inline (ThreadPool re-entrancy).
  class TaskWindow {
   public:
    void submit(std::function<void()> task) {
      tasks_.push_back(std::move(task));
    }
    void wait();

    [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }

   private:
    friend class ExecutionBackend;
    explicit TaskWindow(const ExecutionBackend* backend) : backend_(backend) {}

    const ExecutionBackend* backend_;
    std::vector<std::function<void()>> tasks_;
  };

  [[nodiscard]] TaskWindow make_window() const { return TaskWindow(this); }

 private:
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace pmc
