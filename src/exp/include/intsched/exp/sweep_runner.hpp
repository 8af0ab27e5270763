#pragma once

// Parallel runner for independent deterministic trials.
//
// The paper's whole evaluation is a sweep of independent simulations
// (policy arms x repetitions x sweep points); each trial owns its own
// Simulator, RNG streams, and result object, so trials share *nothing*
// mutable and can run on any thread in any order. Determinism contract:
// results are written into per-trial slots and merged by the caller in a
// fixed key order, so the merged output is byte-identical to the serial
// path at the same seed regardless of --jobs or scheduling jitter.
//
// Threading primitives are deliberately confined to sweep_runner.{hpp,cpp};
// detlint's thread-share rule flags them anywhere else in the tree.

#include <cstddef>
#include <functional>
#include <vector>

#include "intsched/core/policies.hpp"
#include "intsched/exp/experiment.hpp"

namespace intsched::exp {

/// Worker count for a requested --jobs value: the request itself when
/// positive, otherwise (0 = auto) the hardware concurrency, at least 1.
[[nodiscard]] int resolve_jobs(int requested);

/// Executes a batch of independent tasks on a thread pool whose workers
/// claim task indices from one shared atomic cursor. With jobs == 1 (or a
/// single task) everything runs inline on the calling thread — exactly the
/// serial code path, no threads created.
class SweepRunner {
 public:
  /// `jobs` <= 0 means auto (hardware concurrency).
  explicit SweepRunner(int jobs = 0) : jobs_{resolve_jobs(jobs)} {}

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Runs the tasks and returns. Tasks must be mutually independent (each
  /// touching only its own state/result slot) — or share state exclusively
  /// through an explicitly thread-safe type (e.g. core::ShardedNetworkMap;
  /// such runs trade the byte-identity guarantee for throughput). The first
  /// exception thrown by any task is rethrown here after the workers join;
  /// a stop flag abandons tasks not yet started, matching the serial path
  /// where a throw skips everything after the failing task.
  void run(std::vector<std::function<void()>> tasks) const;

  /// Deterministic parallel map: out[i] = fn(i). The result order is the
  /// index order, never the completion order.
  template <typename R>
  std::vector<R> map(std::size_t n,
                     const std::function<R(std::size_t)>& fn) const {
    std::vector<R> out(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      tasks.push_back([&out, &fn, i] { out[i] = fn(i); });
    }
    run(std::move(tasks));
    return out;
  }

 private:
  int jobs_;
};

/// Parallel counterpart of run_policy_suite: runs every arm as its own
/// trial on a SweepRunner and merges the results in the arms' order.
/// Byte-identical to run_policy_suite at the same seed for any jobs value.
[[nodiscard]] std::map<core::PolicyKind, ExperimentResult>
run_policy_suite_parallel(const ExperimentConfig& base,
                          const std::vector<core::PolicyKind>& arms,
                          int jobs = 0);

}  // namespace intsched::exp
