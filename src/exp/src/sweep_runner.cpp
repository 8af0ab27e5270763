// Shared-cursor pool implementation; see sweep_runner.hpp for the
// determinism contract. All cross-thread state here is either immutable
// after construction (the task vector), index-partitioned (result slots),
// atomic (the task cursor and the set-once stop flag, both seq_cst), or
// lock-annotated: the first-error slot is INTSCHED_GUARDED_BY its
// AnnotatedMutex (statically checked by the thread-safety preset).
// intsched-lint: allow-file(thread-share): this IS the thread-pool boundary

#include "intsched/exp/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "intsched/core/thread_annot.hpp"

namespace intsched::exp {

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

// First task failure, published to the joining thread. The stop flag is
// raised alongside it so the pool abandons the remaining tasks — matching
// the serial path, where a throw out of task() skips everything after it.
struct ErrorSlot {
  core::AnnotatedMutex mutex;
  std::exception_ptr first INTSCHED_GUARDED_BY(mutex);
};

}  // namespace

void SweepRunner::run(std::vector<std::function<void()>> tasks) const {
  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), tasks.size()));
  if (workers <= 1) {
    // Serial fast path: no threads, identical to the pre-parallel code.
    for (auto& task : tasks) task();
    return;
  }

  ErrorSlot error;
  // Default (seq_cst) ordering for both: the cursor moves once per trial
  // and the flag is raised once per run at most, never per event, so
  // there is nothing to relax.
  std::atomic<bool> stop{false};
  // Next unclaimed task. Trials are whole simulations, so one shared
  // cursor balances the load as well as per-worker queues would: a worker
  // that finishes early simply claims the next index.
  std::atomic<std::size_t> next{0};

  const auto worker_loop = [&] {
    for (;;) {
      if (stop.load()) return;  // a trial failed; abandon the rest
      const std::size_t idx = next.fetch_add(1);
      if (idx >= tasks.size()) return;
      try {
        tasks[idx]();
      } catch (...) {
        core::LockGuard lock{error.mutex};
        if (!error.first) error.first = std::current_exception();
        stop.store(true);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker_loop);
  for (std::thread& t : pool) t.join();

  std::exception_ptr failure;
  {
    core::LockGuard lock{error.mutex};
    failure = error.first;
  }
  if (failure) std::rethrow_exception(failure);
}

std::map<core::PolicyKind, ExperimentResult> run_policy_suite_parallel(
    const ExperimentConfig& base, const std::vector<core::PolicyKind>& arms,
    int jobs) {
  const SweepRunner runner{jobs};
  std::vector<ExperimentResult> results = runner.map<ExperimentResult>(
      arms.size(), [&base, &arms](std::size_t i) {
        ExperimentConfig cfg = base;
        cfg.policy = arms[i];
        return run_experiment(cfg);
      });
  // Fixed-order merge: key order is the arms' order, exactly as the serial
  // run_policy_suite emplaces them (duplicates keep the first result).
  std::map<core::PolicyKind, ExperimentResult> out;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    out.emplace(arms[i], std::move(results[i]));
  }
  return out;
}

}  // namespace intsched::exp
