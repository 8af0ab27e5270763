// Work-stealing pool implementation; see sweep_runner.hpp for the
// determinism contract. All cross-thread state here is either immutable
// after construction (the task vector), index-partitioned (result slots),
// or lock-annotated: the steal deques and the first-error slot are
// INTSCHED_GUARDED_BY their AnnotatedMutex (statically checked by the
// thread-safety preset), and the stop flag is a set-once seq_cst atomic.
// intsched-lint: allow-file(thread-share): this IS the thread-pool boundary

#include "intsched/exp/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
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

// One steal-deque per worker, seeded round-robin so the initial split is
// balanced. Owners pop LIFO from the back (cache-warm, most recently
// assigned); thieves steal FIFO from the front of a victim, which takes
// the oldest — typically largest-remaining — chunk of that worker's
// share. Trials are long (whole simulations), so a mutex per deque is
// plenty: contention is one lock per trial, not per event.
struct StealDeque {
  core::AnnotatedMutex mutex;
  std::deque<std::size_t> indices INTSCHED_GUARDED_BY(mutex);
};

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

  std::vector<StealDeque> queues(static_cast<std::size_t>(workers));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    StealDeque& q = queues[i % static_cast<std::size_t>(workers)];
    // Uncontended (workers start below), but locked anyway: the guard is
    // what lets -Wthread-safety prove every indices access is disciplined.
    core::LockGuard lock{q.mutex};
    q.indices.push_back(i);
  }

  ErrorSlot error;
  // Default (seq_cst) ordering: raised once per run at most, never on the
  // per-trial fast path, so there is nothing to relax.
  std::atomic<bool> stop{false};

  const auto worker_loop = [&](std::size_t self) {
    for (;;) {
      if (stop.load()) return;  // a trial failed; abandon the rest
      std::size_t idx = 0;
      bool found = false;
      {
        StealDeque& own = queues[self];
        core::LockGuard lock{own.mutex};
        if (!own.indices.empty()) {
          idx = own.indices.back();
          own.indices.pop_back();
          found = true;
        }
      }
      for (std::size_t off = 1; !found && off < queues.size(); ++off) {
        StealDeque& victim = queues[(self + off) % queues.size()];
        core::LockGuard lock{victim.mutex};
        if (!victim.indices.empty()) {
          idx = victim.indices.front();
          victim.indices.pop_front();
          found = true;
        }
      }
      // Tasks never enqueue further tasks, so all-deques-empty means done.
      if (!found) return;
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
  for (std::size_t w = 0; w < static_cast<std::size_t>(workers); ++w) {
    pool.emplace_back(worker_loop, w);
  }
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
