// Corpus: the sanctioned snapshot-publish shape (RCU-style read path,
// mirrors core::ShardedNetworkMap). One writer mutex with its guarded
// state named via GUARDED_BY; the published std::atomic<std::shared_ptr>
// is deliberately unguarded — readers acquire-load it with zero locks,
// writers rebuild and release-store it inside the critical section. The
// relaxed fetch_add on the query counter sits in the same statement as
// its ordering, matching the atomic-ordering rule. Must produce zero
// findings. thread-share is suppressed file-wide (corpus stand-in for a
// sanctioned concurrent-container file).
// intsched-lint: allow-file(thread-share)
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#define GUARDED_BY(x)  // stand-in for INTSCHED_GUARDED_BY in real code

struct Snapshot {
  // Fixture keeps the raw epoch to stay dependency-free; real code uses
  // core::Epoch (types.hpp).  // intsched-lint: allow(raw-unit)
  std::int64_t epoch = 0;
};

class SnapshotPublisher {
 public:
  void ingest() {
    const std::lock_guard<std::mutex> guard(mutex_);
    ++epoch_;
    auto next = std::make_shared<const Snapshot>(Snapshot{epoch_});
    snapshot_.store(std::move(next), std::memory_order_release);
  }

  [[nodiscard]] std::int64_t read_epoch() const {
    queries_.fetch_add(1, std::memory_order_relaxed);
    const std::shared_ptr<const Snapshot> snap =
        snapshot_.load(std::memory_order_acquire);
    return snap ? snap->epoch : -1;
  }

 private:
  mutable std::mutex mutex_;
  std::int64_t epoch_ GUARDED_BY(mutex_) = 0;
  // Lock-free publication point: NOT guarded, by design.
  std::atomic<std::shared_ptr<const Snapshot>> snapshot_;
  mutable std::atomic<std::int64_t> queries_{0};
};
