// Corpus: escapes of RCU-style snapshot handles. A published snapshot is
// immutable, but the *handle* pins its memory; a reference that outlives
// the handle reads freed or superseded state after the next publish().
#include <functional>
#include <memory>

struct Rank {
  int server = 0;
};

struct Snapshot {
  Rank best;
};

struct Map {
  std::shared_ptr<const Snapshot> rank_snapshot() const { return snap_; }
  std::shared_ptr<const Snapshot> snap_;
};

struct Scheduler {
  void schedule_after(long ticks, std::function<void()> cb);
};

struct Service {
  Map map;
  Scheduler sched;
  const void* stale_ = nullptr;

  const void* leak_return() {
    auto snap = map.rank_snapshot();
    return &snap;  // expect(snapshot-return)
  }

  void leak_member() {
    auto view = map.rank_snapshot();
    stale_ = &view;  // expect(snapshot-store)
  }

  void leak_deferred() {
    auto snap = map.rank_snapshot();
    sched.schedule_after(  // expect(snapshot-store)
        10, [&] { (void)snap->best.server; });
  }
};
