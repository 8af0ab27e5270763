// Corpus: escapes of a handle bound from view(), the map's snapshot
// accessor. The handle is a shared_ptr local: its address, a member copy
// of that address, or a by-reference capture in deferred work all dangle
// once the frame returns, whatever the view's own lifetime.
#include <functional>
#include <memory>

struct MetroView {
  int best = 0;
};

struct Map {
  std::shared_ptr<const MetroView> view() const { return current_; }
  std::shared_ptr<const MetroView> current_;
};

struct Scheduler {
  void schedule_after(long ticks, std::function<void()> cb);
};

struct Frontend {
  Map map;
  Scheduler sched;
  const void* stale_ = nullptr;

  const void* leak_return() {
    auto v = map.view();
    return &v;  // expect(snapshot-return)
  }

  void leak_member() {
    auto v = map.view();
    stale_ = &v;  // expect(snapshot-store)
  }

  void leak_deferred() {
    auto v = map.view();
    sched.schedule_after(10, [&] { (void)v->best; });  // expect(snapshot-store)
  }
};
