// Corpus: the serving-path mistakes DESIGN.md §13 forbids. The request
// loop must answer from a borrowed snapshot handle with zero allocator
// calls; everything below either allocates per request or lets a view
// handle (or a pointer into it) outlive the frame that pinned it.
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "contract_macros.hpp"

struct Rank {
  int server = 0;
};

struct View {
  Rank best;
};

struct ShardedMap {
  std::shared_ptr<const View> metro_snapshot() const { return view_; }
  std::shared_ptr<const View> view_;
};

struct Scheduler {
  void post(std::function<void()> cb);
};

struct Frontend {
  ShardedMap map;
  Scheduler sched;
  const void* cached_ = nullptr;

  // The wire-to-wire request loop, a hot root like the real serve().
  INTSCHED_HOTPATH int serve_request(int origin) {
    std::vector<Rank> staging;  // expect(hot-alloc)
    std::string trace = "serve";  // expect(hot-alloc)
    auto ctx = std::make_shared<Rank>();  // expect(hot-alloc)
    (void)trace;
    (void)ctx;
    staging.push_back(Rank{origin});
    return staging.back().server;
  }

  const void* answer_and_leak() {
    auto view = map.metro_snapshot();
    return &view;  // expect(snapshot-return)
  }

  void cache_view_pointer() {
    auto snap = map.metro_snapshot();
    cached_ = &snap;  // expect(snapshot-store)
  }

  void defer_over_borrowed_view() {
    auto snap = map.metro_snapshot();
    sched.post([&] { (void)snap->best.server; });  // expect(snapshot-store)
  }
};
