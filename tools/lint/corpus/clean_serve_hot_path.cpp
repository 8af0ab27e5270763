// Corpus: the serving path done right (DESIGN.md §13). The context owns
// every buffer the request loop needs, sized on the cold path; the hot
// function borrows one snapshot handle for exactly the frame of the call
// and hands deferred work a by-value copy of the handle.
#include <functional>
#include <memory>
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
  std::vector<Rank> staging_;

  // Cold path: grow the reusable scratch once, before serving starts.
  void reserve(int max_results) {
    staging_.reserve(static_cast<unsigned>(max_results));
  }

  // Hot request loop: borrow the handle, reuse member scratch, no
  // allocator calls.
  INTSCHED_HOTPATH int serve_request(int origin) {
    auto snap = map.metro_snapshot();
    staging_.clear();
    staging_.push_back(Rank{origin + snap->best.server});
    return staging_.back().server;
  }

  // Deferred work copies the handle: the shared_ptr keeps the view alive
  // past this frame, so nothing dangles.
  void refresh_later() {
    auto snap = map.metro_snapshot();
    sched.post([snap] { (void)snap->best.server; });
  }
};
