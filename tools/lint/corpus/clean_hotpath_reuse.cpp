// Corpus: allocation-free hot path. The scratch buffer is a member sized
// outside the decision path; the hot function only reads, indexes, and
// writes in place. Cold-path functions may allocate freely.
#include <string>
#include <vector>

#include "contract_macros.hpp"

struct Rank {
  int server = 0;
};

struct Ranker {
  std::vector<Rank> scratch_;

  // Cold path: allocation is fine here — not reachable from a hot root.
  void rebuild(int servers) {
    scratch_.assign(static_cast<unsigned>(servers), Rank{});
    std::string log = "rebuilt";
    (void)log;
  }

  // Hot path: reuses the member scratch, zero allocator calls.
  INTSCHED_HOTPATH int pick_server(int device) {
    int best = 0;
    for (const Rank& r : scratch_) {
      if (r.server < scratch_[static_cast<unsigned>(best)].server) {
        best = r.server;
      }
    }
    return best + device;
  }
};
