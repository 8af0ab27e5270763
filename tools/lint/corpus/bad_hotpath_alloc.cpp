// Corpus: heap allocation inside scheduler hot-path functions. The
// lock-free decision path budget is zero allocations per call; every
// construct below either calls the allocator directly or constructs a
// container that will. The hot functions are INTSCHED_HOTPATH roots, so
// the findings are the whole-program hot-alloc rule's.
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "contract_macros.hpp"

struct Rank {
  int server = 0;
};

struct Scratch {
  std::vector<Rank> ranks;  // member scratch: fine, sized once
};

struct Ranker {
  Scratch scratch_;

  INTSCHED_HOTPATH int pick_server(int device) {
    std::vector<Rank> local;  // expect(hot-alloc)
    auto owned = std::make_unique<Rank>();  // expect(hot-alloc)
    Rank* raw = new Rank{};  // expect(hot-alloc)
    void* c = std::malloc(64);  // expect(hot-alloc)
    std::string label = "srv";  // expect(hot-alloc)
    std::free(c);
    delete raw;
    (void)owned;
    (void)label;
    return device + static_cast<int>(local.size());
  }

  INTSCHED_HOTPATH int rescore(int device) {
    std::vector<int> tmp;  // expect(hot-alloc)
    tmp.push_back(device);
    return tmp.back();
  }
};
