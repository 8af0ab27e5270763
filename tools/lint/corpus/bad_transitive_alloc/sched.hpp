#pragma once
#include "../contract_macros.hpp"

// The canonical hole detlint v2 cannot see: the allocation is three
// calls and two files away from the hot entry point.
namespace demo {

struct Helper {
  int refresh();  // allocates, in sched.cpp
};

struct Ranker {
  int rank_into(Helper& h);
};

struct Frontend {
  INTSCHED_HOTPATH int serve();
  Ranker ranker_;
  Helper helper_;
};

}  // namespace demo
