#pragma once
#include "../contract_macros.hpp"

#include <unordered_map>

namespace demo {

// The member's unordered type hides behind a `using` alias declared
// here and iterated in tbl.cpp: both unordered rules must see through
// the alias, program-wide.
using LoadMap = std::unordered_map<int, long>;

struct Table {
  INTSCHED_HOTPATH long busiest();
  LoadMap load_;
};

}  // namespace demo
