#pragma once
#include "../contract_macros.hpp"

#include <unordered_map>

namespace demo {

// Hash-order iteration on the decision path, one call below the root:
// unordered-iter flags the loop file-locally; hot-unordered-iter adds the
// *reachability* from the root.
struct Table {
  INTSCHED_HOTPATH long busiest();
  long scan();
  std::unordered_map<int, long> load_;
};

}  // namespace demo
