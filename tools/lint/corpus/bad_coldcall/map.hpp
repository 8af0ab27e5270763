#pragma once
#include "../contract_macros.hpp"

namespace demo {

// COLDPATH is a barrier *and* a tripwire: the analyzer must flag the
// hot->cold edge at the call site, but must NOT descend into publish()
// and double-report its (deliberate) allocation.
struct Map {
  INTSCHED_COLDPATH void publish();
  INTSCHED_HOTPATH int pick();
  int size_ = 0;
};

}  // namespace demo
