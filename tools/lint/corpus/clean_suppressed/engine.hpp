#pragma once
#include "../contract_macros.hpp"

#include <mutex>

namespace demo {

// Every violation here carries a named, justified suppression — the
// tree-scan discipline: clean means "no finding without a reason",
// not "no sanctioned exception".
struct Engine {
  INTSCHED_HOTPATH long decide();
  INTSCHED_COLDPATH void refill();
  long warm();
  std::once_flag once_;
  long cache_ = 0;
};

}  // namespace demo
