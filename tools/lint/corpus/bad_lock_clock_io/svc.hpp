#pragma once
#include "../contract_macros.hpp"

#include <mutex>

namespace demo {

// One hot root fanning out to three helpers, each breaking a different
// rule family: the analyzer must report all three with their own
// multi-hop witnesses. The local rules fire too: the lock, the clock read
// and the unannotated mutex member are findings in any function.
struct Svc {
  INTSCHED_HOTPATH long answer();
  long warm();
  long stamp();
  void log_decision(long v);
  std::mutex mu_;  // expect(thread-share) expect(mutex-no-guard)
  long cached_ = 0;
};

}  // namespace demo
