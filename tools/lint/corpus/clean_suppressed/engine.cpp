#include "engine.hpp"

namespace demo {

long Engine::warm() {
  // Every call after the first is a relaxed atomic flag test.
  // intsched-lint: allow(hot-lock): once-per-process memo fill
  std::call_once(once_, [this] { cache_ = 42; });
  return cache_;
}

void Engine::refill() {
  cache_ += 1;
}

long Engine::decide() {
  // intsched-lint: allow(hot-coldcall): sanctioned warm-start refill
  refill();
  return warm();
}

}  // namespace demo
