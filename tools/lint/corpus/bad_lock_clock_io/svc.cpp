#include "svc.hpp"

#include <chrono>
#include <iostream>

namespace demo {

long Svc::warm() {
  std::lock_guard<std::mutex> lk(mu_);  // expect(hot-lock) expect(thread-share)
  // expect-via(Svc::answer->Svc::warm)
  return cached_;
}

long Svc::stamp() {
  auto t =
      std::chrono::steady_clock::now();  // expect(hot-clock) expect(wall-clock)
  // expect-via(Svc::answer->Svc::stamp)
  return t.time_since_epoch().count();
}

void Svc::log_decision(long v) {
  std::cout << v;  // expect(hot-io)
  // expect-via(Svc::answer->Svc::log_decision)
}

long Svc::answer() {
  long v = warm() + stamp();
  log_decision(v);
  return v;
}

}  // namespace demo
