#pragma once
#include "../contract_macros.hpp"

#include <memory>

namespace demo {

struct MetroView {
  int rank() const;
  int epoch_ = 0;  // expect(raw-unit)
};

// The cross-function escape detlint's single-statement rule misses:
// remember() itself only sees "a reference parameter" — the violation
// is the *pair* (caller hands an epoch-bound view, callee stores it).
struct Cache {
  void remember(const MetroView& view);
  const MetroView* last_ = nullptr;
};

struct Service {
  std::shared_ptr<MetroView> view() const;
  void refresh(Cache& c);
  std::shared_ptr<MetroView> current_;
};

}  // namespace demo
