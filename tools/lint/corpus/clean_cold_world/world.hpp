#pragma once
#include "../contract_macros.hpp"

#include <memory>
#include <vector>

namespace demo {

struct MetroView {
  long total() const;
  long sum_ = 0;
};

// Cold code may allocate and do I/O freely; a hot root that only reads
// through a locally held handle (kept inside its own frame) is clean.
struct World {
  INTSCHED_HOTPATH long serve();
  INTSCHED_COLDPATH void load_config();
  std::shared_ptr<MetroView> view() const;
  std::shared_ptr<MetroView> current_;
  std::vector<long> staged_;
};

}  // namespace demo
