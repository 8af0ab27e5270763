#pragma once
#include "../contract_macros.hpp"

#include <memory>

namespace demo {

struct RankSnapshot {
  const int* data() const;
  int best_ = 0;
};

// keep() alone is not a violation (its caller may own the handle for
// long enough); forwarding its result out of the frame that pinned the
// epoch is. The analyzer must link the two.
const RankSnapshot* keep(const RankSnapshot& s);

struct Holder {
  std::shared_ptr<RankSnapshot> view() const;
  const RankSnapshot* leak();
  const RankSnapshot* grab();
  std::shared_ptr<RankSnapshot> current_;
};

}  // namespace demo
