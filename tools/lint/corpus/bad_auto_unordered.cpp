// Corpus: a hot root reaches a helper that iterates an unordered member
// through an `auto` local. No unordered type is spelled at the loop, so
// the textual engine follows the `auto` binding back to the member and
// libclang reads the range expression's type: under either engine both
// unordered rules report the loop, the hot one with the path from the root.
#include "contract_macros.hpp"

#include <unordered_map>

namespace demo {

struct Table {
  INTSCHED_HOTPATH long busiest();
  long heaviest();
  std::unordered_map<int, long> load_;
};

long Table::heaviest() {
  long best = 0;
  const auto& m = load_;
  for (auto& kv : m) {  // expect(hot-unordered-iter) expect(unordered-iter)
    // expect-via(Table::busiest->Table::heaviest)
    if (kv.second > best) best = kv.second;
  }
  return best;
}

long Table::busiest() { return heaviest(); }

}  // namespace demo
