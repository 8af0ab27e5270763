#include "tbl.hpp"

namespace demo {

long Table::busiest() {
  long best = 0;
  for (auto& kv : load_) {  // expect(hot-unordered-iter) expect(unordered-iter)
    // expect-via(Table::busiest)
    if (kv.second > best) best = kv.second;
  }
  return best;
}

}  // namespace demo
