#include "tbl.hpp"

namespace demo {

long Table::scan() {
  long best = 0;
  for (auto& kv : load_) {  // expect(hot-unordered-iter) expect(unordered-iter)
    // expect-via(Table::busiest->Table::scan)
    if (kv.second > best) best = kv.second;
  }
  return best;
}

long Table::busiest() {
  return scan();
}

}  // namespace demo
