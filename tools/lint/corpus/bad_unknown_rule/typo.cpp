#include "../contract_macros.hpp"

#include <vector>

namespace demo {

// A misspelled rule name must be a hard error, not a silent no-op that
// leaves the writer believing the line is covered.
// expect-error(unknown rule 'hot-allocc')

struct Builder {
  INTSCHED_COLDPATH std::vector<int> assemble();
};

std::vector<int> Builder::assemble() {
  // intsched-lint: allow(hot-allocc): typo, never matches any rule
  std::vector<int> out(4);
  return out;
}

}  // namespace demo
