// Corpus: a std::-qualified call never resolves to a project function of
// the same bare name. The hot root's std::to_string call allocates and is
// reported at the call; the project's own to_string (cold report
// formatting, also allocating) is not reachable from it and stays silent.
#include "contract_macros.hpp"

#include <cstddef>
#include <string>

namespace demo {

struct Id {
  long v = 0;
};

std::string to_string(Id id) {
  std::string out = "id:";
  out += std::to_string(id.v);
  return out;
}

struct Labeler {
  INTSCHED_HOTPATH std::size_t label_size(long v);
};

std::size_t Labeler::label_size(long v) {
  return std::to_string(v).size();  // expect(hot-alloc)
}

}  // namespace demo
