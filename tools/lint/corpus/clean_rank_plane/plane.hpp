#pragma once
#include "../contract_macros.hpp"

#include <cstdint>
#include <vector>

namespace demo {

// Miniature of the compiled rank plane split (DESIGN.md §15): the
// builder runs cold and may allocate freely; the scoring kernel is a
// hot root that only gathers into caller-owned stamped scratch
// (grow-only resize = the sanctioned warm-path idiom) and must stay
// allocation/lock/clock-free — which is exactly what this clean case
// pins as a non-finding.
struct Plane {
  std::vector<std::uint32_t> dev_ix;
  std::vector<long> static_term;
};

struct Scratch {
  /// Gather generation stamp (not a snapshot Epoch: it only invalidates
  /// this scratch's own marks between queries).
  std::uint64_t stamp = 0;
  std::vector<std::uint64_t> mark;
  std::vector<long> term;
};

struct Compiler {
  INTSCHED_COLDPATH Plane compile(const std::vector<long>& paths);
};

struct Kernel {
  INTSCHED_HOTPATH long score(const Plane& plane, Scratch& scratch,
                              long queue_sample);
};

}  // namespace demo
