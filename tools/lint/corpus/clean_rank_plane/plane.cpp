#include "plane.hpp"

namespace demo {

Plane Compiler::compile(const std::vector<long>& paths) {
  // Cold plane build: allocating containers here is sanctioned — the
  // compile runs once per published snapshot, never per query.
  Plane plane;
  plane.dev_ix.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    plane.dev_ix.push_back(static_cast<std::uint32_t>(i));
    plane.static_term.push_back(paths[i] * 2);
  }
  return plane;
}

long Kernel::score(const Plane& plane, Scratch& scratch, long queue_sample) {
  // Epoch-stamped gather into caller scratch: grow-only resize keeps the
  // warm path allocation-free, and bumping the stamp replaces any
  // per-query clearing.
  if (scratch.mark.size() < plane.dev_ix.size()) {
    scratch.mark.resize(plane.dev_ix.size(), 0);
    scratch.term.resize(plane.dev_ix.size(), 0);
  }
  ++scratch.stamp;
  long total = 0;
  for (const std::uint32_t d : plane.dev_ix) {
    if (scratch.mark[d] != scratch.stamp) {
      scratch.mark[d] = scratch.stamp;
      scratch.term[d] = queue_sample + plane.static_term[d];
    }
    total += scratch.term[d];
  }
  return total;
}

}  // namespace demo
