#include "intsched/core/rank_snapshot.hpp"

#include <utility>

namespace intsched::core {

// The slot set is fixed here, while the snapshot is still thread-private:
// readers may fill slots concurrently but never add or remove them.
RankSnapshot::RankSnapshot(net::Graph graph)
    : graph_{std::move(graph)},
      sp_slots_{std::make_unique<SpSlot[]>(graph_.node_count())} {}

const net::ShortestPaths* RankSnapshot::paths_from(core::NodeId origin) const {
  const std::uint32_t i = graph_.index_of(origin);
  if (i == net::Graph::kNoIndex) return nullptr;
  const SpSlot& slot = sp_slots_[i];
  std::call_once(slot.once, [this, origin, &slot] {
    slot.sp = net::dijkstra(graph_, origin);
    memo_fills_.fetch_add(1, std::memory_order_relaxed);
  });
  return &slot.sp;
}

}  // namespace intsched::core
