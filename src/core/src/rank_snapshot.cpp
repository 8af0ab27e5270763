#include "intsched/core/rank_snapshot.hpp"

#include <algorithm>

namespace intsched::core {

// The slot set is fixed here, while the snapshot is still thread-private:
// readers may fill slots concurrently but never add or remove them.
RankSnapshot::RankSnapshot(const NetworkMap& map)
    : map_{map},
      epoch_{map_.ingest_epoch()},
      graph_{map_.delay_graph()},
      sp_nodes_{graph_.nodes()},
      sp_slots_{std::make_unique<SpSlot[]>(sp_nodes_.size())} {}

const net::ShortestPaths* RankSnapshot::paths_from(core::NodeId origin) const {
  const auto it = std::lower_bound(sp_nodes_.begin(), sp_nodes_.end(), origin);
  if (it == sp_nodes_.end() || *it != origin) return nullptr;
  const SpSlot& slot =
      sp_slots_[static_cast<std::size_t>(it - sp_nodes_.begin())];
  std::call_once(slot.once, [this, origin, &slot] {
    slot.sp = net::dijkstra(graph_, origin);
    memo_fills_.fetch_add(1, std::memory_order_relaxed);
  });
  return &slot.sp;
}

}  // namespace intsched::core
