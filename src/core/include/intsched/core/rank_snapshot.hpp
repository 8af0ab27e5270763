#pragma once

// RCU-style immutable region snapshot: the frozen per-region routing state
// of a published core::MetroView (DESIGN.md §10-§11). Every view builds one
// RankSnapshot per region from its own map copy and shares it with no
// other view; readers hold it through the view's shared_ptr and compute
// entirely over frozen state, so queries never contend with ingest or
// with each other.
//
// This header is one of the sanctioned concurrent components (alongside
// thread_annot.hpp and exp::SweepRunner), hence the file-wide suppression:
// the atomic here is a memo-fill counter (relaxed fetch_add bump) and the
// once_flags are the per-origin lazy-fill guards described below.
// intsched-lint: allow-file(thread-share): immutable snapshot shared across
//   reader threads by design; see DESIGN.md §10

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "intsched/core/types.hpp"
#include "intsched/net/routing.hpp"

namespace intsched::core {

/// Immutable snapshot of one region's routing: its CSR delay graph — the
/// view map's links with both ends in the region (DESIGN.md §11) — and a
/// per-origin shortest-path memo over it. Telemetry is not here: it lives
/// in the view's one frozen map.
///
/// Thread-safety model — readable from any number of threads with zero
/// locks:
///  - The graph is frozen at construction and only ever read.
///  - The shortest-path memo fills lazily, guarded per origin by a
///    std::once_flag: the first query from an origin runs Dijkstra inside
///    call_once, every later query is a single synchronization-free read
///    after the flag's acquire fast path. A mutex-per-query would
///    re-serialize exactly the contention this type exists to remove; the
///    once-only guard pays synchronization only on the first fill.
///  - The slot *set* is fixed at construction (one slot per node known to
///    the graph), so no reader ever mutates the memo structure itself.
class RankSnapshot {
 public:
  /// Freezes `graph` (built by the caller under whatever lock makes its
  /// source map safe to read) with an empty memo.
  explicit RankSnapshot(net::Graph graph);

  RankSnapshot(const RankSnapshot&) = delete;
  RankSnapshot& operator=(const RankSnapshot&) = delete;

  /// The frozen delay graph the memo runs Dijkstra over; every memo's
  /// tree is indexed by its local node indices.
  [[nodiscard]] const net::Graph& delay_graph() const { return graph_; }

  /// Nodes known to the frozen graph, ascending: the origins paths_from
  /// answers for.
  [[nodiscard]] const std::vector<core::NodeId>& nodes() const {
    return graph_.nodes();
  }

  /// Memoized shortest paths from `origin` over the frozen graph, filling
  /// the slot on first use; nullptr when the origin is unknown to the
  /// graph. Lock-free after the once-only fill.
  [[nodiscard]] const net::ShortestPaths* paths_from(core::NodeId origin) const;

  /// Origins whose Dijkstra memo has been filled (observability for tests
  /// and benches; relaxed counter, exact only after threads quiesce).
  [[nodiscard]] std::int64_t memo_fills() const {
    // intsched-lint: allow(atomic-ordering): quiescent counter read
    return memo_fills_.load(std::memory_order_relaxed);
  }

 private:
  /// One lazily-filled per-origin Dijkstra result. The members are
  /// mutable because filling happens inside const paths_from() —
  /// call_once provides the happens-before edge that makes the fill
  /// visible to every subsequent reader.
  struct SpSlot {
    mutable std::once_flag once;
    mutable net::ShortestPaths sp;
  };

  net::Graph graph_;  ///< frozen at construction
  /// sp_slots_[i] memoizes the graph's node at local index i. One
  /// contiguous slot array, allocated once per snapshot, rather than a
  /// tree node per slot: every publish rebuilds every region's snapshot.
  std::unique_ptr<SpSlot[]> sp_slots_;
  mutable std::atomic<std::int64_t> memo_fills_{0};
};

}  // namespace intsched::core
