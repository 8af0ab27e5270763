#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "intsched/core/contracts.hpp"
#include "intsched/net/packet.hpp"
#include "intsched/sim/time.hpp"

namespace intsched::net {

/// Lightweight graph view of a topology used by the routing computation and
/// by the scheduler's network map. Edges are directed; connect() in the
/// topology adds both directions.
struct Graph {
  struct Edge {
    core::NodeId to = core::kInvalidNode;
    std::int32_t out_port = -1;   ///< egress port on the source node
    sim::SimDuration cost = sim::SimDuration::zero();
  };

  /// adjacency[node] -> outgoing edges, in insertion order.
  std::unordered_map<core::NodeId, std::vector<Edge>> adjacency;

  void add_edge(core::NodeId from, core::NodeId to, std::int32_t out_port,
                sim::SimDuration cost);
  [[nodiscard]] bool has_node(core::NodeId n) const {
    return adjacency.contains(n);
  }
  [[nodiscard]] std::vector<core::NodeId> nodes() const;
};

/// Result of a single-source shortest-path run.
struct ShortestPaths {
  core::NodeId source = core::kInvalidNode;
  /// Distance from source; missing key = unreachable.
  std::unordered_map<core::NodeId, sim::SimDuration> distance;
  /// Predecessor on the chosen shortest path (deterministic tie-break:
  /// smallest predecessor id wins).
  std::unordered_map<core::NodeId, core::NodeId> predecessor;
  /// First-hop egress port at the source toward each destination.
  std::unordered_map<core::NodeId, std::int32_t> first_hop_port;

  /// Node sequence source..dst inclusive; empty if unreachable.
  [[nodiscard]] INTSCHED_COLDPATH std::vector<core::NodeId> path_to(
      core::NodeId dst) const;

  /// Appends the node sequence source..dst (inclusive) to `out`; returns
  /// false — appending nothing — when dst is unreachable. The
  /// allocation-free flavour of path_to for hot paths: with enough
  /// capacity in `out` no heap allocation happens (the serving path
  /// reuses one scratch vector per thread, DESIGN.md §13).
  INTSCHED_HOTPATH bool append_path_to(core::NodeId dst,
                                       std::vector<core::NodeId>& out) const;
};

/// Dijkstra with deterministic tie-breaking (by distance, then node id) so
/// route tables — and therefore every experiment — are reproducible.
/// Edge costs must be non-negative; an edge into the source is never
/// relaxed, so zero-cost cycles through it leave it the tree's root.
[[nodiscard]] INTSCHED_COLDPATH ShortestPaths dijkstra(const Graph& g,
                                                       core::NodeId source);

}  // namespace intsched::net
