#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "intsched/core/contracts.hpp"
#include "intsched/net/packet.hpp"
#include "intsched/sim/time.hpp"

namespace intsched::net {

/// Directed graph in compressed sparse row form over a sorted node list:
/// the layout the routing computation, the scheduler's delay graphs and
/// the simulator's topology share (DESIGN.md §8). A node's local index is
/// its rank in nodes(), and an edge names its target by that index, so a
/// shortest-path run reads flat arrays and never hashes a node id.
/// Immutable once built.
class Graph {
 public:
  /// Local index of a node the graph does not hold.
  static constexpr std::uint32_t kNoIndex = 0xffffffffu;

  /// One directed edge by node id: what a graph is built from.
  struct Arc {
    core::NodeId from = core::kInvalidNode;
    core::NodeId to = core::kInvalidNode;
    std::int32_t out_port = -1;  ///< egress port on `from`
    sim::SimDuration cost = sim::SimDuration::zero();
  };
  /// One out-edge of a node.
  struct Edge {
    std::uint32_t to = kNoIndex;  ///< the target's local index
    std::int32_t out_port = -1;   ///< egress port on the source node
    sim::SimDuration cost = sim::SimDuration::zero();
  };

  Graph() = default;
  /// Builds the graph of `arcs`, given in any order. Its nodes are every
  /// arc endpoint, ascending, and each node's out-edges keep their order
  /// in `arcs`: arcs sorted by `from` are laid out as given, edge e being
  /// arcs[e].
  explicit Graph(std::span<const Arc> arcs);

  /// Every node, ascending; a node's local index is its position here.
  [[nodiscard]] const std::vector<core::NodeId>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  /// `n`'s local index, or kNoIndex when the graph does not hold it.
  [[nodiscard]] std::uint32_t index_of(core::NodeId n) const;
  [[nodiscard]] bool has_node(core::NodeId n) const {
    return index_of(n) != kNoIndex;
  }
  /// Out-edges of the node at local index `i`, in build order.
  [[nodiscard]] std::span<const Edge> out_edges(std::uint32_t i) const {
    return {edges_.data() + offsets_[i], edges_.data() + offsets_[i + 1]};
  }
  /// Position in the graph's edge array of the first edge from local
  /// index `from` to local index `to`, or kNoIndex when there is none.
  /// Edges are numbered by source, then build order.
  [[nodiscard]] std::uint32_t find_edge(std::uint32_t from,
                                        std::uint32_t to) const;
  /// The edge at position `e`.
  [[nodiscard]] const Edge& edge(std::uint32_t e) const { return edges_[e]; }

 private:
  std::vector<core::NodeId> nodes_;
  /// offsets_[i], offsets_[i + 1] bound node i's range in edges_.
  std::vector<std::uint32_t> offsets_;
  std::vector<Edge> edges_;
};

/// Result of one single-source shortest-path run: three flat arrays over
/// the graph's local indices (distance, predecessor, first-hop port). It
/// reads the graph's node list, so it must not outlive the graph it was
/// computed over.
class ShortestPaths {
 public:
  /// An empty result: it reaches nothing, not even a source.
  ShortestPaths() = default;

  [[nodiscard]] core::NodeId source() const { return source_; }
  /// True for the source and every node reachable from it.
  [[nodiscard]] bool reaches(core::NodeId n) const {
    return distance_to(n) != sim::SimDuration::max();
  }
  /// Distance from the source; SimDuration::max() when unreachable.
  [[nodiscard]] sim::SimDuration distance_to(core::NodeId n) const;
  /// Predecessor on the chosen shortest path (deterministic tie-break:
  /// smallest predecessor id wins); kInvalidNode for the source and for
  /// unreachable nodes.
  [[nodiscard]] core::NodeId predecessor_of(core::NodeId n) const;
  /// First-hop egress port at the source toward `n`; -1 for the source
  /// and for unreachable nodes.
  [[nodiscard]] std::int32_t first_hop_port(core::NodeId n) const;

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

 private:
  friend ShortestPaths dijkstra(const Graph& g, core::NodeId source,
                                std::span<const Graph::Edge> source_edges);

  /// source_ix_ of a source the graph does not hold; that source's
  /// children name it as their predecessor.
  static constexpr std::uint32_t kOutsideSource = 0xfffffffeu;

  /// Local index of `n`, or Graph::kNoIndex (also for an empty result).
  [[nodiscard]] std::uint32_t local(core::NodeId n) const {
    return graph_ == nullptr ? Graph::kNoIndex : graph_->index_of(n);
  }

  const Graph* graph_ = nullptr;
  core::NodeId source_ = core::kInvalidNode;
  std::uint32_t source_ix_ = Graph::kNoIndex;
  /// Per local index; SimDuration::max() when unreachable.
  std::vector<sim::SimDuration> distance_;
  /// Per local index: the predecessor's local index (source_ix_ for the
  /// source's children), Graph::kNoIndex for the source and unreachable
  /// nodes.
  std::vector<std::uint32_t> predecessor_;
  /// Per local index; -1 for the source and unreachable nodes.
  std::vector<std::int32_t> first_hop_port_;
};

/// Dijkstra with deterministic tie-breaking, so route tables — and
/// therefore every experiment — are reproducible:
///  - the next node settled is the unsettled one with the smallest
///    (distance, node id);
///  - an edge re-parents its target on a strictly shorter distance, or on
///    an equal one from a smaller-id predecessor while the target is not
///    yet settled, so a settled node's predecessor is final and the
///    predecessors always form a tree, zero-cost edges included;
///  - no edge into the source is ever relaxed, so it stays the root.
/// Edge costs must be non-negative. `source_edges` are extra out-edges of
/// the source, relaxed after its own; `source` need not be in `g`. The
/// result reads `g`, so `g` must outlive it (a temporary is rejected).
[[nodiscard]] INTSCHED_COLDPATH ShortestPaths dijkstra(
    const Graph& g, core::NodeId source,
    std::span<const Graph::Edge> source_edges = {});
ShortestPaths dijkstra(const Graph&& g, core::NodeId source,
                       std::span<const Graph::Edge> source_edges = {}) =
    delete;

}  // namespace intsched::net
