#pragma once

#include <concepts>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "intsched/net/node.hpp"
#include "intsched/net/routing.hpp"
#include "intsched/sim/simulator.hpp"

namespace intsched::net {

/// Owns all nodes of an emulated network, wires them together, and installs
/// shortest-path routes. The mininet-equivalent of this reproduction.
class Topology {
 public:
  explicit Topology(sim::Simulator& sim) : sim_{sim} {}

  /// Installed paths read graph_ in place, so a topology never moves.
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Creates a node of type T (must derive from Node). The id is assigned
  /// sequentially and doubles as the node's address.
  template <std::derived_from<Node> T, typename... Args>
  T& add_node(std::string name, Args&&... args) {
    const core::NodeId id{static_cast<std::int32_t>(nodes_.size())};
    auto node = std::make_unique<T>(sim_, id, std::move(name),
                                    std::forward<Args>(args)...);
    T& ref = *node;
    by_id_.emplace(id, node.get());
    nodes_.push_back(std::move(node));
    return ref;
  }

  /// Creates a full-duplex link: one port on each node, cross-connected,
  /// both directions using `cfg`. Drops paths installed before it, since
  /// they describe the old graph; install_routes() computes them again.
  void connect(Node& a, Node& b, const LinkConfig& cfg);

  /// Computes shortest paths (cost = propagation delay) between all pairs
  /// and installs next-hop forwarding state into every node. Must be called
  /// after all connect() calls and before traffic starts.
  void install_routes();

  /// Ground-truth graph (edge cost = propagation delay). Valid after the
  /// first connect().
  [[nodiscard]] const Graph& graph() const { return graph_; }

  /// Ground-truth node sequence a..b inclusive along installed routes.
  /// Requires install_routes() to have run.
  [[nodiscard]] std::vector<core::NodeId> path(core::NodeId a,
                                                core::NodeId b) const;

  /// Ground-truth path delay (sum of link propagation delays), the
  /// uncongested baseline the paper's Delay() formula estimates.
  [[nodiscard]] sim::SimDuration path_delay(core::NodeId a,
                                            core::NodeId b) const;

  [[nodiscard]] Node& node(core::NodeId id) const;
  [[nodiscard]] std::vector<Node*> nodes_of_kind(NodeKind kind) const;
  [[nodiscard]] std::int64_t node_count() const {
    return static_cast<std::int64_t>(nodes_.size());
  }
  [[nodiscard]] sim::Simulator& simulator() const { return sim_; }

 private:
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<core::NodeId, Node*> by_id_;
  /// Both directions of every link, in connect() order: graph_'s input.
  std::vector<Graph::Arc> arcs_;
  Graph graph_;
  /// Shortest paths from every node, indexed by node id; empty until
  /// install_routes().
  std::vector<ShortestPaths> paths_;
};

}  // namespace intsched::net
