#include "intsched/net/topology.hpp"

#include "intsched/sim/strfmt.hpp"
#include <stdexcept>

namespace intsched::net {

void Topology::connect(Node& a, Node& b, const LinkConfig& cfg) {
  Port& pa = a.add_port(cfg);
  Port& pb = b.add_port(cfg);
  pa.connect_to(b, pb.index());
  pb.connect_to(a, pa.index());
  arcs_.push_back(Graph::Arc{a.id(), b.id(), pa.index(), cfg.prop_delay});
  arcs_.push_back(Graph::Arc{b.id(), a.id(), pb.index(), cfg.prop_delay});
  graph_ = Graph{arcs_};
  paths_.clear();
}

void Topology::install_routes() {
  paths_.clear();
  paths_.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    ShortestPaths sp = dijkstra(graph_, node->id());
    for (const core::NodeId dst : graph_.nodes()) {
      if (dst != node->id() && sp.reaches(dst)) {
        node->set_route(dst, sp.first_hop_port(dst));
      }
    }
    paths_.push_back(std::move(sp));
  }
}

std::vector<core::NodeId> Topology::path(core::NodeId a, core::NodeId b) const {
  if (!a.valid() || a.index() >= paths_.size()) {
    throw std::logic_error("Topology::path before install_routes()");
  }
  return paths_[a.index()].path_to(b);
}

sim::SimDuration Topology::path_delay(core::NodeId a, core::NodeId b) const {
  if (!a.valid() || a.index() >= paths_.size()) {
    throw std::logic_error("Topology::path_delay before install_routes()");
  }
  const sim::SimDuration d = paths_[a.index()].distance_to(b);
  if (d == sim::SimDuration::max()) {
    throw std::invalid_argument(
        sim::cat("no path from node ", a, " to node ", b));
  }
  return d;
}

Node& Topology::node(core::NodeId id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    throw std::invalid_argument(sim::cat("unknown node id ", id));
  }
  return *it->second;
}

std::vector<Node*> Topology::nodes_of_kind(NodeKind kind) const {
  std::vector<Node*> out;
  for (const auto& node : nodes_) {
    if (node->kind() == kind) out.push_back(node.get());
  }
  return out;
}

}  // namespace intsched::net
