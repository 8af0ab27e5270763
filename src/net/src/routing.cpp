#include "intsched/net/routing.hpp"

#include <algorithm>
#include <queue>

namespace intsched::net {

void Graph::add_edge(core::NodeId from, core::NodeId to, std::int32_t out_port,
                     sim::SimDuration cost) {
  adjacency[from].push_back(Edge{to, out_port, cost});
  adjacency.try_emplace(to);  // ensure isolated sinks are known nodes
}

std::vector<core::NodeId> Graph::nodes() const {
  std::vector<core::NodeId> out;
  out.reserve(adjacency.size());
  // Sorted before return: hash order never escapes this function.
  // intsched-lint: allow(unordered-iter)
  for (const auto& [n, _] : adjacency) out.push_back(n);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<core::NodeId> ShortestPaths::path_to(core::NodeId dst) const {
  std::vector<core::NodeId> path;
  append_path_to(dst, path);
  return path;
}

bool ShortestPaths::append_path_to(core::NodeId dst,
                                   std::vector<core::NodeId>& out) const {
  const std::size_t begin = out.size();
  if (!distance.contains(dst)) return false;
  for (core::NodeId cur = dst; cur != source;) {
    out.push_back(cur);
    const auto it = predecessor.find(cur);
    if (it == predecessor.end()) {  // defensive: broken chain
      out.resize(begin);
      return false;
    }
    cur = it->second;
  }
  out.push_back(source);
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end());
  return true;
}

ShortestPaths dijkstra(const Graph& g, core::NodeId source) {
  ShortestPaths result;
  result.source = source;

  struct QueueEntry {
    sim::SimDuration dist;
    core::NodeId node;
    bool operator>(const QueueEntry& o) const {
      if (dist != o.dist) return dist > o.dist;
      return node > o.node;
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      frontier;

  result.distance[source] = sim::SimDuration::zero();
  frontier.push({sim::SimDuration::zero(), source});

  while (!frontier.empty()) {
    const auto [dist, node] = frontier.top();
    frontier.pop();
    const auto best = result.distance.find(node);
    if (best == result.distance.end() || dist > best->second) continue;

    const auto adj = g.adjacency.find(node);
    if (adj == g.adjacency.end()) continue;
    for (const auto& edge : adj->second) {
      // The source sits at distance 0 and costs are non-negative, so no
      // edge into it can improve it; a zero-cost edge would only tie, and
      // the source has no predecessor for the tie-break to compare.
      if (edge.to == source) continue;
      const sim::SimDuration next_dist = dist + edge.cost;
      const auto cur = result.distance.find(edge.to);
      const bool improves = cur == result.distance.end() ||
                            next_dist < cur->second;
      // Deterministic tie-break: keep the path whose predecessor id is
      // smaller, so route tables never depend on hash-map iteration order.
      const bool ties_better = cur != result.distance.end() &&
                               next_dist == cur->second &&
                               node < result.predecessor.at(edge.to);
      if (!improves && !ties_better) continue;
      result.distance[edge.to] = next_dist;
      result.predecessor[edge.to] = node;
      result.first_hop_port[edge.to] =
          node == source ? edge.out_port : result.first_hop_port[node];
      frontier.push({next_dist, edge.to});
    }
  }
  result.first_hop_port.erase(source);
  return result;
}

}  // namespace intsched::net
