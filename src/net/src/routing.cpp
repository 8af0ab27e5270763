#include "intsched/net/routing.hpp"

#include <algorithm>

#include "intsched/sim/audit.hpp"

namespace intsched::net {

Graph::Graph(std::span<const Arc> arcs) {
  nodes_.reserve(arcs.size() * 2);
  for (const Arc& a : arcs) {
    nodes_.push_back(a.from);
    nodes_.push_back(a.to);
  }
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  nodes_.shrink_to_fit();

  // Counting sort by source, stable: count each node's out-degree into
  // offsets_[i + 1], prefix-sum so offsets_[i] is node i's first slot,
  // place the edges with offsets_[i] as node i's cursor (leaving it at
  // node i's end), then shift the ends up one place back into starts.
  offsets_.assign(nodes_.size() + 1, 0);
  for (const Arc& a : arcs) ++offsets_[index_of(a.from) + 1];
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  edges_.resize(arcs.size());
  for (const Arc& a : arcs) {
    edges_[offsets_[index_of(a.from)]++] =
        Edge{index_of(a.to), a.out_port, a.cost};
  }
  for (std::size_t i = nodes_.size(); i > 0; --i) {
    offsets_[i] = offsets_[i - 1];
  }
  offsets_[0] = 0;

#if INTSCHED_AUDIT_ENABLED
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    INTSCHED_AUDIT_ASSERT(nodes_[i - 1] < nodes_[i],
                          "graph node list is not strictly ascending");
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    INTSCHED_AUDIT_ASSERT(offsets_[i - 1] <= offsets_[i],
                          "graph edge offsets decrease");
  }
  INTSCHED_AUDIT_ASSERT(offsets_.back() == edges_.size(),
                        "graph edge offsets do not cover the edge array");
  for (const Edge& e : edges_) {
    INTSCHED_AUDIT_ASSERT(e.to < nodes_.size(),
                          "graph edge target is out of range");
  }
#endif
}

std::uint32_t Graph::index_of(core::NodeId n) const {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), n);
  if (it == nodes_.end() || *it != n) return kNoIndex;
  return static_cast<std::uint32_t>(it - nodes_.begin());
}

std::uint32_t Graph::find_edge(std::uint32_t from, std::uint32_t to) const {
  for (std::uint32_t e = offsets_[from]; e < offsets_[from + 1]; ++e) {
    if (edges_[e].to == to) return e;
  }
  return kNoIndex;
}

sim::SimDuration ShortestPaths::distance_to(core::NodeId n) const {
  if (graph_ == nullptr) return sim::SimDuration::max();
  if (n == source_) return sim::SimDuration::zero();
  const std::uint32_t i = local(n);
  return i == Graph::kNoIndex ? sim::SimDuration::max() : distance_[i];
}

core::NodeId ShortestPaths::predecessor_of(core::NodeId n) const {
  const std::uint32_t i = local(n);
  if (i == Graph::kNoIndex) return core::kInvalidNode;
  const std::uint32_t p = predecessor_[i];
  if (p == Graph::kNoIndex) return core::kInvalidNode;
  return p == source_ix_ ? source_ : graph_->nodes()[p];
}

std::int32_t ShortestPaths::first_hop_port(core::NodeId n) const {
  const std::uint32_t i = local(n);
  return i == Graph::kNoIndex ? -1 : first_hop_port_[i];
}

std::vector<core::NodeId> ShortestPaths::path_to(core::NodeId dst) const {
  std::vector<core::NodeId> path;
  append_path_to(dst, path);
  return path;
}

bool ShortestPaths::append_path_to(core::NodeId dst,
                                   std::vector<core::NodeId>& out) const {
  if (graph_ == nullptr) return false;
  const std::size_t begin = out.size();
  if (dst != source_) {
    const std::uint32_t i = local(dst);
    if (i == Graph::kNoIndex || distance_[i] == sim::SimDuration::max()) {
      return false;
    }
    const std::vector<core::NodeId>& nodes = graph_->nodes();
    for (std::uint32_t cur = i; cur != source_ix_; cur = predecessor_[cur]) {
      if (cur == Graph::kNoIndex) {  // defensive: broken chain
        out.resize(begin);
        return false;
      }
      out.push_back(nodes[cur]);
    }
  }
  out.push_back(source_);
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end());
  return true;
}

ShortestPaths dijkstra(const Graph& g, core::NodeId source,
                       std::span<const Graph::Edge> source_edges) {
  constexpr sim::SimDuration kUnreached = sim::SimDuration::max();
  const std::size_t n = g.node_count();
  ShortestPaths sp;
  sp.graph_ = &g;
  sp.source_ = source;
  const std::uint32_t in_graph = g.index_of(source);
  const std::uint32_t s =
      in_graph == Graph::kNoIndex ? ShortestPaths::kOutsideSource : in_graph;
  sp.source_ix_ = s;
  sp.distance_.assign(n, kUnreached);
  sp.predecessor_.assign(n, Graph::kNoIndex);
  sp.first_hop_port_.assign(n, -1);

  // Min-heap on (distance, local index): local indices ascend with node
  // ids, so this is the (distance, node id) order. A node is pushed only
  // when its distance strictly improves, so the entry matching its
  // current distance is its only live one and the rest are stale.
  struct Entry {
    sim::SimDuration dist;
    std::uint32_t node;
  };
  const auto later = [](const Entry& a, const Entry& b) {
    return a.dist != b.dist ? a.dist > b.dist : a.node > b.node;
  };
  std::vector<Entry> heap;
  heap.reserve(n);
  std::vector<char> settled(n, 0);
  const auto id_of = [&](std::uint32_t ix) {
    return ix == s ? source : g.nodes()[ix];
  };
  const auto relax = [&](std::uint32_t u, sim::SimDuration du,
                         const Graph::Edge& e) {
    const std::uint32_t v = e.to;
    // The source sits at distance 0 and costs are non-negative, so no
    // edge into it can improve it, and it has no predecessor to tie with.
    if (v == s) return;
    const sim::SimDuration dv = du + e.cost;
    const std::int32_t port = u == s ? e.out_port : sp.first_hop_port_[u];
    if (dv < sp.distance_[v]) {
      sp.distance_[v] = dv;
      sp.predecessor_[v] = u;
      sp.first_hop_port_[v] = port;
      heap.push_back(Entry{dv, v});
      std::push_heap(heap.begin(), heap.end(), later);
    } else if (dv == sp.distance_[v] && settled[v] == 0 &&
               id_of(u) < id_of(sp.predecessor_[v])) {
      // Deterministic tie-break: keep the path whose predecessor id is
      // smaller. Only an unsettled node may be re-parented: a settled
      // one's descendants already inherited its port, and with zero-cost
      // edges re-parenting it could close a predecessor cycle.
      sp.predecessor_[v] = u;
      sp.first_hop_port_[v] = port;
    }
  };

  // The source is settled first: its own out-edges, then the extra ones.
  if (in_graph != Graph::kNoIndex) {
    sp.distance_[in_graph] = sim::SimDuration::zero();
    settled[in_graph] = 1;
    for (const Graph::Edge& e : g.out_edges(in_graph)) {
      relax(s, sim::SimDuration::zero(), e);
    }
  }
  for (const Graph::Edge& e : source_edges) {
    relax(s, sim::SimDuration::zero(), e);
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Entry top = heap.back();
    heap.pop_back();
    if (settled[top.node] != 0 || top.dist != sp.distance_[top.node]) {
      continue;
    }
    settled[top.node] = 1;
    for (const Graph::Edge& e : g.out_edges(top.node)) {
      relax(top.node, top.dist, e);
    }
  }

#if INTSCHED_AUDIT_ENABLED
  // Every reached node's predecessor chain reaches the source within
  // node-count steps: the predecessors form a tree rooted at the source.
  for (std::uint32_t v = 0; v < n; ++v) {
    if (v == s || sp.distance_[v] == kUnreached) continue;
    std::uint32_t cur = v;
    for (std::size_t steps = 0;
         cur != s && cur != Graph::kNoIndex && steps <= n; ++steps) {
      cur = sp.predecessor_[cur];
    }
    INTSCHED_AUDIT_ASSERT(
        cur == s, "shortest-path predecessor chain does not reach the source");
  }
#endif
  return sp;
}

}  // namespace intsched::net
