#include "intsched/net/topology_gen.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "intsched/sim/strfmt.hpp"

namespace intsched::net {
namespace {

/// Jittered copy of a base delay: base * (1 +- frac), quantized to whole
/// nanoseconds (SimTime's resolution) so fingerprints are exact.
sim::SimDuration jittered(sim::SimDuration base, double frac, sim::Rng& rng) {
  if (frac <= 0.0) return base;
  const double scale = rng.uniform_real(1.0 - frac, 1.0 + frac);
  return sim::SimDuration::nanos(static_cast<std::int64_t>(
      static_cast<double>(base.ns()) * scale));
}

struct Builder {
  GenTopology topo;
  sim::Rng rng;
  double jitter_frac;

  Builder(std::uint64_t seed, double jitter)
      : rng{sim::Rng::derive(seed, "topogen.link")}, jitter_frac{jitter} {}

  core::NodeId add_node(NodeKind kind, core::RegionId region, bool edge_server,
                  std::string name) {
    const core::NodeId id{static_cast<std::int32_t>(topo.nodes.size())};
    topo.nodes.push_back(GenNode{id, kind, region, edge_server,
                                 std::move(name)});
    return id;
  }

  void link(core::NodeId a, core::NodeId b, sim::SimDuration base_delay) {
    topo.links.push_back(GenLink{a, b, jittered(base_delay, jitter_frac,
                                                rng)});
  }

  /// Appends one Clos pod; returns the pod's spine node ids (the first
  /// gateways_per_pod of them carry the ring links).
  std::vector<core::NodeId> add_pod(const PodShape& shape,
                                    core::RegionId region) {
    std::vector<core::NodeId> spines;
    spines.reserve(static_cast<std::size_t>(shape.spines));
    for (std::int32_t s = 0; s < shape.spines; ++s) {
      spines.push_back(add_node(NodeKind::kSwitch, region, false,
                                sim::cat("p", region, ".spine", s)));
    }
    std::vector<core::NodeId> leaves;
    leaves.reserve(static_cast<std::size_t>(shape.leaves));
    for (std::int32_t l = 0; l < shape.leaves; ++l) {
      leaves.push_back(add_node(NodeKind::kSwitch, region, false,
                                sim::cat("p", region, ".leaf", l)));
    }
    std::int32_t host_index = 0;
    std::vector<core::NodeId> hosts;
    for (std::int32_t l = 0; l < shape.leaves; ++l) {
      for (std::int32_t h = 0; h < shape.hosts_per_leaf; ++h) {
        const bool server = host_index < shape.edge_servers_per_pod;
        hosts.push_back(add_node(NodeKind::kHost, region, server,
                                 sim::cat("p", region, ".h", host_index)));
        ++host_index;
      }
    }
    // Fabric: full leaf-spine bipartite graph, then host access links —
    // all in a fixed order so ports and jitter draws are reproducible.
    for (std::int32_t l = 0; l < shape.leaves; ++l) {
      for (std::int32_t s = 0; s < shape.spines; ++s) {
        link(leaves[static_cast<std::size_t>(l)],
             spines[static_cast<std::size_t>(s)], shape.fabric_link_delay);
      }
    }
    for (std::int32_t l = 0; l < shape.leaves; ++l) {
      for (std::int32_t h = 0; h < shape.hosts_per_leaf; ++h) {
        const std::size_t hi = static_cast<std::size_t>(
            l * shape.hosts_per_leaf + h);
        link(hosts[hi], leaves[static_cast<std::size_t>(l)],
             shape.host_link_delay);
      }
    }
    return spines;
  }
};

}  // namespace

std::int64_t GenTopology::switch_count() const {
  std::int64_t n = 0;
  for (const GenNode& node : nodes) {
    if (node.kind == NodeKind::kSwitch) ++n;
  }
  return n;
}

std::vector<core::NodeId> GenTopology::hosts() const {
  std::vector<core::NodeId> out;
  for (const GenNode& node : nodes) {
    if (node.kind == NodeKind::kHost) out.push_back(node.id);
  }
  return out;
}

std::vector<core::NodeId> GenTopology::edge_servers() const {
  std::vector<core::NodeId> out;
  for (const GenNode& node : nodes) {
    if (node.edge_server) out.push_back(node.id);
  }
  return out;
}

std::vector<GenLink> GenTopology::border_links() const {
  std::vector<GenLink> out;
  for (const GenLink& l : links) {
    if (region_of(l.a) != region_of(l.b)) out.push_back(l);
  }
  return out;
}

Graph GenTopology::graph() const {
  std::vector<Graph::Arc> arcs;
  arcs.reserve(links.size() * 2);
  std::vector<std::int32_t> next_port(nodes.size(), 0);
  for (const GenLink& l : links) {
    const std::int32_t port_a = next_port[l.a.index()]++;
    const std::int32_t port_b = next_port[l.b.index()]++;
    arcs.push_back(Graph::Arc{l.a, l.b, port_a, l.delay});
    arcs.push_back(Graph::Arc{l.b, l.a, port_b, l.delay});
  }
  return Graph{arcs};
}

std::vector<std::string> GenTopology::validate(
    std::int32_t max_switch_degree) const {
  std::vector<std::string> bad;
  const core::NodeId n{static_cast<std::int32_t>(nodes.size())};
  for (core::NodeId i{0}; i < n; ++i) {
    const GenNode& node = nodes[i.index()];
    if (node.id != i) {
      bad.push_back(sim::cat("node at index ", i, " has id ", node.id));
    }
    if (!node.region.valid() || node.region >= regions) {
      bad.push_back(sim::cat("node ", i, " region ", node.region,
                             " outside [0, ", regions, ")"));
    }
    if (node.edge_server && node.kind != NodeKind::kHost) {
      bad.push_back(sim::cat("node ", i, " is an edge server but not a host"));
    }
  }

  std::vector<std::int64_t> degree(nodes.size(), 0);
  std::set<std::pair<core::NodeId, core::NodeId>> seen;
  for (std::size_t li = 0; li < links.size(); ++li) {
    const GenLink& l = links[li];
    if (!l.a.valid() || l.a >= n || !l.b.valid() || l.b >= n) {
      bad.push_back(sim::cat("link ", li, " endpoint out of range"));
      continue;
    }
    if (l.a == l.b) {
      bad.push_back(sim::cat("link ", li, " is a self-loop at ", l.a));
      continue;
    }
    if (l.delay <= sim::SimDuration::zero()) {
      bad.push_back(sim::cat("link ", li, " has non-positive delay"));
    }
    const auto key = std::minmax(l.a, l.b);
    if (!seen.insert(key).second) {
      bad.push_back(sim::cat("duplicate link ", key.first, "-", key.second));
    }
    ++degree[l.a.index()];
    ++degree[l.b.index()];
  }

  for (core::NodeId i{0}; i < n; ++i) {
    const GenNode& node = nodes[i.index()];
    const std::int64_t d = degree[i.index()];
    if (node.kind == NodeKind::kHost && d != 1) {
      bad.push_back(sim::cat("host ", i, " has degree ", d, ", want 1"));
    }
    if (node.kind == NodeKind::kSwitch && d < 1) {
      bad.push_back(sim::cat("switch ", i, " is isolated"));
    }
    if (node.kind == NodeKind::kSwitch && max_switch_degree > 0 &&
        d > max_switch_degree) {
      bad.push_back(sim::cat("switch ", i, " degree ", d, " exceeds bound ",
                             max_switch_degree));
    }
  }

  // Connectivity: BFS over the undirected adjacency from node 0.
  if (!nodes.empty()) {
    std::vector<std::vector<core::NodeId>> adj(nodes.size());
    for (const GenLink& l : links) {
      if (!l.a.valid() || l.a >= n || !l.b.valid() || l.b >= n ||
          l.a == l.b) {
        continue;
      }
      adj[l.a.index()].push_back(l.b);
      adj[l.b.index()].push_back(l.a);
    }
    std::vector<char> visited(nodes.size(), 0);
    std::vector<core::NodeId> frontier{core::NodeId{0}};
    visited[0] = 1;
    std::int64_t reached = 1;
    while (!frontier.empty()) {
      const core::NodeId cur = frontier.back();
      frontier.pop_back();
      for (const core::NodeId next : adj[cur.index()]) {
        if (visited[next.index()] == 0) {
          visited[next.index()] = 1;
          ++reached;
          frontier.push_back(next);
        }
      }
    }
    if (reached != static_cast<std::int64_t>(nodes.size())) {
      bad.push_back(sim::cat("topology is disconnected: reached ", reached,
                             " of ", nodes.size(), " nodes"));
    }
  }
  return bad;
}

std::string GenTopology::fingerprint() const {
  std::ostringstream os;
  os << "regions=" << regions << '\n';
  for (const GenNode& node : nodes) {
    os << node.id << ',' << static_cast<int>(node.kind) << ',' << node.region
       << ',' << (node.edge_server ? 1 : 0) << ',' << node.name << '\n';
  }
  for (const GenLink& l : links) {
    os << l.a << '-' << l.b << '@' << l.delay.ns() << '\n';
  }
  return os.str();
}

GenTopology TopologyGen::clos_pod(const PodShape& shape, std::uint64_t seed,
                                  double delay_jitter_frac) {
  Builder b{seed, delay_jitter_frac};
  b.topo.regions = core::RegionId{1};
  (void)b.add_pod(shape, core::RegionId{0});
  return std::move(b.topo);
}

GenTopology TopologyGen::ring_of_pods(const MetroConfig& cfg) {
  Builder b{cfg.seed, cfg.delay_jitter_frac};
  b.topo.regions = core::RegionId{cfg.pods};

  std::vector<std::vector<core::NodeId>> spines;
  spines.reserve(static_cast<std::size_t>(cfg.pods));
  for (std::int32_t p = 0; p < cfg.pods; ++p) {
    spines.push_back(b.add_pod(cfg.pod, core::RegionId{p}));
  }

  const std::int32_t gateways =
      std::min(cfg.gateways_per_pod, cfg.pod.spines);
  // Ring links between consecutive pods' gateway spines. A 2-pod "ring"
  // degenerates to a single inter-pod trunk; dedupe instead of doubling.
  if (cfg.pods >= 2) {
    const std::int32_t ring_edges = cfg.pods == 2 ? 1 : cfg.pods;
    for (std::int32_t p = 0; p < ring_edges; ++p) {
      const auto next = static_cast<std::size_t>((p + 1) % cfg.pods);
      for (std::int32_t g = 0; g < gateways; ++g) {
        b.link(spines[static_cast<std::size_t>(p)]
                     [static_cast<std::size_t>(g)],
               spines[next][static_cast<std::size_t>(g)],
               cfg.ring_link_delay);
      }
    }
  }
  // Chords: pod c to the pod halfway around, first gateways only. Skip
  // pairs the ring already connects (pods < 4 make every "chord" a ring
  // edge).
  if (cfg.pods >= 4) {
    std::set<std::pair<core::NodeId, core::NodeId>> existing;
    for (const GenLink& l : b.topo.links) {
      existing.insert(std::minmax(l.a, l.b));
    }
    for (std::int32_t c = 0; c < cfg.ring_chords; ++c) {
      const std::int32_t p = c % cfg.pods;
      const std::int32_t q = (p + cfg.pods / 2) % cfg.pods;
      if (p == q) continue;
      const core::NodeId a = spines[static_cast<std::size_t>(p)][0];
      const core::NodeId bb = spines[static_cast<std::size_t>(q)][0];
      if (!existing.insert(std::minmax(a, bb)).second) continue;
      b.link(a, bb, cfg.ring_link_delay);
    }
  }
  return std::move(b.topo);
}

}  // namespace intsched::net
