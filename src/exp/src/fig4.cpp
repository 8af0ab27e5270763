#include "intsched/exp/fig4.hpp"

#include "intsched/sim/strfmt.hpp"
#include "intsched/telemetry/int_program.hpp"

namespace intsched::exp {

Fig4Network::Fig4Network(sim::Simulator& sim, const Fig4Config& config)
    : topology_{sim} {
  // Hosts first so "node<i>" gets id i-1.
  for (int i = 1; i <= 8; ++i) {
    hosts_.push_back(
        &topology_.add_node<net::Host>(sim::cat("node", i)));
  }

  p4::SwitchConfig sw_cfg = config.switch_config;
  sw_cfg.seed = config.seed;

  // Four pods: two leaves + one middle each.
  std::vector<p4::P4Switch*> mids;
  for (int pod = 0; pod < 4; ++pod) {
    auto& leaf_a = topology_.add_node<p4::P4Switch>(
        sim::cat("s", pod * 3 + 1), sw_cfg);
    auto& leaf_b = topology_.add_node<p4::P4Switch>(
        sim::cat("s", pod * 3 + 2), sw_cfg);
    auto& mid = topology_.add_node<p4::P4Switch>(
        sim::cat("s", pod * 3 + 3), sw_cfg);
    switches_.push_back(&leaf_a);
    switches_.push_back(&leaf_b);
    switches_.push_back(&mid);
    mids.push_back(&mid);

    net::Host& host_a = *hosts_[static_cast<std::size_t>(pod * 2)];
    net::Host& host_b = *hosts_[static_cast<std::size_t>(pod * 2 + 1)];
    topology_.connect(host_a, leaf_a, config.link);
    topology_.connect(host_b, leaf_b, config.link);
    topology_.connect(leaf_a, mid, config.link);
    topology_.connect(leaf_b, mid, config.link);
  }
  // Ring of middles.
  for (std::size_t i = 0; i < mids.size(); ++i) {
    topology_.connect(*mids[i], *mids[(i + 1) % mids.size()], config.link);
  }

  topology_.install_routes();

  for (p4::P4Switch* sw : switches_) {
    if (config.enable_int) {
      sw->load_program(
          std::make_unique<telemetry::IntTelemetryProgram>());
    } else {
      sw->load_program(std::make_unique<p4::ForwardingProgram>());
    }
  }
}

std::vector<core::NodeId> Fig4Network::host_ids() const {
  std::vector<core::NodeId> ids;
  ids.reserve(hosts_.size());
  for (const net::Host* h : hosts_) ids.push_back(h->id());
  return ids;
}

std::set<std::pair<core::NodeId, core::NodeId>>
Fig4Network::probe_covered_links() const {
  std::set<std::pair<core::NodeId, core::NodeId>> covered;
  const core::NodeId sink = scheduler_host().id();
  for (const net::Host* h : hosts_) {
    if (h->id() == sink) continue;
    const auto path = topology_.path(h->id(), sink);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      covered.emplace(path[i], path[i + 1]);
    }
  }
  return covered;
}

std::set<std::pair<core::NodeId, core::NodeId>> Fig4Network::switch_links()
    const {
  std::set<std::pair<core::NodeId, core::NodeId>> out;
  const net::Graph& g = topology_.graph();
  for (const p4::P4Switch* sw : switches_) {
    for (const net::Graph::Edge& edge : g.out_edges(g.index_of(sw->id()))) {
      const core::NodeId to = g.nodes()[edge.to];
      if (topology_.node(to).kind() == net::NodeKind::kSwitch) {
        out.emplace(sw->id(), to);
      }
    }
  }
  return out;
}

std::vector<core::NodeId> Fig4Network::probe_route(
    core::NodeId host, const std::vector<core::NodeId>& waypoints) const {
  const core::NodeId sink = scheduler_host().id();
  std::vector<core::NodeId> full{host};
  core::NodeId at = host;
  for (const core::NodeId w : waypoints) {
    const auto leg = topology_.path(at, w);
    full.insert(full.end(), leg.begin() + 1, leg.end());
    at = w;
  }
  const auto tail = topology_.path(at, sink);
  full.insert(full.end(), tail.begin() + 1, tail.end());
  return full;
}

std::map<core::NodeId, std::vector<core::NodeId>>
Fig4Network::plan_probe_routes() const {
  const core::NodeId sink = scheduler_host().id();
  std::set<std::pair<core::NodeId, core::NodeId>> uncovered = switch_links();

  const auto path_links = [&](const std::vector<core::NodeId>& path) {
    std::vector<std::pair<core::NodeId, core::NodeId>> links;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      links.emplace_back(path[i], path[i + 1]);
    }
    return links;
  };
  const auto route_links = [&](core::NodeId host,
                               const std::vector<core::NodeId>& waypoints) {
    return path_links(probe_route(host, waypoints));
  };
  const auto gain_of =
      [&](const std::vector<std::pair<core::NodeId, core::NodeId>>& links) {
        std::int64_t gain = 0;
        for (const auto& link : links) {
          if (uncovered.contains(link)) ++gain;
        }
        return gain;
      };

  std::map<core::NodeId, std::vector<core::NodeId>> plan;
  // Greedy: per probing host, pick the waypoint list (none, one switch,
  // or an ordered pair — pairs allow hairpins like visiting the far side
  // of a ring and returning) that covers the most still-uncovered links.
  for (const net::Host* h : hosts_) {
    if (h->id() == sink) continue;
    std::vector<core::NodeId> best_waypoints;
    auto best_links = route_links(h->id(), {});
    std::int64_t best_gain = gain_of(best_links);
    for (const p4::P4Switch* a : switches_) {
      const std::vector<core::NodeId> single{a->id()};
      auto links = route_links(h->id(), single);
      std::int64_t gain = gain_of(links);
      if (gain > best_gain) {
        best_gain = gain;
        best_waypoints = single;
        best_links = std::move(links);
      }
      for (const p4::P4Switch* b : switches_) {
        if (b == a) continue;
        const std::vector<core::NodeId> pair{a->id(), b->id()};
        auto pair_links = route_links(h->id(), pair);
        const std::int64_t pair_gain = gain_of(pair_links);
        // Prefer shorter routes on ties: only switch to a pair when it
        // strictly beats the best single/none option.
        if (pair_gain > best_gain) {
          best_gain = pair_gain;
          best_waypoints = pair;
          best_links = std::move(pair_links);
        }
      }
    }
    plan[h->id()] = best_waypoints;
    for (const auto& link : best_links) uncovered.erase(link);
  }
  return plan;
}

}  // namespace intsched::exp
