// Property-based suites: invariants checked across parameter sweeps and
// randomized instances (seeded, reproducible).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "intsched/core/ranking.hpp"
#include "intsched/net/topology.hpp"
#include "intsched/p4/switch.hpp"
#include "intsched/sim/rng.hpp"
#include "intsched/sim/strfmt.hpp"
#include "intsched/sim/stats.hpp"
#include "intsched/telemetry/collector.hpp"
#include "intsched/telemetry/int_program.hpp"
#include "intsched/telemetry/probe_agent.hpp"
#include "intsched/transport/host_stack.hpp"
#include "intsched/transport/tcp.hpp"

namespace intsched {
namespace {

// ---------------------------------------------------------------------
// Property: TCP delivers exactly the requested bytes, regardless of how
// hostile the bottleneck queue is.
struct TcpParam {
  std::int64_t queue_capacity;
  sim::Bytes transfer_size;
};

class TcpConservation : public ::testing::TestWithParam<TcpParam> {};

TEST_P(TcpConservation, AllBytesDeliveredOnce) {
  const TcpParam param = GetParam();
  sim::Simulator sim;
  net::Topology topo{sim};
  auto& a = topo.add_node<net::Host>("a");
  auto& b = topo.add_node<net::Host>("b");
  p4::SwitchConfig sw_cfg;
  sw_cfg.proc_delay_mean = sim::SimDuration::microseconds(200);
  sw_cfg.stall_probability = 0.0;
  auto& sw = topo.add_node<p4::P4Switch>("sw", sw_cfg);
  net::LinkConfig link;
  link.prop_delay = sim::SimDuration::milliseconds(5);
  link.queue_capacity_pkts = param.queue_capacity;
  topo.connect(a, sw, link);
  topo.connect(b, sw, link);
  topo.install_routes();
  sw.load_program(std::make_unique<p4::ForwardingProgram>());

  transport::HostStack stack_a{a};
  transport::HostStack stack_b{b};
  sim::Bytes delivered = -1;
  transport::TcpListener listener{
      stack_b, net::kTaskPort,
      [&](core::NodeId, sim::Bytes bytes,
          std::shared_ptr<const net::AppMessage>) { delivered = bytes; }};
  transport::TcpSender sender{stack_a, b.id(), net::kTaskPort,
                              param.transfer_size};
  sender.start();
  sim.run_until(sim::SimTime::seconds(600));
  EXPECT_EQ(delivered, param.transfer_size);
  EXPECT_TRUE(sender.complete());
}

INSTANTIATE_TEST_SUITE_P(
    QueueAndSizeSweep, TcpConservation,
    ::testing::Values(TcpParam{2, 100'000}, TcpParam{4, 250'000},
                      TcpParam{8, 500'000}, TcpParam{16, 500'000},
                      TcpParam{64, 1'000'000}, TcpParam{512, 2'000'000},
                      TcpParam{3, 1'000}, TcpParam{512, 1}));

// ---------------------------------------------------------------------
// Property: Algorithm 1's estimate equals the brute-force formula on
// randomized telemetry, and ranking order is consistent with it.
class RankerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RankerProperty, EstimateMatchesBruteForce) {
  sim::Rng rng{GetParam()};
  // Random line topology: host 0 - s100 - s101 - ... - host 1.
  const std::int64_t hops = rng.uniform_int(1, 6);
  core::NetworkMap map;
  telemetry::ProbeReport report;
  report.src = core::NodeId{0};
  report.dst = core::NodeId{1};
  std::vector<std::int64_t> queues;
  std::vector<sim::SimDuration> delays;
  for (std::int64_t h = 0; h < hops; ++h) {
    net::IntStackEntry e;
    e.device = core::NodeId{static_cast<std::int32_t>(100 + h)};
    e.ingress_port = 0;
    e.egress_port = 1;
    e.max_queue_pkts = rng.uniform_int(0, 60);
    e.device_max_queue_pkts = e.max_queue_pkts;
    e.ingress_link_latency =
        sim::SimDuration::microseconds(rng.uniform_int(5'000, 20'000));
    report.entries.push_back(e);
    queues.push_back(e.max_queue_pkts);
    delays.push_back(e.ingress_link_latency);
  }
  report.final_link_latency =
      sim::SimDuration::microseconds(rng.uniform_int(5'000, 20'000));
  map.ingest(report, sim::SimTime::zero());

  core::RankerConfig cfg;
  cfg.k_factor = sim::SimDuration::milliseconds(rng.uniform_int(1, 40));

  std::vector<core::NodeId> path{core::NodeId{0}};
  for (std::int64_t h = 0; h < hops; ++h) {
    path.push_back(core::NodeId{static_cast<std::int32_t>(100 + h)});
  }
  path.push_back(core::NodeId{1});

  sim::SimDuration expected = report.final_link_latency;
  for (std::int64_t h = 0; h < hops; ++h) {
    expected += delays[static_cast<std::size_t>(h)];
    expected += cfg.k_factor * queues[static_cast<std::size_t>(h)];
  }
  EXPECT_EQ(core::estimate_path_delay(map, cfg, path, sim::SimTime::zero()),
            expected);
}

TEST_P(RankerProperty, RankingOrderConsistentWithEstimates) {
  sim::Rng rng{GetParam() ^ 0xABCD};
  core::NetworkMap map;
  // Star: collector host 1 at the hub switch 100; candidates 10..14 each
  // behind their own leaf switch.
  for (core::NodeId c = core::NodeId{10}; c < core::NodeId{15}; ++c) {
    telemetry::ProbeReport r;
    r.src = c;
    r.dst = core::NodeId{1};
    net::IntStackEntry leaf;
    leaf.device = core::NodeId{100 + c.value()};
    leaf.ingress_port = 0;
    leaf.egress_port = 1;
    leaf.max_queue_pkts = rng.uniform_int(0, 80);
    leaf.device_max_queue_pkts = leaf.max_queue_pkts;
    leaf.ingress_link_latency =
        sim::SimDuration::microseconds(rng.uniform_int(2'000, 30'000));
    net::IntStackEntry hub;
    hub.device = core::NodeId{100};
    hub.ingress_port = c.value();
    hub.egress_port = 0;
    hub.max_queue_pkts = rng.uniform_int(0, 10);
    hub.device_max_queue_pkts = hub.max_queue_pkts;
    hub.ingress_link_latency =
        sim::SimDuration::microseconds(rng.uniform_int(2'000, 30'000));
    r.entries = {leaf, hub};
    r.final_link_latency = sim::SimDuration::milliseconds(5);
    map.ingest(r, sim::SimTime::zero());
  }
  core::Ranker ranker{map};
  const std::vector<core::NodeId> candidates{
      core::NodeId{10}, core::NodeId{11}, core::NodeId{12}, core::NodeId{13},
      core::NodeId{14}};
  const auto by_delay =
      ranker.rank(core::NodeId{1}, candidates, core::RankingMetric::kDelay,
                  sim::SimTime::zero());
  ASSERT_EQ(by_delay.size(), candidates.size());
  for (std::size_t i = 1; i < by_delay.size(); ++i) {
    EXPECT_LE(by_delay[i - 1].delay_estimate, by_delay[i].delay_estimate);
  }
  const auto by_bw =
      ranker.rank(core::NodeId{1}, candidates, core::RankingMetric::kBandwidth,
                  sim::SimTime::zero());
  for (std::size_t i = 1; i < by_bw.size(); ++i) {
    EXPECT_GE(by_bw[i - 1].bandwidth_estimate.bps(),
              by_bw[i].bandwidth_estimate.bps());
  }
}

TEST_P(RankerProperty, RankingInvariantToCandidateOrder) {
  sim::Rng rng{GetParam() ^ 0x1234};
  core::NetworkMap map;
  telemetry::ProbeReport r;
  r.src = core::NodeId{10};
  r.dst = core::NodeId{1};
  net::IntStackEntry e;
  e.device = core::NodeId{100};
  e.ingress_port = 0;
  e.egress_port = 1;
  e.max_queue_pkts = rng.uniform_int(0, 50);
  e.device_max_queue_pkts = e.max_queue_pkts;
  e.ingress_link_latency = sim::SimDuration::milliseconds(10);
  r.entries = {e};
  r.final_link_latency = sim::SimDuration::milliseconds(10);
  map.ingest(r, sim::SimTime::zero());

  core::Ranker ranker{map};
  std::vector<core::NodeId> candidates{core::NodeId{10}, core::NodeId{1},
                                       core::NodeId{99}, core::NodeId{100}};
  const auto sorted_once =
      ranker.rank(core::NodeId{10}, candidates, core::RankingMetric::kDelay,
                  sim::SimTime::zero());
  std::reverse(candidates.begin(), candidates.end());
  const auto sorted_again =
      ranker.rank(core::NodeId{10}, candidates, core::RankingMetric::kDelay,
                  sim::SimTime::zero());
  ASSERT_EQ(sorted_once.size(), sorted_again.size());
  for (std::size_t i = 0; i < sorted_once.size(); ++i) {
    EXPECT_EQ(sorted_once[i].server, sorted_again[i].server);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankerProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------
// Property: topology inference from probes reconstructs random trees.
class InferenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InferenceProperty, RandomTreeRecovered) {
  sim::Rng rng{GetParam()};
  sim::Simulator sim;
  net::Topology topo{sim};

  // Random switch tree of 3-8 switches; one host per switch; the
  // collector host hangs off switch 0.
  const std::int64_t n_switches = rng.uniform_int(3, 8);
  std::vector<p4::P4Switch*> switches;
  std::vector<net::Host*> hosts;
  for (std::int64_t i = 0; i < n_switches; ++i) {
    hosts.push_back(&topo.add_node<net::Host>(sim::cat("h", i)));
  }
  p4::SwitchConfig sw_cfg;
  sw_cfg.stall_probability = 0.0;
  for (std::int64_t i = 0; i < n_switches; ++i) {
    switches.push_back(
        &topo.add_node<p4::P4Switch>(sim::cat("s", i), sw_cfg));
  }
  net::LinkConfig link;
  for (std::int64_t i = 0; i < n_switches; ++i) {
    topo.connect(*hosts[static_cast<std::size_t>(i)],
                 *switches[static_cast<std::size_t>(i)], link);
    if (i > 0) {
      const auto parent = rng.uniform_int(0, i - 1);
      topo.connect(*switches[static_cast<std::size_t>(i)],
                   *switches[static_cast<std::size_t>(parent)], link);
    }
  }
  topo.install_routes();
  for (p4::P4Switch* sw : switches) {
    sw->load_program(std::make_unique<telemetry::IntTelemetryProgram>());
  }

  net::Host* collector_host = hosts[0];
  transport::HostStack stack{*collector_host};
  telemetry::IntCollector collector{*collector_host};
  core::NetworkMap map;
  stack.bind_udp(net::kProbePort, [&](const net::Packet& p) {
    collector.handle_packet(p);
  });
  collector.set_handler([&](const telemetry::ProbeReport& r) {
    map.ingest(r, sim.now());
  });

  std::vector<std::unique_ptr<telemetry::ProbeAgent>> agents;
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    agents.push_back(std::make_unique<telemetry::ProbeAgent>(
        *hosts[i], collector_host->id()));
    agents.back()->start();
  }
  sim.run_until(sim::SimTime::seconds(2));

  // Every directed link on every host->collector path must be known with
  // the correct egress port, and its delay within the service envelope.
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    const auto path = topo.path(hosts[i]->id(), collector_host->id());
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      const core::NodeId from = path[j];
      const core::NodeId to = path[j + 1];
      EXPECT_TRUE(map.knows_node(from));
      const sim::SimDuration d = map.link_delay(from, to);
      EXPECT_GE(d, sim::SimDuration::milliseconds(9)) << from << "->" << to;
      EXPECT_LE(d, sim::SimDuration::milliseconds(12)) << from << "->" << to;
      if (j > 0) {  // switch egress ports are learnable
        const std::int32_t port = map.egress_port(from, to);
        EXPECT_EQ(port, topo.node(from).route_to(to)) << from << "->" << to;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InferenceProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------
// Property: drop-tail queue never exceeds capacity and conserves packets.
class QueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueProperty, ConservationAndBounds) {
  sim::Rng rng{GetParam()};
  const std::int64_t capacity = rng.uniform_int(1, 32);
  net::DropTailQueue q{capacity};
  std::int64_t max_seen = 0;
  q.set_occupancy_observer([&](std::int64_t d) {
    max_seen = std::max(max_seen, d);
  });
  std::int64_t dequeued = 0;
  for (int op = 0; op < 2000; ++op) {
    if (rng.chance(0.6)) {
      net::Packet p;
      p.wire_size = rng.uniform_int(64, 1500);
      q.enqueue(std::move(p));
    } else if (q.dequeue().has_value()) {
      ++dequeued;
    }
    ASSERT_LE(q.size_pkts(), capacity);
    ASSERT_GE(q.size_bytes(), 0);
  }
  EXPECT_EQ(q.enqueued() - q.dequeued(), q.size_pkts());
  EXPECT_EQ(q.dequeued(), dequeued);
  EXPECT_LE(max_seen, capacity);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------------------
// Property: dijkstra agrees with Floyd-Warshall on random graphs.
class ShortestPathProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ShortestPathProperty, MatchesFloydWarshall) {
  sim::Rng rng{GetParam()};
  const std::int64_t n = rng.uniform_int(3, 10);
  std::vector<net::Graph::Arc> arcs;
  std::map<std::pair<core::NodeId, core::NodeId>, std::int64_t> w;
  for (core::NodeId i = core::NodeId{0}; i.value() < n; ++i) {
    for (core::NodeId j = core::NodeId{0}; j.value() < n; ++j) {
      if (i == j) continue;
      if (rng.chance(0.4)) {
        const std::int64_t cost = rng.uniform_int(1, 50);
        arcs.push_back(net::Graph::Arc{
            i, j, 0, sim::SimDuration::milliseconds(cost)});
        w[{i, j}] = cost;
      }
    }
  }
  // Floyd-Warshall baseline.
  constexpr std::int64_t kInf = 1'000'000;
  std::vector<std::vector<std::int64_t>> dist(
      static_cast<std::size_t>(n),
      std::vector<std::int64_t>(static_cast<std::size_t>(n), kInf));
  for (core::NodeId i = core::NodeId{0}; i.value() < n; ++i) {
    dist[i.index()][i.index()] = 0;
  }
  for (const auto& [key, cost] : w) {
    dist[key.first.index()][key.second.index()] =
        std::min(dist[key.first.index()][key.second.index()], cost);
  }
  for (std::int64_t k = 0; k < n; ++k) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        const auto ik = dist[static_cast<std::size_t>(i)]
                            [static_cast<std::size_t>(k)];
        const auto kj = dist[static_cast<std::size_t>(k)]
                            [static_cast<std::size_t>(j)];
        auto& ij = dist[static_cast<std::size_t>(i)]
                       [static_cast<std::size_t>(j)];
        if (ik + kj < ij) ij = ik + kj;
      }
    }
  }
  const net::Graph g{arcs};
  for (core::NodeId src = core::NodeId{0}; src.value() < n; ++src) {
    const net::ShortestPaths sp = net::dijkstra(g, src);
    for (core::NodeId dst = core::NodeId{0}; dst.value() < n; ++dst) {
      const auto expected = dist[src.index()][dst.index()];
      if (expected >= kInf) {
        EXPECT_FALSE(sp.reaches(dst));
      } else {
        ASSERT_TRUE(sp.reaches(dst)) << src << "->" << dst;
        EXPECT_EQ(sp.distance_to(dst),
                  sim::SimDuration::milliseconds(expected));
      }
    }
  }
}

/// A naive O(V^2) Dijkstra written out from net::dijkstra's contract:
///  - the next node settled is the unsettled one with the smallest
///    (distance, id);
///  - an edge relaxes on a strict improvement, or on a tie from a
///    smaller-id predecessor while the target is unsettled;
///  - no edge into the source is ever relaxed;
///  - the first-hop port comes from the source's edge and is inherited
///    down the tree.
/// The source's out-edges are its graph edges, then `extra`.
struct OracleEdge {
  core::NodeId to;
  std::int32_t port;
  std::int64_t cost;
};
struct OracleResult {
  std::map<core::NodeId, std::int64_t> dist;
  std::map<core::NodeId, core::NodeId> pred;
  std::map<core::NodeId, std::int32_t> port;
};
OracleResult naive_dijkstra(
    const std::map<core::NodeId, std::vector<OracleEdge>>& adj,
    core::NodeId source, const std::vector<OracleEdge>& extra) {
  OracleResult r;
  std::set<core::NodeId> settled;
  r.dist[source] = 0;
  for (;;) {
    bool found = false;
    core::NodeId u = core::kInvalidNode;
    for (const auto& [node, d] : r.dist) {
      if (settled.contains(node)) continue;
      if (!found || d < r.dist.at(u)) {  // ascending ids: first min wins
        u = node;
        found = true;
      }
    }
    if (!found) break;
    settled.insert(u);
    std::vector<OracleEdge> out;
    if (const auto it = adj.find(u); it != adj.end()) out = it->second;
    if (u == source) out.insert(out.end(), extra.begin(), extra.end());
    for (const OracleEdge& e : out) {
      if (e.to == source) continue;
      const std::int64_t nd = r.dist.at(u) + e.cost;
      const std::int32_t port = u == source ? e.port : r.port.at(u);
      const auto cur = r.dist.find(e.to);
      if (cur == r.dist.end() || nd < cur->second) {
        r.dist[e.to] = nd;
        r.pred[e.to] = u;
        r.port[e.to] = port;
      } else if (nd == cur->second && !settled.contains(e.to) &&
                 u < r.pred.at(e.to)) {
        r.pred[e.to] = u;
        r.port[e.to] = port;
      }
    }
  }
  return r;
}

// Property: net::dijkstra agrees with the naive oracle on distance,
// predecessor, first-hop port and path for every node, on random graphs
// built to hit every tie rule: costs 0-3 (zero-cost edges and equal-cost
// ties), zero-cost cycles through and away from the source, parallel
// edges with different ports, unreachable nodes, sparse ids, sources
// outside the graph and sources with extra out-edges (the summary-tree
// shape).
TEST_P(ShortestPathProperty, MatchesNaiveOracle) {
  sim::Rng rng{GetParam()};
  const auto cost_of = [](std::int64_t c) {
    return sim::SimDuration::nanos(c);
  };
  // Sparse ids, so local indices differ from ids.
  std::vector<core::NodeId> ids;
  for (std::int32_t id = 0; id < 40; ++id) {
    if (rng.chance(0.3)) ids.push_back(core::NodeId{id});
  }
  while (ids.size() < 4) {
    ids.push_back(core::NodeId{40 + static_cast<std::int32_t>(ids.size())});
  }
  const auto pick = [&] {
    return ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
  };

  std::vector<net::Graph::Arc> arcs;
  std::map<core::NodeId, std::vector<OracleEdge>> adj;
  const auto add = [&](core::NodeId from, core::NodeId to, std::int64_t c) {
    const auto port = static_cast<std::int32_t>(rng.uniform_int(0, 7));
    arcs.push_back(net::Graph::Arc{from, to, port, cost_of(c)});
    adj[from].push_back(OracleEdge{to, port, c});
  };
  for (const core::NodeId a : ids) {
    for (const core::NodeId b : ids) {
      if (a == b || !rng.chance(0.3)) continue;
      add(a, b, rng.uniform_int(0, 3));
      // A parallel edge, often at the same cost: the first one wins.
      if (rng.chance(0.2)) add(a, b, rng.uniform_int(0, 3));
    }
  }
  // Zero-cost cycles through ids[0] (a source below) and away from it.
  add(ids[0], ids[1], 0);
  add(ids[1], ids[0], 0);
  add(ids[2], ids[3], 0);
  add(ids[3], ids[2], 0);
  // A node nothing reaches.
  add(core::NodeId{99}, pick(), rng.uniform_int(0, 3));
  // The arcs added after the loop leave the input unsorted by source; the
  // graph must still keep each node's edges in input order, as the
  // oracle's adjacency does.
  const net::Graph g{arcs};

  const auto check = [&](core::NodeId source,
                         const std::vector<OracleEdge>& extra) {
    std::vector<net::Graph::Edge> extra_edges;
    for (const OracleEdge& e : extra) {
      extra_edges.push_back(
          net::Graph::Edge{g.index_of(e.to), e.port, cost_of(e.cost)});
    }
    const net::ShortestPaths sp = net::dijkstra(g, source, extra_edges);
    const OracleResult want = naive_dijkstra(adj, source, extra);
    std::vector<core::NodeId> every = g.nodes();
    every.push_back(source);
    for (const core::NodeId n : every) {
      const std::string where = sim::cat("source ", source, " node ", n);
      const auto d = want.dist.find(n);
      if (d == want.dist.end()) {
        EXPECT_FALSE(sp.reaches(n)) << where;
        EXPECT_EQ(sp.predecessor_of(n), core::kInvalidNode) << where;
        EXPECT_EQ(sp.first_hop_port(n), -1) << where;
        EXPECT_TRUE(sp.path_to(n).empty()) << where;
        continue;
      }
      EXPECT_EQ(sp.distance_to(n), cost_of(d->second)) << where;
      const auto p = want.pred.find(n);
      EXPECT_EQ(sp.predecessor_of(n),
                p == want.pred.end() ? core::kInvalidNode : p->second)
          << where;
      const auto port = want.port.find(n);
      EXPECT_EQ(sp.first_hop_port(n),
                port == want.port.end() ? -1 : port->second)
          << where;
      // The oracle's path, by a bounded walk up its predecessors.
      std::vector<core::NodeId> path{n};
      for (core::NodeId cur = n;
           cur != source && path.size() <= every.size();) {
        cur = want.pred.at(cur);
        path.push_back(cur);
      }
      std::reverse(path.begin(), path.end());
      ASSERT_EQ(path.front(), source) << where << ": oracle chain broken";
      std::vector<core::NodeId> appended{core::NodeId{12345}};
      ASSERT_TRUE(sp.append_path_to(n, appended)) << where;
      EXPECT_EQ(appended.front(), core::NodeId{12345}) << where;
      appended.erase(appended.begin());
      EXPECT_EQ(appended, path) << where;
      EXPECT_EQ(sp.path_to(n), path) << where;
    }
  };
  const auto random_extra = [&] {
    std::vector<OracleEdge> extra;
    const std::int64_t count = rng.uniform_int(1, 3);
    const auto last = static_cast<std::int64_t>(g.node_count()) - 1;
    for (std::int64_t i = 0; i < count; ++i) {
      const core::NodeId to =
          g.nodes()[static_cast<std::size_t>(rng.uniform_int(0, last))];
      extra.push_back(OracleEdge{to,
                                 static_cast<std::int32_t>(
                                     rng.uniform_int(0, 7)),
                                 rng.uniform_int(0, 3)});
    }
    return extra;
  };
  for (const core::NodeId source : g.nodes()) {
    check(source, {});
    check(source, random_extra());
  }
  // A source outside the graph: alone it reaches only itself; with extra
  // out-edges it enters the graph through them.
  check(core::NodeId{500}, {});
  check(core::NodeId{500}, random_extra());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShortestPathProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

// ---------------------------------------------------------------------
// Property: ECDF axioms hold for arbitrary sample sets.
class EcdfProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdfProperty, AxiomsHold) {
  sim::Rng rng{GetParam()};
  sim::Ecdf e;
  const std::int64_t count = rng.uniform_int(1, 500);
  for (std::int64_t i = 0; i < count; ++i) {
    e.add(rng.uniform_real(-100.0, 100.0));
  }
  double prev = 0.0;
  for (double x = -110.0; x <= 110.0; x += 7.3) {
    const double f = e.fraction_at_most(x);
    EXPECT_GE(f, prev);  // monotone nondecreasing
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    EXPECT_NEAR(f + e.fraction_at_least(x), 1.0 + 0.0,
                1.0)  // complements overlap only at atoms
        << x;
    prev = f;
  }
  EXPECT_DOUBLE_EQ(e.fraction_at_most(101.0), 1.0);
  EXPECT_DOUBLE_EQ(e.fraction_at_most(-101.0), 0.0);
  EXPECT_GE(e.quantile(1.0), e.quantile(0.5));
  EXPECT_GE(e.quantile(0.5), e.quantile(0.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace intsched

// ---------------------------------------------------------------------
// Property: every policy x workload combination completes all tasks with
// well-ordered timestamps and valid server assignments.
#include "intsched/exp/experiment.hpp"

namespace intsched {
namespace {

struct SuiteParam {
  core::PolicyKind policy;
  edge::WorkloadKind workload;
};

class ExperimentMatrix : public ::testing::TestWithParam<SuiteParam> {};

TEST_P(ExperimentMatrix, CompletesWithOrderedTimelines) {
  const SuiteParam param = GetParam();
  exp::ExperimentConfig cfg;
  cfg.seed = 31;
  cfg.policy = param.policy;
  cfg.workload.kind = param.workload;
  cfg.workload.total_tasks = 12;
  cfg.workload.job_interval = sim::SimDuration::seconds(3);
  cfg.background.mode = exp::BackgroundMode::kRandomPairs;
  const exp::ExperimentResult result = exp::run_experiment(cfg);

  EXPECT_EQ(result.tasks_completed, result.tasks_total);
  for (const edge::TaskRecord* r : result.metrics.records()) {
    ASSERT_TRUE(r->is_complete());
    // Valid assignment: a host other than the submitting device.
    EXPECT_GE(r->server, core::NodeId{0});
    EXPECT_LT(r->server, core::NodeId{8});
    EXPECT_NE(r->server, r->device);
    // Ordered timeline.
    EXPECT_GE(r->scheduled, r->submitted);
    EXPECT_GE(r->transfer_start, r->scheduled);
    EXPECT_GT(r->transfer_end, r->transfer_start);
    EXPECT_GE(r->exec_end, r->transfer_end + r->exec_time);
    EXPECT_GT(r->completed, r->exec_end);
    // Transfer cannot beat the speed of light through 3+ switches.
    EXPECT_GT(r->transfer_time(), sim::SimDuration::milliseconds(30));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, ExperimentMatrix,
    ::testing::Values(
        SuiteParam{core::PolicyKind::kIntDelay,
                   edge::WorkloadKind::kServerless},
        SuiteParam{core::PolicyKind::kIntDelay,
                   edge::WorkloadKind::kDistributed},
        SuiteParam{core::PolicyKind::kIntBandwidth,
                   edge::WorkloadKind::kServerless},
        SuiteParam{core::PolicyKind::kIntBandwidth,
                   edge::WorkloadKind::kDistributed},
        SuiteParam{core::PolicyKind::kNearest,
                   edge::WorkloadKind::kServerless},
        SuiteParam{core::PolicyKind::kNearest,
                   edge::WorkloadKind::kDistributed},
        SuiteParam{core::PolicyKind::kRandom,
                   edge::WorkloadKind::kServerless},
        SuiteParam{core::PolicyKind::kRandom,
                   edge::WorkloadKind::kDistributed}));

}  // namespace
}  // namespace intsched
