// Property pack for the metro-scale topology generators: generated
// topologies are well-formed (connected, degree-bounded, no self-loops or
// duplicate links, hosts of degree 1) and generation is a pure function
// of the config — byte-identical fingerprints across repeated calls with
// the same seed, different bytes once the seed (jitter stream) moves.
#include "intsched/net/topology_gen.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "intsched/sim/rng.hpp"

namespace intsched::net {
namespace {

TEST(TopologyGenTest, ClosPodCountsAndRoles) {
  PodShape shape;  // 2 spines, 4 leaves, 2 hosts/leaf, 2 edge servers
  const GenTopology topo = TopologyGen::clos_pod(shape, 7);

  EXPECT_EQ(topo.regions, core::RegionId{1});
  EXPECT_EQ(topo.switch_count(), shape.spines + shape.leaves);
  EXPECT_EQ(topo.hosts().size(),
            static_cast<std::size_t>(shape.leaves * shape.hosts_per_leaf));
  EXPECT_EQ(topo.edge_servers().size(),
            static_cast<std::size_t>(shape.edge_servers_per_pod));
  // spines x leaves fabric + one access link per host.
  EXPECT_EQ(topo.links.size(),
            static_cast<std::size_t>(shape.spines * shape.leaves +
                                     shape.leaves * shape.hosts_per_leaf));
  for (const GenNode& n : topo.nodes) {
    EXPECT_EQ(n.region, core::RegionId{0}) << n.name;
  }
  EXPECT_TRUE(topo.border_links().empty());
}

TEST(TopologyGenTest, ClosPodWellFormedWithDegreeBound) {
  PodShape shape;
  const GenTopology topo = TopologyGen::clos_pod(shape, 7, 0.05);
  EXPECT_TRUE(topo.validate().empty());

  // Leaf degree = spines + hosts_per_leaf (the pod's maximum); one less
  // must trip the bound check.
  const std::int32_t max_degree =
      std::max(shape.leaves, shape.spines + shape.hosts_per_leaf);
  EXPECT_TRUE(topo.validate(max_degree).empty());
  EXPECT_FALSE(topo.validate(max_degree - 1).empty());
}

TEST(TopologyGenTest, RingOfPodsCountsBordersAndRegions) {
  MetroConfig cfg;
  cfg.pods = 4;
  cfg.ring_chords = 2;
  const GenTopology topo = TopologyGen::ring_of_pods(cfg);

  EXPECT_TRUE(topo.validate().empty());
  EXPECT_EQ(topo.regions, core::RegionId{4});
  EXPECT_EQ(topo.switch_count(),
            4 * (cfg.pod.spines + cfg.pod.leaves));
  // 4 ring trunks + chords 0<->2 and 1<->3 (both new pairs).
  EXPECT_EQ(topo.border_links().size(), 6u);
  for (const GenLink& l : topo.border_links()) {
    EXPECT_NE(topo.region_of(l.a), topo.region_of(l.b));
  }
  // Every node carries its pod's region label.
  for (const GenNode& n : topo.nodes) {
    EXPECT_GE(n.region, core::RegionId{0});
    EXPECT_LT(n.region, topo.regions);
  }
}

TEST(TopologyGenTest, TwoPodRingDedupesTheTrunk) {
  MetroConfig cfg;  // pods = 2, 1 gateway
  const GenTopology topo = TopologyGen::ring_of_pods(cfg);
  EXPECT_TRUE(topo.validate().empty());
  EXPECT_EQ(topo.border_links().size(), 1u);
}

TEST(TopologyGenTest, SameSeedIsByteIdenticalDifferentSeedIsNot) {
  MetroConfig cfg;
  cfg.pods = 3;
  cfg.delay_jitter_frac = 0.05;
  const GenTopology a = TopologyGen::ring_of_pods(cfg);
  const GenTopology b = TopologyGen::ring_of_pods(cfg);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  MetroConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_NE(a.fingerprint(),
            TopologyGen::ring_of_pods(other).fingerprint());
}

TEST(TopologyGenTest, GraphHasBothDirectionsWithStablePorts) {
  MetroConfig cfg;
  const GenTopology topo = TopologyGen::ring_of_pods(cfg);
  const Graph g1 = topo.graph();
  const Graph g2 = topo.graph();

  for (const GenLink& l : topo.links) {
    for (const auto& [from, to] :
         {std::pair{l.a, l.b}, std::pair{l.b, l.a}}) {
      ASSERT_TRUE(g1.has_node(from));
      const std::uint32_t e1 =
          g1.find_edge(g1.index_of(from), g1.index_of(to));
      ASSERT_NE(e1, Graph::kNoIndex) << from << "->" << to;
      EXPECT_EQ(g1.edge(e1).cost, l.delay);
      // Port assignment is deterministic across re-instantiations.
      const std::uint32_t e2 =
          g2.find_edge(g2.index_of(from), g2.index_of(to));
      ASSERT_NE(e2, Graph::kNoIndex);
      EXPECT_EQ(g1.edge(e1).out_port, g2.edge(e2).out_port);
    }
  }
}

// Randomized sweep: every config in a seeded family must generate a
// well-formed topology, and regeneration must be byte-identical.
TEST(TopologyGenTest, RandomizedConfigFamilyIsWellFormedAndDeterministic) {
  sim::Rng rng = sim::Rng::derive(99, "test.topogen.configs");
  for (int trial = 0; trial < 12; ++trial) {
    MetroConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000000));
    cfg.pods = static_cast<std::int32_t>(rng.uniform_int(2, 6));
    cfg.pod.spines = static_cast<std::int32_t>(rng.uniform_int(1, 3));
    cfg.pod.leaves = static_cast<std::int32_t>(rng.uniform_int(2, 5));
    cfg.pod.hosts_per_leaf = static_cast<std::int32_t>(rng.uniform_int(1, 3));
    cfg.pod.edge_servers_per_pod = static_cast<std::int32_t>(rng.uniform_int(
        1, cfg.pod.leaves * cfg.pod.hosts_per_leaf));
    cfg.gateways_per_pod =
        static_cast<std::int32_t>(rng.uniform_int(1, cfg.pod.spines));
    cfg.ring_chords = static_cast<std::int32_t>(rng.uniform_int(0, 2));
    cfg.delay_jitter_frac = rng.uniform_real(0.0, 0.1);

    const GenTopology topo = TopologyGen::ring_of_pods(cfg);
    const std::vector<std::string> bad = topo.validate();
    EXPECT_TRUE(bad.empty())
        << "trial " << trial << ": " << (bad.empty() ? "" : bad.front());
    EXPECT_EQ(topo.fingerprint(),
              TopologyGen::ring_of_pods(cfg).fingerprint())
        << "trial " << trial;

    // No self-loops / duplicate undirected links (validate checks this
    // too; re-check directly so the property is visible in the test).
    std::set<std::pair<core::NodeId, core::NodeId>> seen;
    for (const GenLink& l : topo.links) {
      EXPECT_NE(l.a, l.b);
      EXPECT_TRUE(seen.insert(std::minmax(l.a, l.b)).second)
          << "duplicate link " << l.a << "-" << l.b;
      EXPECT_GT(l.delay, sim::SimDuration::zero());
    }
  }
}

TEST(TopologyGenTest, MetroScaleGeneratesThousandsOfSwitches) {
  // The acceptance-scale shape (metro_sweep --full): 1056 switches, 768
  // hosts, 192 edge servers, generated in one pure call.
  MetroConfig cfg;
  cfg.pods = 48;
  cfg.pod.spines = 6;
  cfg.pod.leaves = 16;
  cfg.pod.hosts_per_leaf = 1;
  cfg.pod.edge_servers_per_pod = 4;
  cfg.ring_chords = 2;
  const GenTopology topo = TopologyGen::ring_of_pods(cfg);
  EXPECT_EQ(topo.switch_count(), 1056);
  EXPECT_EQ(topo.hosts().size(), 768u);
  EXPECT_EQ(topo.edge_servers().size(), 192u);
  EXPECT_TRUE(topo.validate().empty());
}

}  // namespace
}  // namespace intsched::net
