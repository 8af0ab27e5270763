#include "intsched/net/routing.hpp"

#include <gtest/gtest.h>

namespace intsched::net {
namespace {

sim::SimDuration ms(int v) { return sim::SimDuration::millis(v); }
core::NodeId nid(int v) { return core::NodeId{v}; }

TEST(GraphTest, AddEdgeTracksNodes) {
  Graph g;
  g.add_edge(nid(1), nid(2), 0, ms(10));
  EXPECT_TRUE(g.has_node(nid(1)));
  EXPECT_TRUE(g.has_node(nid(2)));  // sink is known even with no out-edges
  EXPECT_FALSE(g.has_node(nid(3)));
}

TEST(GraphTest, NodesSorted) {
  Graph g;
  g.add_edge(nid(5), nid(1), 0, ms(1));
  g.add_edge(nid(3), nid(5), 0, ms(1));
  EXPECT_EQ(g.nodes(), (std::vector<core::NodeId>{nid(1), nid(3), nid(5)}));
}

TEST(DijkstraTest, LineGraphDistances) {
  Graph g;  // 0 -10ms- 1 -20ms- 2
  g.add_edge(nid(0), nid(1), 0, ms(10));
  g.add_edge(nid(1), nid(0), 0, ms(10));
  g.add_edge(nid(1), nid(2), 1, ms(20));
  g.add_edge(nid(2), nid(1), 0, ms(20));
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.distance.at(nid(0)), ms(0));
  EXPECT_EQ(sp.distance.at(nid(1)), ms(10));
  EXPECT_EQ(sp.distance.at(nid(2)), ms(30));
}

TEST(DijkstraTest, PathReconstruction) {
  Graph g;
  g.add_edge(nid(0), nid(1), 0, ms(10));
  g.add_edge(nid(1), nid(2), 0, ms(10));
  g.add_edge(nid(2), nid(3), 0, ms(10));
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.path_to(nid(3)),
            (std::vector<core::NodeId>{nid(0), nid(1), nid(2), nid(3)}));
  EXPECT_EQ(sp.path_to(nid(0)), (std::vector<core::NodeId>{nid(0)}));
}

TEST(DijkstraTest, UnreachableNodeAbsent) {
  Graph g;
  g.add_edge(nid(0), nid(1), 0, ms(10));
  g.add_edge(nid(2), nid(3), 0, ms(10));  // disconnected component
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_FALSE(sp.distance.contains(nid(3)));
  EXPECT_TRUE(sp.path_to(nid(3)).empty());
}

TEST(DijkstraTest, PicksShorterOfTwoRoutes) {
  Graph g;  // 0->1->3 costs 30; 0->2->3 costs 25
  g.add_edge(nid(0), nid(1), 0, ms(10));
  g.add_edge(nid(1), nid(3), 0, ms(20));
  g.add_edge(nid(0), nid(2), 1, ms(15));
  g.add_edge(nid(2), nid(3), 0, ms(10));
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.distance.at(nid(3)), ms(25));
  EXPECT_EQ(sp.path_to(nid(3)),
            (std::vector<core::NodeId>{nid(0), nid(2), nid(3)}));
  EXPECT_EQ(sp.first_hop_port.at(nid(3)), 1);
}

TEST(DijkstraTest, FirstHopPortPropagates) {
  Graph g;
  g.add_edge(nid(0), nid(1), 7, ms(10));
  g.add_edge(nid(1), nid(2), 3, ms(10));
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.first_hop_port.at(nid(1)), 7);
  EXPECT_EQ(sp.first_hop_port.at(nid(2)), 7);  // via node 1
  EXPECT_FALSE(sp.first_hop_port.contains(nid(0)));
}

TEST(DijkstraTest, TieBreaksBySmallerPredecessor) {
  // Two equal-cost routes to 3: via 1 and via 2. Predecessor must be 1.
  Graph g;
  g.add_edge(nid(0), nid(2), 1, ms(10));
  g.add_edge(nid(0), nid(1), 0, ms(10));
  g.add_edge(nid(2), nid(3), 0, ms(10));
  g.add_edge(nid(1), nid(3), 0, ms(10));
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.distance.at(nid(3)), ms(20));
  EXPECT_EQ(sp.predecessor.at(nid(3)), nid(1));
  EXPECT_EQ(sp.path_to(nid(3)),
            (std::vector<core::NodeId>{nid(0), nid(1), nid(3)}));
}

TEST(DijkstraTest, UnknownSourceReachesOnlyItself) {
  Graph g;
  g.add_edge(nid(0), nid(1), 0, ms(10));
  const ShortestPaths sp = dijkstra(g, nid(42));
  // A source outside the graph still has distance 0 to itself and
  // reaches nothing else.
  ASSERT_EQ(sp.distance.size(), 1u);
  EXPECT_EQ(sp.distance.at(nid(42)), ms(0));
  EXPECT_TRUE(sp.path_to(nid(1)).empty());
}

// A host uplink measured at 0 ns in both directions gives the zero-cost
// cycle source -> 1 -> source. The edge back into the source ties its
// distance, and it must neither throw nor give the source a predecessor.
TEST(DijkstraTest, ZeroCostCycleThroughSourceKeepsSourceRoot) {
  Graph g;
  g.add_edge(nid(0), nid(1), 0, ms(0));
  g.add_edge(nid(1), nid(0), 2, ms(0));
  g.add_edge(nid(1), nid(2), 1, ms(10));
  g.add_edge(nid(2), nid(1), 0, ms(10));
  g.add_edge(nid(2), nid(0), 3, ms(10));
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.distance.at(nid(0)), ms(0));
  EXPECT_EQ(sp.distance.at(nid(1)), ms(0));
  EXPECT_EQ(sp.distance.at(nid(2)), ms(10));
  EXPECT_FALSE(sp.predecessor.contains(nid(0)));
  EXPECT_EQ(sp.path_to(nid(0)), (std::vector<core::NodeId>{nid(0)}));
  EXPECT_EQ(sp.path_to(nid(2)),
            (std::vector<core::NodeId>{nid(0), nid(1), nid(2)}));
  EXPECT_EQ(sp.first_hop_port.at(nid(2)), 0);
}

TEST(DijkstraTest, RingBothDirections) {
  Graph g;  // ring 0-1-2-3-0, unit cost
  for (int i = 0; i < 4; ++i) {
    g.add_edge(nid(i), nid((i + 1) % 4), 0, ms(10));
    g.add_edge(nid((i + 1) % 4), nid(i), 1, ms(10));
  }
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.distance.at(nid(2)), ms(20));  // both ways equal
  EXPECT_EQ(sp.distance.at(nid(1)), ms(10));
  EXPECT_EQ(sp.distance.at(nid(3)), ms(10));
}

}  // namespace
}  // namespace intsched::net
