#include "intsched/net/routing.hpp"

#include <gtest/gtest.h>

namespace intsched::net {
namespace {

sim::SimDuration ms(int v) { return sim::SimDuration::millis(v); }
core::NodeId nid(int v) { return core::NodeId{v}; }
Graph::Arc arc(int from, int to, std::int32_t port, sim::SimDuration cost) {
  return Graph::Arc{nid(from), nid(to), port, cost};
}

/// The predecessor chain of `n` back to the source, or empty when it
/// does not reach the source within `limit` steps: a bounded walk, so a
/// predecessor cycle fails the test instead of hanging it.
std::vector<core::NodeId> bounded_chain(const ShortestPaths& sp,
                                        core::NodeId n, std::size_t limit) {
  std::vector<core::NodeId> chain{n};
  for (core::NodeId cur = n; cur != sp.source();) {
    if (chain.size() > limit) return {};
    cur = sp.predecessor_of(cur);
    if (!cur.valid()) return {};
    chain.push_back(cur);
  }
  return chain;
}

TEST(GraphTest, AddEdgeTracksNodes) {
  const std::vector<Graph::Arc> arcs{arc(1, 2, 0, ms(10))};
  const Graph g{arcs};
  EXPECT_TRUE(g.has_node(nid(1)));
  EXPECT_TRUE(g.has_node(nid(2)));  // sink is known even with no out-edges
  EXPECT_FALSE(g.has_node(nid(3)));
  EXPECT_TRUE(g.out_edges(g.index_of(nid(2))).empty());
}

TEST(GraphTest, NodesSorted) {
  const std::vector<Graph::Arc> arcs{arc(5, 1, 0, ms(1)), arc(3, 5, 0, ms(1))};
  const Graph g{arcs};
  EXPECT_EQ(g.nodes(), (std::vector<core::NodeId>{nid(1), nid(3), nid(5)}));
  EXPECT_EQ(g.index_of(nid(5)), 2u);
  EXPECT_EQ(g.index_of(nid(4)), Graph::kNoIndex);
}

// Each node's out-edges keep their arc order, wherever the node's arcs sit
// in the input, and name their targets by local index.
TEST(GraphTest, OutEdgesKeepArcOrder) {
  const std::vector<Graph::Arc> arcs{
      arc(7, 3, 4, ms(1)), arc(2, 7, 0, ms(2)), arc(7, 2, 5, ms(3)),
      arc(7, 3, 6, ms(4))};
  const Graph g{arcs};
  ASSERT_EQ(g.nodes(), (std::vector<core::NodeId>{nid(2), nid(3), nid(7)}));
  EXPECT_EQ(g.edge_count(), 4u);
  const auto out = g.out_edges(g.index_of(nid(7)));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(g.nodes()[out[0].to], nid(3));
  EXPECT_EQ(out[0].out_port, 4);
  EXPECT_EQ(g.nodes()[out[1].to], nid(2));
  EXPECT_EQ(out[1].cost, ms(3));
  EXPECT_EQ(out[2].out_port, 6);
  // Node 2's one edge comes first, then node 7's three.
  EXPECT_EQ(g.find_edge(g.index_of(nid(7)), g.index_of(nid(3))), 1u);
  EXPECT_EQ(g.edge(3).out_port, 6);
  EXPECT_EQ(g.find_edge(g.index_of(nid(3)), g.index_of(nid(7))),
            Graph::kNoIndex);
}

TEST(DijkstraTest, LineGraphDistances) {
  // 0 -10ms- 1 -20ms- 2
  const std::vector<Graph::Arc> arcs{
      arc(0, 1, 0, ms(10)), arc(1, 0, 0, ms(10)), arc(1, 2, 1, ms(20)),
      arc(2, 1, 0, ms(20))};
  const Graph g{arcs};
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.distance_to(nid(0)), ms(0));
  EXPECT_EQ(sp.distance_to(nid(1)), ms(10));
  EXPECT_EQ(sp.distance_to(nid(2)), ms(30));
}

TEST(DijkstraTest, PathReconstruction) {
  const std::vector<Graph::Arc> arcs{
      arc(0, 1, 0, ms(10)), arc(1, 2, 0, ms(10)), arc(2, 3, 0, ms(10))};
  const Graph g{arcs};
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.path_to(nid(3)),
            (std::vector<core::NodeId>{nid(0), nid(1), nid(2), nid(3)}));
  EXPECT_EQ(sp.path_to(nid(0)), (std::vector<core::NodeId>{nid(0)}));
}

TEST(DijkstraTest, UnreachableNodeAbsent) {
  // 2 -> 3 is a disconnected component.
  const std::vector<Graph::Arc> arcs{
      arc(0, 1, 0, ms(10)), arc(2, 3, 0, ms(10))};
  const Graph g{arcs};
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_FALSE(sp.reaches(nid(3)));
  EXPECT_EQ(sp.distance_to(nid(3)), sim::SimDuration::max());
  EXPECT_EQ(sp.predecessor_of(nid(3)), core::kInvalidNode);
  EXPECT_EQ(sp.first_hop_port(nid(3)), -1);
  EXPECT_TRUE(sp.path_to(nid(3)).empty());
}

TEST(DijkstraTest, PicksShorterOfTwoRoutes) {
  // 0->1->3 costs 30; 0->2->3 costs 25
  const std::vector<Graph::Arc> arcs{
      arc(0, 1, 0, ms(10)), arc(1, 3, 0, ms(20)), arc(0, 2, 1, ms(15)),
      arc(2, 3, 0, ms(10))};
  const Graph g{arcs};
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.distance_to(nid(3)), ms(25));
  EXPECT_EQ(sp.path_to(nid(3)),
            (std::vector<core::NodeId>{nid(0), nid(2), nid(3)}));
  EXPECT_EQ(sp.first_hop_port(nid(3)), 1);
}

TEST(DijkstraTest, FirstHopPortPropagates) {
  const std::vector<Graph::Arc> arcs{
      arc(0, 1, 7, ms(10)), arc(1, 2, 3, ms(10))};
  const Graph g{arcs};
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.first_hop_port(nid(1)), 7);
  EXPECT_EQ(sp.first_hop_port(nid(2)), 7);  // via node 1
  EXPECT_EQ(sp.first_hop_port(nid(0)), -1);
}

TEST(DijkstraTest, TieBreaksBySmallerPredecessor) {
  // Two equal-cost routes to 3: via 1 and via 2. Predecessor must be 1.
  const std::vector<Graph::Arc> arcs{
      arc(0, 2, 1, ms(10)), arc(0, 1, 0, ms(10)), arc(2, 3, 0, ms(10)),
      arc(1, 3, 0, ms(10))};
  const Graph g{arcs};
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.distance_to(nid(3)), ms(20));
  EXPECT_EQ(sp.predecessor_of(nid(3)), nid(1));
  EXPECT_EQ(sp.path_to(nid(3)),
            (std::vector<core::NodeId>{nid(0), nid(1), nid(3)}));
}

TEST(DijkstraTest, UnknownSourceReachesOnlyItself) {
  const std::vector<Graph::Arc> arcs{arc(0, 1, 0, ms(10))};
  const Graph g{arcs};
  const ShortestPaths sp = dijkstra(g, nid(42));
  // A source outside the graph still has distance 0 to itself and
  // reaches nothing else.
  EXPECT_EQ(sp.distance_to(nid(42)), ms(0));
  EXPECT_FALSE(sp.reaches(nid(0)));
  EXPECT_FALSE(sp.reaches(nid(1)));
  EXPECT_EQ(sp.path_to(nid(42)), (std::vector<core::NodeId>{nid(42)}));
  EXPECT_TRUE(sp.path_to(nid(1)).empty());
}

// The summary-tree shape: a source outside the graph reaches it through
// extra out-edges, whose ports start the first hops.
TEST(DijkstraTest, ExtraSourceEdgesFromOutsideTheGraph) {
  const std::vector<Graph::Arc> arcs{arc(1, 2, 0, ms(10)), arc(3, 2, 0, ms(1))};
  const Graph g{arcs};
  const std::vector<Graph::Edge> entries{
      Graph::Edge{g.index_of(nid(1)), 4, ms(5)},
      Graph::Edge{g.index_of(nid(3)), 6, ms(20)}};
  const ShortestPaths sp = dijkstra(g, nid(9), entries);
  EXPECT_EQ(sp.distance_to(nid(2)), ms(15));
  EXPECT_EQ(sp.predecessor_of(nid(1)), nid(9));
  EXPECT_EQ(sp.first_hop_port(nid(2)), 4);
  EXPECT_EQ(sp.path_to(nid(2)),
            (std::vector<core::NodeId>{nid(9), nid(1), nid(2)}));
  EXPECT_EQ(sp.path_to(nid(3)), (std::vector<core::NodeId>{nid(9), nid(3)}));
}

// A host uplink measured at 0 ns in both directions gives the zero-cost
// cycle source -> 1 -> source. The edge back into the source ties its
// distance, and it must neither throw nor give the source a predecessor.
TEST(DijkstraTest, ZeroCostCycleThroughSourceKeepsSourceRoot) {
  const std::vector<Graph::Arc> arcs{
      arc(0, 1, 0, ms(0)), arc(1, 0, 2, ms(0)), arc(1, 2, 1, ms(10)),
      arc(2, 1, 0, ms(10)), arc(2, 0, 3, ms(10))};
  const Graph g{arcs};
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.distance_to(nid(0)), ms(0));
  EXPECT_EQ(sp.distance_to(nid(1)), ms(0));
  EXPECT_EQ(sp.distance_to(nid(2)), ms(10));
  EXPECT_EQ(sp.predecessor_of(nid(0)), core::kInvalidNode);
  EXPECT_EQ(sp.path_to(nid(0)), (std::vector<core::NodeId>{nid(0)}));
  EXPECT_EQ(sp.path_to(nid(2)),
            (std::vector<core::NodeId>{nid(0), nid(1), nid(2)}));
  EXPECT_EQ(sp.first_hop_port(nid(2)), 0);
}

// Nodes 1 and 2 sit at the same distance, joined by a 0 ns link in both
// directions. Whichever settles first, the other must not re-parent it:
// 1 settles first (smaller id), so 2's tie from 1 re-parents 2, and 1's
// tie from 2 must not re-parent the settled 1, or each would become the
// other's predecessor and no chain would reach the source.
TEST(DijkstraTest, ZeroCostTieKeepsATree) {
  const std::vector<Graph::Arc> arcs{
      arc(10, 1, 0, ms(5)), arc(10, 2, 1, ms(5)), arc(1, 2, 0, ms(0)),
      arc(2, 1, 0, ms(0)), arc(1, 3, 1, ms(1))};
  const Graph g{arcs};
  const ShortestPaths sp = dijkstra(g, nid(10));
  for (const core::NodeId n : g.nodes()) {
    EXPECT_FALSE(bounded_chain(sp, n, g.node_count()).empty())
        << "predecessor chain of " << n << " does not reach the source";
  }
  EXPECT_EQ(sp.predecessor_of(nid(1)), nid(10));
  EXPECT_EQ(sp.predecessor_of(nid(2)), nid(1));
  EXPECT_EQ(sp.first_hop_port(nid(2)), 0);
  EXPECT_EQ(sp.distance_to(nid(3)), ms(6));
  EXPECT_EQ(sp.path_to(nid(3)),
            (std::vector<core::NodeId>{nid(10), nid(1), nid(3)}));
}

TEST(DijkstraTest, RingBothDirections) {
  // ring 0-1-2-3-0, unit cost
  std::vector<Graph::Arc> arcs;
  for (int i = 0; i < 4; ++i) {
    arcs.push_back(arc(i, (i + 1) % 4, 0, ms(10)));
    arcs.push_back(arc((i + 1) % 4, i, 1, ms(10)));
  }
  const Graph g{arcs};
  const ShortestPaths sp = dijkstra(g, nid(0));
  EXPECT_EQ(sp.distance_to(nid(2)), ms(20));  // both ways equal
  EXPECT_EQ(sp.distance_to(nid(1)), ms(10));
  EXPECT_EQ(sp.distance_to(nid(3)), ms(10));
}

}  // namespace
}  // namespace intsched::net
