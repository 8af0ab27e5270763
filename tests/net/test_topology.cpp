#include "intsched/net/topology.hpp"

#include <gtest/gtest.h>

#include "intsched/p4/switch.hpp"

namespace intsched::net {
namespace {

struct TopoFixture : ::testing::Test {
  sim::Simulator sim;
  Topology topo{sim};
};

TEST_F(TopoFixture, SequentialIdsDoubleAsAddresses) {
  auto& a = topo.add_node<Host>("a");
  auto& b = topo.add_node<Host>("b");
  EXPECT_EQ(a.id(), core::NodeId{0});
  EXPECT_EQ(b.id(), core::NodeId{1});
  EXPECT_EQ(&topo.node(core::NodeId{0}), &a);
  EXPECT_EQ(&topo.node(core::NodeId{1}), &b);
}

TEST_F(TopoFixture, ConnectCreatesPortsBothSides) {
  auto& a = topo.add_node<Host>("a");
  auto& b = topo.add_node<Host>("b");
  topo.connect(a, b, LinkConfig{});
  EXPECT_EQ(a.port_count(), 1);
  EXPECT_EQ(b.port_count(), 1);
  EXPECT_EQ(a.port(0).peer(), &b);
  EXPECT_EQ(b.port(0).peer(), &a);
}

TEST_F(TopoFixture, GraphHasBothDirections) {
  auto& a = topo.add_node<Host>("a");
  auto& b = topo.add_node<Host>("b");
  topo.connect(a, b, LinkConfig{});
  const auto& g = topo.graph();
  ASSERT_EQ(g.out_edges(g.index_of(a.id())).size(), 1u);
  ASSERT_EQ(g.out_edges(g.index_of(b.id())).size(), 1u);
  EXPECT_EQ(g.nodes()[g.out_edges(g.index_of(a.id()))[0].to], b.id());
}

TEST_F(TopoFixture, PathBeforeInstallThrows) {
  auto& a = topo.add_node<Host>("a");
  auto& b = topo.add_node<Host>("b");
  topo.connect(a, b, LinkConfig{});
  EXPECT_THROW(static_cast<void>(topo.path(a.id(), b.id())),
               std::logic_error);
}

TEST_F(TopoFixture, PathAndDelayThroughSwitch) {
  auto& a = topo.add_node<Host>("a");
  auto& b = topo.add_node<Host>("b");
  auto& sw = topo.add_node<p4::P4Switch>("s");
  LinkConfig cfg;
  cfg.prop_delay = sim::SimDuration::milliseconds(10);
  topo.connect(a, sw, cfg);
  topo.connect(b, sw, cfg);
  topo.install_routes();
  EXPECT_EQ(topo.path(a.id(), b.id()),
            (std::vector<core::NodeId>{a.id(), sw.id(), b.id()}));
  EXPECT_EQ(topo.path_delay(a.id(), b.id()),
            sim::SimDuration::milliseconds(20));
}

TEST_F(TopoFixture, RoutesInstalledIntoForwardingTables) {
  auto& a = topo.add_node<Host>("a");
  auto& b = topo.add_node<Host>("b");
  auto& sw = topo.add_node<p4::P4Switch>("s");
  topo.connect(a, sw, LinkConfig{});
  topo.connect(b, sw, LinkConfig{});
  topo.install_routes();
  EXPECT_EQ(sw.route_to(a.id()), 0);
  EXPECT_EQ(sw.route_to(b.id()), 1);
  EXPECT_EQ(sw.forwarding_table().lookup(b.id()), 1);
}

TEST_F(TopoFixture, UnknownNodeThrows) {
  EXPECT_THROW(static_cast<void>(topo.node(core::NodeId{12})),
               std::invalid_argument);
}

TEST_F(TopoFixture, UnreachableDelayThrows) {
  auto& a = topo.add_node<Host>("a");
  topo.add_node<Host>("isolated");
  topo.connect(a, topo.add_node<Host>("c"), LinkConfig{});
  topo.install_routes();
  EXPECT_THROW(static_cast<void>(topo.path_delay(a.id(), core::NodeId{1})),
               std::invalid_argument);
}

TEST_F(TopoFixture, NodesOfKindFilters) {
  topo.add_node<Host>("a");
  topo.add_node<p4::P4Switch>("s1");
  topo.add_node<Host>("b");
  topo.add_node<p4::P4Switch>("s2");
  EXPECT_EQ(topo.nodes_of_kind(NodeKind::kHost).size(), 2u);
  EXPECT_EQ(topo.nodes_of_kind(NodeKind::kSwitch).size(), 2u);
  EXPECT_EQ(topo.node_count(), 4);
}

TEST_F(TopoFixture, RouteToUnknownDestinationIsNegative) {
  auto& a = topo.add_node<Host>("a");
  EXPECT_EQ(a.route_to(core::NodeId{99}), -1);
}

}  // namespace
}  // namespace intsched::net
