// Allocation budget of the routing state a metro view builds on demand:
// a cold query context (the origin's region memo, its summary tree and
// its rank plane) and the teardown of a view that served every host.
// Counted with the serve suite's replacement operator new/delete
// (alloc_counter.hpp) and held to a fifth of what the same metro cost
// when graphs and shortest-path trees were hash maps.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/sharded_map.hpp"
#include "intsched/exp/metro.hpp"
#include "intsched/net/topology_gen.hpp"

#include "alloc_counter.hpp"

namespace intsched::serve {
namespace {

using core::NodeId;

// This test's two counts, measured with graphs and shortest-path trees
// held as hash maps (a hash node per node, edge list and tree entry):
// allocations per cold context build, averaged over the 767 hosts after
// the first, and frees to tear down the warm view.
constexpr std::int64_t kHashMapColdBuildAllocs = 443;
constexpr std::int64_t kHashMapTeardownFrees = 215'787;

TEST(RoutingAllocationBudget, ColdContextBuildAndViewTeardown) {
  // e2ebench's metro: 48 pods of 38-node regions, 768 hosts.
  net::MetroConfig cfg;
  cfg.seed = 1;
  cfg.pods = 48;
  cfg.pod.spines = 6;
  cfg.pod.leaves = 16;
  cfg.pod.hosts_per_leaf = 1;
  cfg.pod.edge_servers_per_pod = 4;
  cfg.ring_chords = 2;
  const net::GenTopology topo = net::TopologyGen::ring_of_pods(cfg);
  auto map = std::make_unique<core::ShardedNetworkMap>(
      core::RegionAssignment::from_topology(topo));
  exp::MetroTelemetryGen gen{topo, exp::MetroTelemetryConfig{.seed = 1}};
  const sim::SimTime now = sim::SimTime::seconds(1);
  map->ingest_batch(gen.full_sweep(), now);
  const std::vector<NodeId> hosts = topo.hosts();
  const std::vector<NodeId> servers = topo.edge_servers();
  ASSERT_EQ(hosts.size(), 768u);

  std::shared_ptr<const core::MetroView> view = map->view();
  // The view's first context build also fills its telemetry catalog, so
  // the per-build count starts at the second host.
  ASSERT_TRUE(
      view->pick(hosts[0], servers, core::RankingMetric::kDelay, now));
  const std::int64_t allocs_before = counted_allocations();
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    ASSERT_TRUE(
        view->pick(hosts[i], servers, core::RankingMetric::kDelay, now));
  }
  const std::int64_t cold_builds =
      static_cast<std::int64_t>(hosts.size()) - 1;
  const std::int64_t per_build =
      (counted_allocations() - allocs_before) / cold_builds;

  // Without the map, which holds the published pointer, `view` is the
  // view's last reference: its teardown frees its region snapshots, its
  // frozen map and everything its queries filled.
  map.reset();
  const std::int64_t frees_before = counted_frees();
  view.reset();
  const std::int64_t teardown = counted_frees() - frees_before;

  EXPECT_LE(per_build * 5, kHashMapColdBuildAllocs)
      << per_build << " allocations per cold context build";
  EXPECT_LE(teardown * 5, kHashMapTeardownFrees)
      << teardown << " frees to tear down a view that served every host";
}

}  // namespace
}  // namespace intsched::serve
