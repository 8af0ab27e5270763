// Compiled rank planes (DESIGN.md §15) — the plane/reference equivalence
// pack.
//
// Every published view scores through its compiled planes, and they must
// be *byte-identical* to the uncompiled legacy scorer: core::Ranker over
// a flat NetworkMap fed the same reports, i.e. rank_candidates walking
// the Dijkstra paths with the Algorithm-1 estimators. Checked for every
// field of every ServerRank, in every position — rank(), rank_topk_into
// at every k and pick() — for every metric, queue statistic, staleness
// regime and candidate shape (reachable, unreachable, unknown id, the id
// just past every node table, kInvalidNode, origin-as-candidate, the
// origin's one-link neighbour, a known node that is not a server; unknown,
// invalid and just-past-the-tables origins, a border gateway as origin),
// over seeded metro topologies, on a one-region (flat) map and on a
// multi-region metro, and from a view held across later publishes. Both
// maps name the topology's edge servers, so the non-server candidates are
// answered from the all-node fallback plane; the flat pack also runs with
// no servers named.

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/ranking.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/exp/metro.hpp"
#include "intsched/net/topology_gen.hpp"

namespace intsched::core {
namespace {

// Field-exact (and for the floating-point field, bit-exact) comparison:
// the plane kernels run the same arithmetic in the same order.
void expect_ranks_identical(const std::vector<ServerRank>& got,
                            const std::vector<ServerRank>& want,
                            const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].server, want[i].server) << what << " rank " << i;
    EXPECT_EQ(got[i].delay_estimate, want[i].delay_estimate)
        << what << " rank " << i;
    const double gb = got[i].bandwidth_estimate.bps();
    const double wb = want[i].bandwidth_estimate.bps();
    EXPECT_EQ(std::memcmp(&gb, &wb, sizeof gb), 0)
        << what << " rank " << i << ": " << gb << " vs " << wb;
    EXPECT_EQ(got[i].baseline_delay, want[i].baseline_delay)
        << what << " rank " << i;
    EXPECT_EQ(got[i].outstanding_tasks, want[i].outstanding_tasks)
        << what << " rank " << i;
    EXPECT_EQ(got[i].stale, want[i].stale) << what << " rank " << i;
  }
}

struct MetroFixture {
  net::GenTopology topo;
  std::vector<std::vector<telemetry::ProbeReport>> batches;

  explicit MetroFixture(std::int32_t pods, std::int32_t epochs,
                        std::uint64_t seed = 42) {
    net::MetroConfig cfg;
    cfg.seed = seed;
    cfg.pods = pods;
    topo = net::TopologyGen::ring_of_pods(cfg);
    exp::MetroTelemetryGen gen{topo, exp::MetroTelemetryConfig{.seed = seed}};
    batches.push_back(gen.full_sweep());
    const auto refresh = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(topo.links.size()) / 4);
    for (std::int32_t e = 1; e < epochs; ++e) {
      batches.push_back(gen.refresh(refresh));
    }
  }

  [[nodiscard]] static sim::SimTime epoch_time(std::size_t e) {
    return sim::SimTime::seconds(static_cast<std::int64_t>(e) + 1);
  }

  /// The flat deployment of this topology: every node in region 0, with
  /// the edge servers provisioned as on the metro, or with none named
  /// (every origin's plane then compiles every known node).
  [[nodiscard]] RegionAssignment one_region(bool name_servers) const {
    return RegionAssignment{
        std::vector<core::RegionId>(topo.nodes.size(), core::RegionId{0}),
        core::RegionId{1},
        name_servers ? topo.edge_servers() : std::vector<core::NodeId>{}};
  }

  /// A switch: known to every view, never a server.
  [[nodiscard]] core::NodeId first_switch() const {
    for (const net::GenNode& node : topo.nodes) {
      if (node.kind == net::NodeKind::kSwitch) return node.id;
    }
    return core::kInvalidNode;
  }

  /// One past the largest id a view of this topology can know: the
  /// first id past every dense node table.
  [[nodiscard]] core::NodeId past_last_node() const {
    return core::NodeId{static_cast<std::int32_t>(topo.nodes.size())};
  }

  /// Query origins: real hosts, a border gateway (on a metro, a summary
  /// node with cross-region links of its own), one id nothing ever
  /// probed, the invalid id and the id just past every node table.
  [[nodiscard]] std::vector<core::NodeId> origins() const {
    const std::vector<core::NodeId> hosts = topo.hosts();
    return {hosts[0],
            hosts[hosts.size() / 2],
            hosts.back(),
            topo.border_links().front().a,
            core::NodeId{888888},
            core::kInvalidNode,
            past_last_node()};
  }

  /// Candidate set exercising every row shape: real edge servers, the
  /// last host and a switch (known nodes that are not servers: they have
  /// no server-plane row, so they force the fallback plane), an id
  /// nothing has ever probed (no graph node, no plane row), the id just
  /// past every node table, the invalid id, the query origin itself (its
  /// path to itself has one node — unreachable by the ranking contract)
  /// and, when the origin has one, its first neighbour (a one-link path:
  /// no device term and no charged bandwidth hop).
  [[nodiscard]] std::vector<core::NodeId> candidates_with_edge_cases(
      core::NodeId origin) const {
    std::vector<core::NodeId> c = topo.edge_servers();
    c.push_back(topo.hosts().back());  // the last pod's last host
    c.push_back(first_switch());
    c.push_back(core::NodeId{999983});  // unknown everywhere
    c.push_back(past_last_node());
    c.push_back(core::kInvalidNode);
    c.push_back(origin);
    const auto first_link = std::find_if(
        topo.links.begin(), topo.links.end(), [origin](const net::GenLink& l) {
          return l.a == origin || l.b == origin;
        });
    if (first_link != topo.links.end()) {
      c.push_back(first_link->a == origin ? first_link->b : first_link->a);
    }
    return c;
  }

  /// Every candidate set the pack queries from `origin`: the edge-case
  /// set above, plus two where nothing is reachable, so the winner is
  /// the smallest id — kInvalidNode, whose id (-1) sorts first.
  [[nodiscard]] std::vector<std::vector<core::NodeId>> candidate_sets(
      core::NodeId origin) const {
    return {candidates_with_edge_cases(origin),
            {core::kInvalidNode},
            {origin, core::kInvalidNode}};
  }
};

struct ConfigCase {
  const char* name;
  QueueStatistic statistic;
  sim::SimDuration staleness;
};

const ConfigCase kCases[] = {
    {"max/no-staleness", QueueStatistic::kMaximum, sim::SimDuration::zero()},
    {"avg/no-staleness", QueueStatistic::kAverage, sim::SimDuration::zero()},
    {"hop/no-staleness", QueueStatistic::kMeasuredHopLatency,
     sim::SimDuration::zero()},
    // Tight window: by the later epochs many links are stale, so the
    // stale-bit gather path is exercised with both outcomes.
    {"max/staleness", QueueStatistic::kMaximum,
     sim::SimDuration::millis(1500)},
};

ShardedMapConfig map_config(const ConfigCase& c) {
  ShardedMapConfig cfg;
  cfg.map.link_staleness = c.staleness;
  cfg.ranker.queue_statistic = c.statistic;
  return cfg;
}

/// rank(), rank_topk_into at every k (1 .. n + 1) and pick() from one
/// view, for both metrics, against the reference ranking of the same
/// query. One scratch serves every call, as on a serving thread.
void expect_view_matches_reference(const MetroView& view, const Ranker& ref,
                                   core::NodeId origin,
                                   const std::vector<core::NodeId>& candidates,
                                   sim::SimTime now, const char* what) {
  MetroView::RankScratch scratch;
  std::vector<ServerRank> topk;
  const std::size_t n = candidates.size();
  for (const auto metric :
       {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
    const std::vector<ServerRank> want =
        ref.rank(origin, candidates, metric, now);
    expect_ranks_identical(view.rank(origin, candidates, metric, now), want,
                           what);
    for (std::size_t k = 1; k <= n + 1; ++k) {
      view.rank_topk_into(origin, candidates.data(), n, metric, now, k,
                          scratch, topk);
      expect_ranks_identical(
          topk,
          {want.begin(),
           want.begin() + static_cast<std::ptrdiff_t>(std::min(k, n))},
          what);
    }
    const std::optional<ServerRank> best =
        view.pick_with(origin, candidates.data(), n, metric, now, scratch);
    ASSERT_TRUE(best.has_value()) << what;
    expect_ranks_identical({*best}, {want.front()}, what);
  }
}

/// Feeds the same epochs to `map` and the flat reference map, checking
/// every origin after every epoch.
void run_pack(const MetroFixture& m, const RegionAssignment& regions) {
  const std::vector<core::NodeId> servers = m.topo.edge_servers();
  ASSERT_FALSE(std::binary_search(servers.begin(), servers.end(),
                                  m.topo.hosts().back()))
      << "the pack's non-server host is a server";
  for (const ConfigCase& c : kCases) {
    const ShardedMapConfig cfg = map_config(c);
    ShardedNetworkMap map{regions, cfg};
    NetworkMap flat{cfg.map};
    const Ranker ref{flat, cfg.ranker};
    for (std::size_t e = 0; e < m.batches.size(); ++e) {
      const sim::SimTime now = MetroFixture::epoch_time(e);
      map.ingest_batch(m.batches[e], now);
      for (const telemetry::ProbeReport& r : m.batches[e]) flat.ingest(r, now);
      const std::shared_ptr<const MetroView> view = map.view();
      for (const core::NodeId origin : m.origins()) {
        for (const std::vector<core::NodeId>& candidates :
             m.candidate_sets(origin)) {
          expect_view_matches_reference(*view, ref, origin, candidates, now,
                                        c.name);
        }
      }
    }
  }
}

// The flat deployment: a one-region map's published snapshots, with the
// servers named and without.
TEST(RankPlaneProperty, FlatSnapshotMatchesLegacyByteExact) {
  const MetroFixture m{3, 6};
  run_pack(m, m.one_region(true));
  run_pack(m, m.one_region(false));
}

// The two-level path: a 4-pod metro, region pruning in pick() included.
TEST(RankPlaneProperty, ShardedMetroMatchesLegacyByteExact) {
  const MetroFixture m{4, 5};
  run_pack(m, RegionAssignment::from_topology(m.topo));
}

// A view held across later publishes still answers exactly as Ranker fed
// the reports it was published from. Contexts and fallback planes are
// built in the held view first; three more publishes then replace it in
// the map, each queried so it fills a catalog of its own. The held
// view's planes index its own catalog, so under asan-ubsan a plane
// pointing into another view's catalog would fault here once that view
// is dropped.
TEST(RankPlaneProperty, HeldViewMatchesLegacyAfterLaterPublishes) {
  const MetroFixture m{4, 4};
  for (const ConfigCase& c : kCases) {
    const ShardedMapConfig cfg = map_config(c);
    ShardedNetworkMap map{RegionAssignment::from_topology(m.topo), cfg};
    NetworkMap flat{cfg.map};
    const Ranker ref{flat, cfg.ranker};
    const sim::SimTime held_at = MetroFixture::epoch_time(0);
    map.ingest_batch(m.batches[0], held_at);
    for (const telemetry::ProbeReport& r : m.batches[0]) {
      flat.ingest(r, held_at);
    }
    const std::shared_ptr<const MetroView> held = map.view();
    for (const core::NodeId origin : m.origins()) {
      for (const std::vector<core::NodeId>& candidates :
           m.candidate_sets(origin)) {
        (void)held->rank(origin, candidates, RankingMetric::kDelay, held_at);
      }
    }
    const std::int64_t rows = held->rows_compiled();
    ASSERT_GT(rows, 0);
    for (std::size_t e = 1; e < m.batches.size(); ++e) {
      const sim::SimTime now = MetroFixture::epoch_time(e);
      map.ingest_batch(m.batches[e], now);
      const core::NodeId origin = m.origins().front();
      (void)map.view()->rank(origin, m.candidates_with_edge_cases(origin),
                             RankingMetric::kDelay, now);
    }
    ASSERT_NE(map.view().get(), held.get());
    const sim::SimTime last = MetroFixture::epoch_time(m.batches.size() - 1);
    for (const sim::SimTime now : {held_at, last}) {
      for (const core::NodeId origin : m.origins()) {
        for (const std::vector<core::NodeId>& candidates :
             m.candidate_sets(origin)) {
          expect_view_matches_reference(*held, ref, origin, candidates, now,
                                        c.name);
        }
      }
    }
    EXPECT_EQ(held->rows_compiled(), rows) << c.name;
  }
}

// Deterministic top-k: for every k, the partial selection's output is
// exactly the full ranking's first min(k, n) entries.
TEST(RankPlaneProperty, TopKPrefixMatchesFullRanking) {
  MetroFixture m{3, 3};
  ShardedNetworkMap map{RegionAssignment::from_topology(m.topo)};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    map.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
  }
  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  const std::shared_ptr<const MetroView> view = map.view();
  MetroView::RankScratch scratch;
  std::vector<ServerRank> full;
  std::vector<ServerRank> topk;
  for (const core::NodeId origin : {m.topo.hosts()[0], m.topo.hosts()[9]}) {
    const auto candidates = m.candidates_with_edge_cases(origin);
    for (const auto metric :
         {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
      view->rank_topk_into(origin, candidates.data(), candidates.size(),
                           metric, now, candidates.size(), scratch, full);
      ASSERT_EQ(full.size(), candidates.size());
      for (const std::size_t k :
           {std::size_t{1}, std::size_t{2}, std::size_t{7},
            candidates.size() - 1, candidates.size(), candidates.size() + 8}) {
        view->rank_topk_into(origin, candidates.data(), candidates.size(),
                             metric, now, k, scratch, topk);
        const std::size_t want = std::min(k, candidates.size());
        ASSERT_EQ(topk.size(), want) << "k=" << k;
        expect_ranks_identical(
            topk,
            {full.begin(), full.begin() + static_cast<std::ptrdiff_t>(want)},
            "topk");
      }
    }
  }
}

// Unknown origin (never probed, no slot anywhere): the kernel runs over
// an empty plane and ranks every candidate unreachable, ordered by id —
// exactly what the reference does.
TEST(RankPlaneProperty, UnknownOriginRanksIdentically) {
  MetroFixture m{2, 2};
  ShardedNetworkMap map{RegionAssignment::from_topology(m.topo)};
  NetworkMap flat;
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    map.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
    for (const telemetry::ProbeReport& r : m.batches[e]) {
      flat.ingest(r, MetroFixture::epoch_time(e));
    }
  }
  const Ranker ref{flat};
  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  const core::NodeId ghost{888888};
  const auto candidates = m.topo.edge_servers();
  for (const auto metric :
       {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
    const auto got = map.view()->rank(ghost, candidates, metric, now);
    expect_ranks_identical(got, ref.rank(ghost, candidates, metric, now),
                           "unknown origin");
    for (const ServerRank& r : got) {
      EXPECT_EQ(r.delay_estimate, sim::SimDuration::max());
      EXPECT_EQ(r.bandwidth_estimate.bps(), 0.0);
    }
  }
}

}  // namespace
}  // namespace intsched::core
