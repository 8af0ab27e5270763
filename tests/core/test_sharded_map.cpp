// ShardedNetworkMap / MetroView: the scheduler's one concurrent read
// path. On a metro it must agree with Ranker over a flat NetworkMap —
// field-exact in the delay-isolated regime, under dense and sparse
// refreshes alike — with pick() == rank()[0] under real region pruning.
// Every publish builds every region's snapshot for its own view. An
// 8-reader/1-writer torture run, mirroring the one-region one in
// test_rank_snapshot.cpp, replays every answer a reader got at its view's
// epoch and requires it field by field. Batching and empty batches are
// checked on one region and on a metro; the OneRegionMapTest cases pin
// the flat deployment (every node in region 0): a view's map answering
// exactly as a plain NetworkMap fed the same reports (on a metro too),
// agreement with Ranker, a non-default k, and exact totals under
// concurrent ingest and rank. This file rides in concurrency_tests, ctest
// label `perf`, so the tsan preset hammers the same paths.
//
// The torture tests' cross-thread state is the map itself and the
// writer's done flag; each reader writes only its own result slots, read
// after the join.
#include "intsched/core/sharded_map.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/exp/metro.hpp"
#include "intsched/exp/sweep_runner.hpp"
#include "intsched/net/topology_gen.hpp"

#include "map_answers.hpp"
#include "torture_replay.hpp"

namespace intsched::core {
namespace {

void expect_ranks_identical(const std::vector<ServerRank>& got,
                            const std::vector<ServerRank>& want,
                            const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].server, want[i].server) << what << " rank " << i;
    EXPECT_EQ(got[i].delay_estimate, want[i].delay_estimate)
        << what << " rank " << i;
    EXPECT_EQ(got[i].bandwidth_estimate.bps(),
              want[i].bandwidth_estimate.bps())
        << what << " rank " << i;
    EXPECT_EQ(got[i].baseline_delay, want[i].baseline_delay)
        << what << " rank " << i;
    EXPECT_EQ(got[i].stale, want[i].stale) << what << " rank " << i;
  }
}

struct MetroFixture {
  net::GenTopology topo;
  exp::MetroTelemetryGen gen;
  std::vector<std::vector<telemetry::ProbeReport>> batches;

  /// `refresh_links` = links refreshed per epoch batch (0: a quarter of
  /// the topology, the dense default).
  explicit MetroFixture(std::int32_t pods, std::int32_t epochs,
                        std::uint64_t seed = 42,
                        std::int64_t refresh_links = 0)
      : topo{net::TopologyGen::ring_of_pods([&] {
          net::MetroConfig cfg;
          cfg.seed = seed;
          cfg.pods = pods;
          return cfg;
        }())},
        gen{topo, exp::MetroTelemetryConfig{.seed = seed}} {
    batches.push_back(gen.full_sweep());
    const std::int64_t refresh =
        refresh_links > 0
            ? refresh_links
            : std::max<std::int64_t>(
                  1, static_cast<std::int64_t>(topo.links.size()) / 4);
    for (std::int32_t e = 1; e < epochs; ++e) {
      batches.push_back(gen.refresh(refresh));
    }
  }

  [[nodiscard]] static sim::SimTime epoch_time(std::size_t e) {
    return sim::SimTime::seconds(static_cast<std::int64_t>(e) + 1);
  }
};

/// Feeds one epoch batch to the flat reference map, as ingest_batch does.
void ingest_all(NetworkMap& flat,
                const std::vector<telemetry::ProbeReport>& batch,
                sim::SimTime now) {
  for (const telemetry::ProbeReport& r : batch) flat.ingest(r, now);
}

sim::SimDuration ms(int v) { return sim::SimDuration::milliseconds(v); }
sim::SimTime at_ms(int v) { return sim::SimTime::at(ms(v)); }

net::IntStackEntry entry(core::NodeId device, std::int32_t in_port,
                         std::int32_t out_port, std::int64_t queue,
                         sim::SimDuration link_latency) {
  net::IntStackEntry e;
  e.device = device;
  e.ingress_port = in_port;
  e.egress_port = out_port;
  e.max_queue_pkts = queue;
  e.device_max_queue_pkts = queue;
  e.ingress_link_latency = link_latency;
  return e;
}

/// host 0 -> s10 -> s11 -> host 1 (candidate server / collector).
telemetry::ProbeReport simple_report(std::int64_t q10 = 0,
                                     std::int64_t q11 = 0) {
  telemetry::ProbeReport r;
  r.src = core::NodeId{0};
  r.dst = core::NodeId{1};
  r.entries = {
      entry(core::NodeId{10}, 0, 2, q10, ms(10)),
      entry(core::NodeId{11}, 1, 3, q11, ms(12)),
  };
  r.final_link_latency = ms(9);
  return r;
}

/// Node ids 0..15 all in region 0 (candidate 99 lies outside the
/// assignment and ranks unreachable, exactly as on a flat map).
RegionAssignment one_region() {
  return RegionAssignment{std::vector<core::RegionId>(16, core::RegionId{0}),
                          core::RegionId{1}};
}

/// Nodes `view` knows — its query-context origins and the rows of a
/// fallback plane: every end of a link the view's map learned, which is
/// every region graph's node plus the summary graph's.
std::int64_t known_nodes(const MetroView& view) {
  return static_cast<std::int64_t>(view.map().delay_graph().node_count());
}

/// Every epoch of `m` through a sharded map and a flat one: after each
/// publish, rank() is field-exact against Ranker and pick() is rank()[0].
void expect_matches_flat_every_epoch(const MetroFixture& m,
                                     ShardedNetworkMap& sharded) {
  NetworkMap flat;
  const Ranker ranker{flat};
  const std::vector<core::NodeId> origins = m.topo.hosts();
  const std::vector<core::NodeId> candidates = m.topo.edge_servers();
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    const sim::SimTime now = MetroFixture::epoch_time(e);
    sharded.ingest_batch(m.batches[e], now);
    ingest_all(flat, m.batches[e], now);
    const std::shared_ptr<const MetroView> view = sharded.view();
    for (const core::NodeId origin : origins) {
      for (const auto metric :
           {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
        const auto want = ranker.rank(origin, candidates, metric, now);
        const auto got = view->rank(origin, candidates, metric, now);
        expect_ranks_identical(got, want, "epoch");

        // pick() is exactly rank()[0] (bandwidth falls back internally).
        const auto best = view->pick(origin, candidates, metric, now);
        ASSERT_TRUE(best.has_value());
        EXPECT_EQ(best->server, want.front().server);
        EXPECT_EQ(best->delay_estimate, want.front().delay_estimate);
      }
    }
  }
  EXPECT_EQ(sharded.reports_ingested(), flat.reports_ingested());
  EXPECT_EQ(sharded.rejected_entries(), 0);
}

// Two inputs. The dense quarter-refresh moves links in every region at
// every epoch. The sparse one-link refresh moves at most two regions'
// links per epoch, so most of a view's region graphs equal the previous
// view's, and each view still builds its own.
TEST(ShardedMapTest, MatchesFlatFieldExactEveryEpoch) {
  const MetroFixture dense{3, 8};
  ShardedNetworkMap dense_map{RegionAssignment::from_topology(dense.topo)};
  EXPECT_EQ(dense_map.region_count(), core::RegionId{3});
  {
    SCOPED_TRACE("dense");
    expect_matches_flat_every_epoch(dense, dense_map);
  }
  EXPECT_EQ(dense_map.region_snapshot_builds(),
            dense_map.view_publishes() * 3);

  const MetroFixture sparse{8, 10, 42, 1};
  ShardedNetworkMap sparse_map{RegionAssignment::from_topology(sparse.topo)};
  {
    SCOPED_TRACE("sparse");
    expect_matches_flat_every_epoch(sparse, sparse_map);
  }
}

TEST(ShardedMapTest, EveryPublishBuildsEveryRegion) {
  // Sparse steady state: one refreshed link per epoch across 8 pods, so
  // a publish moves at most two regions' links. Each view still builds
  // all 8 region snapshots from its own map copy and shares none with
  // the view before it.
  MetroFixture m{8, 10, 42, 1};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  std::shared_ptr<const MetroView> held = sharded.view();
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    sharded.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
    const std::shared_ptr<const MetroView> view = sharded.view();
    ASSERT_EQ(view->region_count(), core::RegionId{8});
    for (std::int32_t r = 0; r < 8; ++r) {
      EXPECT_NE(&view->region_snapshot(core::RegionId{r}),
                &held->region_snapshot(core::RegionId{r}))
          << "epoch " << e << " region " << r;
    }
    held = view;
  }
  EXPECT_EQ(sharded.view_publishes(),
            static_cast<std::int64_t>(m.batches.size()) + 1);  // +ctor
  EXPECT_EQ(sharded.region_snapshot_builds(),
            sharded.view_publishes() *
                static_cast<std::int64_t>(sharded.region_count().value()));

  // A report teaches the links of every region it crosses, not only the
  // one it starts in. Host 0 -> s10 (region 0) -> s20 -> s21 -> host 1
  // (region 1) measures region 1's links, and host 1 ranks through them.
  std::vector<core::RegionId> by_node(22, core::RegionId{0});
  for (const core::NodeId n :
       {core::NodeId{1}, core::NodeId{20}, core::NodeId{21}}) {
    by_node[n.index()] = core::RegionId{1};
  }
  ShardedNetworkMap crossing{
      RegionAssignment{std::move(by_node), core::RegionId{2}}};
  NetworkMap flat;
  const Ranker ranker{flat};
  for (const int s20_s21 : {12, 30}) {
    telemetry::ProbeReport r;
    r.src = core::NodeId{0};
    r.dst = core::NodeId{1};
    r.entries = {entry(core::NodeId{10}, 0, 1, 0, ms(5)),
                 entry(core::NodeId{20}, 0, 1, 0, ms(20)),
                 entry(core::NodeId{21}, 0, 1, 0, ms(s20_s21))};
    r.final_link_latency = ms(3);
    crossing.ingest(r, at_ms(s20_s21));
    flat.ingest(r, at_ms(s20_s21));
    expect_ranks_identical(
        crossing.view()->rank(core::NodeId{1}, {core::NodeId{0}},
                              RankingMetric::kDelay, at_ms(s20_s21)),
        ranker.rank(core::NodeId{1}, {core::NodeId{0}},
                    RankingMetric::kDelay, at_ms(s20_s21)),
        "crossing report");
  }
  EXPECT_EQ(crossing.region_snapshot_builds(), 3 * 2);  // +ctor
}

TEST(ShardedMapTest, PickPrunesRegionsAndAgreesWithRank) {
  MetroFixture m{5, 4};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    sharded.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
  }
  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  const std::vector<core::NodeId> candidates = m.topo.edge_servers();

  const std::shared_ptr<const MetroView> view = sharded.view();
  PickStats total;
  for (const core::NodeId origin : m.topo.hosts()) {
    PickStats stats;
    const auto best =
        view->pick(origin, candidates, RankingMetric::kDelay, now, &stats);
    const auto ranked =
        view->rank(origin, candidates, RankingMetric::kDelay, now);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->server, ranked.front().server);
    EXPECT_EQ(best->delay_estimate, ranked.front().delay_estimate);
    total.regions_considered += stats.regions_considered;
    total.regions_pruned += stats.regions_pruned;
    total.candidates_scored += stats.candidates_scored;
  }
  // Delay isolation makes remote regions prunable: most candidates are
  // never scored.
  EXPECT_GT(total.regions_pruned, 0);
  EXPECT_LT(total.candidates_scored,
            static_cast<std::int64_t>(m.topo.hosts().size() *
                                      candidates.size()));
}

// A PickStats reused across picks reports only the latest pick: the
// bandwidth pick (no pruning) and the empty pick overwrite every count a
// pruning delay pick left behind.
TEST(ShardedMapTest, PickStatsWrittenWholeOnEveryReturn) {
  MetroFixture m{5, 2};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    sharded.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
  }
  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  const std::vector<core::NodeId> candidates = m.topo.edge_servers();
  const core::NodeId origin = m.topo.hosts()[0];
  const std::shared_ptr<const MetroView> view = sharded.view();

  PickStats stats;
  ASSERT_TRUE(
      view->pick(origin, candidates, RankingMetric::kDelay, now, &stats)
          .has_value());
  ASSERT_GT(stats.regions_pruned, 0);

  ASSERT_TRUE(
      view->pick(origin, candidates, RankingMetric::kBandwidth, now, &stats)
          .has_value());
  EXPECT_EQ(stats.regions_considered, 1);
  EXPECT_EQ(stats.regions_pruned, 0);
  EXPECT_EQ(stats.candidates_scored,
            static_cast<std::int64_t>(candidates.size()));

  ASSERT_TRUE(
      view->pick(origin, candidates, RankingMetric::kDelay, now, &stats)
          .has_value());
  ASSERT_GT(stats.regions_pruned, 0);
  EXPECT_FALSE(
      view->pick(origin, {}, RankingMetric::kDelay, now, &stats).has_value());
  EXPECT_EQ(stats.regions_considered, 0);
  EXPECT_EQ(stats.regions_pruned, 0);
  EXPECT_EQ(stats.candidates_scored, 0);
}

// The ranking config is fixed at construction: a metro built with a
// non-default k publishes it in every view, from the empty construction
// view on, and every view ranks like a Ranker built with the same k.
TEST(ShardedMapTest, SetKFactorRepublishesEverything) {
  const RankerConfig k40{.k_factor = ms(40)};
  MetroFixture m{2, 2};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo),
                            ShardedMapConfig{.ranker = k40}};
  EXPECT_EQ(sharded.view()->config().k_factor, ms(40));

  NetworkMap flat;
  const Ranker ranker{flat, k40};
  const Ranker default_k{flat};
  const std::vector<core::NodeId> candidates = m.topo.edge_servers();
  bool k_moved_a_delay = false;
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    // Queried at ingest time, inside the queue window, so k applies.
    const sim::SimTime now = MetroFixture::epoch_time(e);
    sharded.ingest_batch(m.batches[e], now);
    ingest_all(flat, m.batches[e], now);
    const std::shared_ptr<const MetroView> view = sharded.view();
    EXPECT_EQ(view->config().k_factor, ms(40));
    for (const core::NodeId origin : m.topo.hosts()) {
      for (const auto metric :
           {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
        const std::vector<ServerRank> want =
            ranker.rank(origin, candidates, metric, now);
        expect_ranks_identical(view->rank(origin, candidates, metric, now),
                               want, "k = 40 ms");
        const std::vector<ServerRank> at_20ms =
            default_k.rank(origin, candidates, metric, now);
        k_moved_a_delay =
            k_moved_a_delay ||
            !std::equal(want.begin(), want.end(), at_20ms.begin(),
                        at_20ms.end(),
                        [](const ServerRank& a, const ServerRank& b) {
                          return a.server == b.server &&
                                 a.delay_estimate == b.delay_estimate;
                        });
      }
    }
  }
  EXPECT_TRUE(k_moved_a_delay) << "no queue on any path: k went untested";
}

// Torture: 8 readers hammering the lock-free two-level path (rank + pick)
// against 1 writer streaming pre-generated refresh batches, mirroring
// the one-region RankSnapshotTest.TortureEightReadersOneWriter. Each
// reader pins a view per op and records its epoch and answers. Every 8th
// op asks at the time of the writer's next batch, the only telemetry in
// its queue window, then waits for a later publish and re-asks the pinned
// view. After the join a fresh map re-ingests the batches in order and,
// at every publish, re-answers that epoch's ops field by field
// (torture_replay.hpp). While running, the test gives TSan real traffic
// over the MetroView publish/load edge and the per-origin call_once
// contexts.
TEST(ShardedMapTest, TortureEightReadersOneWriter) {
  constexpr int kReaders = 8;
  constexpr int kOpsPerReader = 400;  // each op = one rank + one pick

  MetroFixture m{3, 40};
  ShardedNetworkMap shared{RegionAssignment::from_topology(m.topo)};
  shared.ingest_batch(m.batches[0], MetroFixture::epoch_time(0));

  const std::vector<core::NodeId> origins = m.topo.hosts();
  const std::vector<core::NodeId> candidates = m.topo.edge_servers();
  // The epoch each batch publishes.
  std::vector<Epoch> batch_epochs;
  std::int64_t expected_reports = 0;
  for (const auto& b : m.batches) {
    expected_reports += static_cast<std::int64_t>(b.size());
    batch_epochs.push_back(Epoch{expected_reports});
  }

  // intsched-lint: allow(thread-share): ends the readers' recheck waits
  std::atomic<bool> writer_done{false};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&shared, &m, &writer_done] {
    for (std::size_t e = 1; e < m.batches.size(); ++e) {
      shared.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
    }
    writer_done.store(true, std::memory_order_release);
  });
  // Odd readers also name a host that is not a server, so the first
  // query per origin and view fills that context's fallback plane while
  // other readers score the same context.
  std::vector<core::NodeId> with_host = candidates;
  with_host.push_back(origins.back());
  ASSERT_FALSE(std::binary_search(candidates.begin(), candidates.end(),
                                  origins.back()));

  std::vector<std::vector<torture_replay::Op>> ops(
      kReaders, std::vector<torture_replay::Op>(kOpsPerReader));
  for (int t = 0; t < kReaders; ++t) {
    tasks.push_back([&shared, &origins, &candidates, &with_host, &ops,
                     &batch_epochs, &writer_done, t] {
      for (int i = 0; i < kOpsPerReader; ++i) {
        torture_replay::Op& op =
            ops[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
        op.origin =
            origins[static_cast<std::size_t>(t * 31 + i) % origins.size()];
        op.candidates = t % 2 == 0 ? &candidates : &with_host;
        op.metric = (i % 2 == 0) ? RankingMetric::kDelay
                                 : RankingMetric::kBandwidth;
        op.now = sim::SimTime::seconds(1 + i % 40);
        op.pick = true;
        const std::shared_ptr<const MetroView> pinned = shared.view();
        const bool recheck = i % 8 == 7;
        if (recheck) {
          const auto next = std::upper_bound(batch_epochs.begin(),
                                             batch_epochs.end(),
                                             pinned->epoch()) -
                            batch_epochs.begin();
          op.now = MetroFixture::epoch_time(static_cast<std::size_t>(next));
        }
        torture_replay::answer(*pinned, op);
        if (recheck) {
          torture_replay::expect_unchanged_after_publish(shared, *pinned, op,
                                                         writer_done);
        }
      }
    });
  }
  const exp::SweepRunner runner{1 + kReaders};
  runner.run(std::move(tasks));

  EXPECT_EQ(shared.reports_ingested(), expected_reports);
  EXPECT_EQ(shared.view()->epoch(), core::Epoch{expected_reports});

  torture_replay::Replay replay{ops};
  ShardedNetworkMap fresh{RegionAssignment::from_topology(m.topo)};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    fresh.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
    replay.check(*fresh.view());
  }
  EXPECT_EQ(replay.replayed(), replay.recorded());

  // Quiesced state replays field-identically against the flat oracle.
  NetworkMap flat;
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    ingest_all(flat, m.batches[e], MetroFixture::epoch_time(e));
  }
  const Ranker ranker{flat};
  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  const std::shared_ptr<const MetroView> view = shared.view();
  for (const core::NodeId origin : {origins[0], origins[5]}) {
    for (const auto metric :
         {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
      for (const std::vector<core::NodeId>& c : {candidates, with_host}) {
        expect_ranks_identical(view->rank(origin, c, metric, now),
                               ranker.rank(origin, c, metric, now),
                               "post torture");
      }
    }
  }
}

// What a context compiles. With the servers provisioned, an origin's
// plane holds one row per server, and server-only queries never build the
// fallback plane. The first query that names a known non-server node
// compiles the fallback once, over every known node, and answers exactly
// as Ranker. A hand-built assignment that names no servers compiles every
// known node up front.
TEST(ShardedMapTest, PlanesCompileOnlyProvisionedServers) {
  MetroFixture m{4, 2};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  NetworkMap flat;
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    sharded.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
    ingest_all(flat, m.batches[e], MetroFixture::epoch_time(e));
  }
  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  const std::shared_ptr<const MetroView> view = sharded.view();
  const std::vector<core::NodeId> servers = m.topo.edge_servers();
  const std::vector<core::NodeId> hosts = m.topo.hosts();
  ASSERT_EQ(sharded.region_count(), core::RegionId{4});
  EXPECT_EQ(view->rows_compiled(), 0);

  for (const core::NodeId origin : hosts) {
    EXPECT_TRUE(
        view->pick(origin, servers, RankingMetric::kDelay, now).has_value());
    EXPECT_EQ(
        view->rank(origin, servers, RankingMetric::kBandwidth, now).size(),
        servers.size());
  }
  const auto server_rows =
      static_cast<std::int64_t>(hosts.size() * servers.size());
  EXPECT_EQ(view->rows_compiled(), server_rows);

  const core::NodeId origin = hosts[0];
  std::vector<core::NodeId> mixed = servers;
  mixed.push_back(hosts.back());
  ASSERT_FALSE(
      std::binary_search(servers.begin(), servers.end(), hosts.back()));
  const Ranker ranker{flat};
  for (const auto metric :
       {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
    const std::vector<ServerRank> want =
        ranker.rank(origin, mixed, metric, now);
    expect_ranks_identical(view->rank(origin, mixed, metric, now), want,
                           "fallback rank");
    const std::optional<ServerRank> best =
        view->pick(origin, mixed, metric, now);
    ASSERT_TRUE(best.has_value());
    expect_ranks_identical({*best}, {want.front()}, "fallback pick");
  }
  const std::int64_t known = known_nodes(*view);
  EXPECT_EQ(view->rows_compiled(), server_rows + known);

  // A switch from the same origin reuses the filled fallback plane.
  const auto sw = std::find_if(
      m.topo.nodes.begin(), m.topo.nodes.end(), [](const net::GenNode& n) {
        return n.kind == net::NodeKind::kSwitch;
      });
  ASSERT_NE(sw, m.topo.nodes.end());
  mixed.push_back(sw->id);
  expect_ranks_identical(
      view->rank(origin, mixed, RankingMetric::kDelay, now),
      ranker.rank(origin, mixed, RankingMetric::kDelay, now),
      "fallback reuse");
  EXPECT_EQ(view->rows_compiled(), server_rows + known);

  // Hand-built, no servers named: nodes 0, 1, 10 and 11 all get a row.
  ShardedNetworkMap hand{one_region()};
  hand.ingest(simple_report(), at_ms(0));
  const std::shared_ptr<const MetroView> hand_view = hand.view();
  EXPECT_EQ(hand_view->rank(core::NodeId{0}, {core::NodeId{1}},
                            RankingMetric::kDelay, at_ms(1))
                .size(),
            1u);
  EXPECT_EQ(known_nodes(*hand_view), 4);
  EXPECT_EQ(hand_view->rows_compiled(), 4);
}

/// Directed links `view` learned.
std::int64_t learned_links(const MetroView& view) {
  return view.map().known_link_count();
}

// The view's telemetry catalog is lazy and filled once per view. A
// publish no query follows resolves nothing, nor does a query from an
// origin the view cannot route from. The first context build resolves
// every link the view learned; queries from every host, and a query that
// fills a fallback plane, resolve nothing more.
TEST(ShardedMapTest, CatalogFillsOncePerView) {
  MetroFixture m{4, 2};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  sharded.ingest_batch(m.batches[0], MetroFixture::epoch_time(0));
  const sim::SimTime now = MetroFixture::epoch_time(1);
  const std::shared_ptr<const MetroView> view = sharded.view();
  const std::vector<core::NodeId> servers = m.topo.edge_servers();
  const std::vector<core::NodeId> hosts = m.topo.hosts();
  const std::int64_t links = learned_links(*view);
  ASSERT_GT(links, 0);
  EXPECT_EQ(view->catalog_links(), 0);

  EXPECT_EQ(view->rank(core::NodeId{888888}, servers, RankingMetric::kDelay,
                       now)
                .size(),
            servers.size());
  EXPECT_EQ(view->catalog_links(), 0);
  EXPECT_EQ(view->rows_compiled(), 0);

  EXPECT_TRUE(
      view->pick(hosts[0], servers, RankingMetric::kDelay, now).has_value());
  EXPECT_EQ(view->catalog_links(), links);

  for (const core::NodeId origin : hosts) {
    EXPECT_TRUE(
        view->pick(origin, servers, RankingMetric::kDelay, now).has_value());
    EXPECT_EQ(
        view->rank(origin, servers, RankingMetric::kBandwidth, now).size(),
        servers.size());
  }
  const auto server_rows =
      static_cast<std::int64_t>(hosts.size() * servers.size());
  EXPECT_EQ(view->rows_compiled(), server_rows);
  EXPECT_EQ(view->catalog_links(), links);

  std::vector<core::NodeId> mixed = servers;
  mixed.push_back(hosts.back());
  EXPECT_EQ(view->rank(hosts[0], mixed, RankingMetric::kDelay, now).size(),
            mixed.size());
  EXPECT_EQ(view->rows_compiled(), server_rows + known_nodes(*view));
  EXPECT_EQ(view->catalog_links(), links);

  // The next publish starts with an empty catalog of its own.
  sharded.ingest_batch(m.batches[1], now);
  EXPECT_NE(sharded.view().get(), view.get());
  EXPECT_EQ(sharded.view()->catalog_links(), 0);
  EXPECT_EQ(view->catalog_links(), links);
}

// A burst through ingest_batch equals the same reports ingested one by
// one, on one region and on a metro.
TEST(ShardedMapTest, IngestBatchMatchesSequentialIngests) {
  ShardedNetworkMap batched{one_region()};
  ShardedNetworkMap sequential{one_region()};
  std::vector<telemetry::ProbeReport> burst;
  for (int i = 0; i < 8; ++i) {
    burst.push_back(simple_report(i % 5, (i * 3) % 7));
  }
  batched.ingest_batch(burst, at_ms(5));
  for (const auto& r : burst) sequential.ingest(r, at_ms(5));

  EXPECT_EQ(batched.reports_ingested(), sequential.reports_ingested());
  const std::vector<core::NodeId> candidates{core::NodeId{1}, core::NodeId{99}};
  for (const auto metric :
       {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
    expect_ranks_identical(
        batched.view()->rank(core::NodeId{0}, candidates, metric, at_ms(6)),
        sequential.view()->rank(core::NodeId{0}, candidates, metric,
                                at_ms(6)),
        "one-region batch");
  }

  MetroFixture m{2, 2};
  const RegionAssignment regions = RegionAssignment::from_topology(m.topo);
  ShardedNetworkMap metro_batched{regions};
  ShardedNetworkMap metro_sequential{regions};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    const sim::SimTime now = MetroFixture::epoch_time(e);
    metro_batched.ingest_batch(m.batches[e], now);
    for (const auto& r : m.batches[e]) metro_sequential.ingest(r, now);
  }
  EXPECT_EQ(metro_batched.reports_ingested(),
            metro_sequential.reports_ingested());
  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  for (const core::NodeId origin : m.topo.hosts()) {
    for (const auto metric :
         {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
      expect_ranks_identical(
          metro_batched.view()->rank(origin, m.topo.edge_servers(), metric,
                                     now),
          metro_sequential.view()->rank(origin, m.topo.edge_servers(),
                                        metric, now),
          "metro batch");
    }
  }
}

// An empty burst publishes nothing: the view (and with it every warm
// per-origin query context) stays the published one.
TEST(ShardedMapTest, EmptyBatchIsANoOp) {
  ShardedNetworkMap flat{one_region()};
  const std::shared_ptr<const MetroView> flat_view = flat.view();
  const std::int64_t flat_publishes = flat.view_publishes();
  flat.ingest_batch({}, at_ms(0));
  EXPECT_EQ(flat.reports_ingested(), 0);
  EXPECT_EQ(flat.view().get(), flat_view.get());
  EXPECT_EQ(flat.view_publishes(), flat_publishes);

  MetroFixture m{2, 1};
  ShardedNetworkMap sharded{RegionAssignment::from_topology(m.topo)};
  sharded.ingest_batch(m.batches[0], MetroFixture::epoch_time(0));
  const std::shared_ptr<const MetroView> before = sharded.view();
  const std::int64_t publishes = sharded.view_publishes();
  const std::int64_t builds = sharded.region_snapshot_builds();

  sharded.ingest_batch({}, MetroFixture::epoch_time(1));
  EXPECT_EQ(sharded.view().get(), before.get());
  EXPECT_EQ(sharded.view_publishes(), publishes);
  EXPECT_EQ(sharded.region_snapshot_builds(), builds);
  EXPECT_EQ(sharded.reports_ingested(),
            static_cast<std::int64_t>(m.batches[0].size()));
}

// -- the flat deployment: one region ---------------------------------------

// A view's map is the map NetworkMap::ingest builds from the same
// reports: every query answers the same, on one region and on a metro.
TEST(OneRegionMapTest, SingleThreadedIngestMatchesNetworkMap) {
  ShardedNetworkMap shared{one_region()};
  shared.ingest(simple_report(), at_ms(0));

  NetworkMap plain;
  plain.ingest(simple_report(), at_ms(0));

  EXPECT_EQ(shared.region_count(), core::RegionId{1});
  EXPECT_EQ(shared.reports_ingested(), 1);
  EXPECT_EQ(shared.rejected_entries(), 0);
  const std::shared_ptr<const MetroView> view = shared.view();
  EXPECT_TRUE(view->map().knows_node(core::NodeId{10}));
  EXPECT_EQ(view->epoch(), plain.ingest_epoch());
  std::vector<core::NodeId> nodes{core::kInvalidNode, core::NodeId{99}};
  for (std::int32_t n = 0; n < 16; ++n) nodes.emplace_back(n);
  const std::vector<sim::SimTime> times{at_ms(0), at_ms(1), at_ms(200)};
  map_answers::expect_same(map_answers::answers(view->map(), nodes, times),
                           map_answers::answers(plain, nodes, times),
                           "one region");
  // One region holds every link, so its graph is the map's delay graph.
  map_answers::expect_same(
      map_answers::edges(
          view->region_snapshot(core::RegionId{0}).delay_graph()),
      map_answers::edges(plain.delay_graph()), "one region's graph");

  const MetroFixture m{3, 4};
  ShardedNetworkMap metro{RegionAssignment::from_topology(m.topo)};
  NetworkMap flat;
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    metro.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
    ingest_all(flat, m.batches[e], MetroFixture::epoch_time(e));
  }
  std::vector<core::NodeId> metro_nodes{core::kInvalidNode,
                                        core::NodeId{777777}};
  for (const net::GenNode& n : m.topo.nodes) metro_nodes.push_back(n.id);
  const sim::SimTime last = MetroFixture::epoch_time(m.batches.size() - 1);
  const std::vector<sim::SimTime> metro_times{
      last, last + ms(100), last + ms(1000)};
  map_answers::expect_same(
      map_answers::answers(metro.view()->map(), metro_nodes, metro_times),
      map_answers::answers(flat, metro_nodes, metro_times), "metro");
}

TEST(OneRegionMapTest, RankMatchesRanker) {
  ShardedNetworkMap shared{one_region()};
  shared.ingest(simple_report(), at_ms(0));

  NetworkMap plain;
  plain.ingest(simple_report(), at_ms(0));
  const Ranker ranker{plain};

  const std::vector<core::NodeId> candidates{core::NodeId{1}};
  expect_ranks_identical(
      shared.view()->rank(core::NodeId{0}, candidates, RankingMetric::kDelay,
                          at_ms(1)),
      ranker.rank(core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1)),
      "one region");
}

// A one-region map built with k = 50 ms serves that k from the view of
// its one ingest: the answer differs from the default k's and matches a
// Ranker built with the same k.
TEST(OneRegionMapTest, KFactorChangeAppliesWithoutNewIngest) {
  ShardedNetworkMap default_k{one_region()};
  ShardedNetworkMap k50{one_region(),
                        ShardedMapConfig{.ranker = {.k_factor = ms(50)}}};
  default_k.ingest(simple_report(6, 4), at_ms(0));
  k50.ingest(simple_report(6, 4), at_ms(0));

  const std::vector<core::NodeId> candidates{core::NodeId{1}};
  const std::vector<ServerRank> before = default_k.view()->rank(
      core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1));
  const std::vector<ServerRank> after = k50.view()->rank(
      core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1));

  NetworkMap plain;
  plain.ingest(simple_report(6, 4), at_ms(0));
  const Ranker ranker{plain, RankerConfig{.k_factor = ms(50)}};
  const std::vector<ServerRank> want =
      ranker.rank(core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1));

  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(before[0].delay_estimate, after[0].delay_estimate)
      << "k had no effect on the rank";
  expect_ranks_identical(after, want, "k = 50 ms");
}

// Concurrent ingest and rank through the sanctioned pool. Assertions are
// interleaving-insensitive — totals after the join and the converged
// ranking — so they hold under any schedule while giving TSan real
// cross-thread traffic over the writer lock and the lock-free view.
TEST(OneRegionMapTest, ConcurrentIngestAndRankKeepTotalsExact) {
  constexpr int kIngestTasks = 4;
  constexpr int kRankTasks = 4;
  constexpr int kOpsPerTask = 50;

  ShardedNetworkMap shared{one_region()};
  // Seed the topology so rank tasks have a graph from the first instant.
  shared.ingest(simple_report(), at_ms(0));

  const std::vector<core::NodeId> candidates{core::NodeId{1}, core::NodeId{99}};
  std::vector<std::function<void()>> tasks;
  for (int t = 0; t < kIngestTasks; ++t) {
    tasks.push_back([&shared, t] {
      for (int i = 0; i < kOpsPerTask; ++i) {
        // Distinct queue values and times per task: every ingest really
        // mutates the EWMAs, windows, and the published epoch.
        shared.ingest(simple_report(i % 7, (i + t) % 5), at_ms(1 + i));
      }
    });
  }
  std::vector<std::int64_t> bad(kRankTasks, 0);
  for (int t = 0; t < kRankTasks; ++t) {
    tasks.push_back([&shared, &candidates, &bad, t] {
      for (int i = 0; i < kOpsPerTask; ++i) {
        const std::vector<ServerRank> ranked = shared.view()->rank(
            core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1 + i));
        // Interleaving-insensitive: shape and ordering policy only.
        if (ranked.size() != candidates.size() ||
            ranked[0].delay_estimate > ranked[1].delay_estimate) {
          ++bad[static_cast<std::size_t>(t)];
        }
      }
    });
  }

  const exp::SweepRunner runner{4};
  runner.run(std::move(tasks));

  for (int t = 0; t < kRankTasks; ++t) {
    EXPECT_EQ(bad[static_cast<std::size_t>(t)], 0) << "rank task " << t;
  }
  EXPECT_EQ(shared.reports_ingested(), 1 + kIngestTasks * kOpsPerTask);

  // After the join the state has quiesced: ranking is deterministic again.
  const std::vector<ServerRank> final_rank =
      shared.view()->rank(core::NodeId{0}, candidates, RankingMetric::kDelay,
                          at_ms(kOpsPerTask));
  ASSERT_EQ(final_rank.size(), 2u);
  EXPECT_EQ(final_rank[0].server, core::NodeId{1});
  // Never probed: unreachable, last.
  EXPECT_EQ(final_rank[1].server, core::NodeId{99});
}

}  // namespace
}  // namespace intsched::core
