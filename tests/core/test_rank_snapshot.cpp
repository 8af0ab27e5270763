// RankSnapshot + the lock-free read path of a flat (one-region)
// ShardedNetworkMap: immutability, lazy once-only Dijkstra memoization,
// the freshness/linearizability property (a rank() issued after ingest()
// of report N returns must observe a view with epoch >= N), and an
// 8-reader/1-writer torture run whose every answer is replayed at its
// view's epoch. All parallelism flows through exp::SweepRunner (the
// sanctioned pool); worker tasks record into index-addressed slots and
// the assertions run after the join, so the tests are
// schedule-insensitive while giving ThreadSanitizer (the `tsan` preset,
// ctest label `perf`) real traffic over the view-publish / view-load edge
// and the call_once memo fills.
//
// The shared progress counter and the torture test's writer-done flag
// below are the tests' own cross-thread state:
// intsched-lint: allow-file(thread-share): freshness property needs a
//   release/acquire progress counter between writer and readers

#include "intsched/core/rank_snapshot.hpp"

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/sharded_map.hpp"
#include "intsched/exp/sweep_runner.hpp"

#include "torture_replay.hpp"

namespace intsched::core {
namespace {

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

/// The flat deployment: node ids 0..15 all in region 0 (candidate 99 is
/// outside the assignment and ranks unreachable, as on a flat map).
RegionAssignment one_region() {
  return RegionAssignment{std::vector<core::RegionId>(16, core::RegionId{0}),
                          core::RegionId{1}};
}

void expect_ranks_identical(const std::vector<ServerRank>& got,
                            const std::vector<ServerRank>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].server, want[i].server) << "rank " << i;
    EXPECT_EQ(got[i].delay_estimate, want[i].delay_estimate) << "rank " << i;
    EXPECT_EQ(got[i].bandwidth_estimate.bps(),
              want[i].bandwidth_estimate.bps())
        << "rank " << i;
    EXPECT_EQ(got[i].baseline_delay, want[i].baseline_delay) << "rank " << i;
    EXPECT_EQ(got[i].outstanding_tasks, want[i].outstanding_tasks)
        << "rank " << i;
    EXPECT_EQ(got[i].stale, want[i].stale) << "rank " << i;
  }
}

TEST(RankSnapshotTest, RankMatchesRankerOnTheSameMap) {
  NetworkMap map;
  ShardedNetworkMap shared{one_region()};
  for (const auto& [report, t] :
       {std::pair{simple_report(5, 3), 0}, std::pair{simple_report(2, 7), 1}}) {
    map.ingest(report, at_ms(t));
    shared.ingest(report, at_ms(t));
  }

  const Ranker ranker{map};
  const std::shared_ptr<const MetroView> view = shared.view();
  EXPECT_EQ(view->epoch(), map.ingest_epoch());
  EXPECT_EQ(view->map().ingest_epoch(), map.ingest_epoch());
  EXPECT_EQ(view->region_snapshot(core::RegionId{0}).nodes(),
            map.delay_graph().nodes());

  const std::vector<core::NodeId> candidates{core::NodeId{1}, core::NodeId{99}};
  for (const auto metric :
       {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
    expect_ranks_identical(
        view->rank(core::NodeId{0}, candidates, metric, at_ms(2)),
        ranker.rank(core::NodeId{0}, candidates, metric, at_ms(2)));
  }
}

TEST(RankSnapshotTest, SnapshotIsImmutableAcrossLaterIngest) {
  ShardedNetworkMap shared{one_region()};
  shared.ingest(simple_report(4, 4), at_ms(0));

  const std::shared_ptr<const MetroView> old = shared.view();
  ASSERT_NE(old, nullptr);
  const Epoch old_epoch = old->epoch();
  const NetworkMap& old_map = old->map();
  const std::vector<core::NodeId> candidates{core::NodeId{1}};
  const auto before =
      old->rank(core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1));

  // Heavier congestion arrives; the *held* view and its map must not
  // move.
  shared.ingest(simple_report(60, 60), at_ms(1));
  EXPECT_EQ(old->epoch(), old_epoch);
  EXPECT_EQ(old_map.ingest_epoch(), old_epoch);
  EXPECT_EQ(old_map.device_max_queue(core::NodeId{10}, at_ms(1)), 4);
  EXPECT_EQ(shared.view()->map().device_max_queue(core::NodeId{10}, at_ms(1)),
            60);
  expect_ranks_identical(
      old->rank(core::NodeId{0}, candidates, RankingMetric::kDelay, at_ms(1)),
      before);

  const std::shared_ptr<const MetroView> fresh = shared.view();
  ASSERT_NE(fresh, nullptr);
  EXPECT_GT(fresh->epoch(), old_epoch);
  const auto after = fresh->rank(core::NodeId{0}, candidates,
                                 RankingMetric::kDelay, at_ms(1));
  EXPECT_GT(after[0].delay_estimate, before[0].delay_estimate);
}

TEST(RankSnapshotTest, DijkstraMemoFillsOncePerOrigin) {
  NetworkMap map;
  map.ingest(simple_report(), at_ms(0));
  const RankSnapshot snapshot{map.delay_graph()};

  const net::ShortestPaths* first = snapshot.paths_from(core::NodeId{0});
  ASSERT_NE(first, nullptr);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(snapshot.paths_from(core::NodeId{0}), first);
  }
  EXPECT_EQ(snapshot.memo_fills(), 1);

  ASSERT_NE(snapshot.paths_from(core::NodeId{1}), nullptr);
  EXPECT_EQ(snapshot.memo_fills(), 2);

  // Unknown origin: no slot, nothing memoized.
  EXPECT_EQ(snapshot.paths_from(core::NodeId{777}), nullptr);
  EXPECT_EQ(snapshot.memo_fills(), 2);

  // Through a published view: repeated queries from one origin fill the
  // region memo once; an unknown origin fills nothing.
  ShardedNetworkMap shared{one_region()};
  shared.ingest(simple_report(), at_ms(0));
  const std::shared_ptr<const MetroView> view = shared.view();
  const std::vector<core::NodeId> candidates{core::NodeId{1}};
  for (int i = 0; i < 5; ++i) {
    (void)view->rank(core::NodeId{0}, candidates, RankingMetric::kDelay,
                     at_ms(1 + i));
  }
  (void)view->rank(core::NodeId{777}, candidates, RankingMetric::kDelay,
                   at_ms(11));
  EXPECT_EQ(view->region_snapshot(core::RegionId{0}).memo_fills(), 1);
}

// Freshness/linearizability property: ingest() of report N publishes
// before it returns, so any observation that starts after the return must
// see epoch >= N. The writer advances a release-stored progress counter
// only after each ingest returns; readers acquire-load the counter, then
// load the view — seeing an older epoch would be a publication-order
// violation. Violations are counted per reader slot and asserted after
// the join (gtest assertions are not thread-safe on worker threads).
// Readers run a fixed observation count rather than polling a done flag:
// on a single-core box the writer can finish before any reader is ever
// scheduled, and the property must be checked under whatever overlap the
// machine actually provides (including none).
TEST(RankSnapshotTest, FreshnessPropertyUnderConcurrentIngest) {
  constexpr int kReports = 400;
  constexpr int kReaders = 4;
  constexpr int kObservationsPerReader = 200;

  ShardedNetworkMap shared{one_region()};
  shared.ingest(simple_report(), at_ms(0));

  std::atomic<std::int64_t> progress{1};  // reports whose ingest returned
  std::vector<std::int64_t> violations(kReaders, 0);

  std::vector<std::function<void()>> tasks;
  tasks.push_back([&shared, &progress] {
    for (int i = 1; i <= kReports; ++i) {
      shared.ingest(simple_report(i % 9, i % 6), at_ms(i));
      progress.store(1 + i, std::memory_order_release);
    }
  });
  for (int t = 0; t < kReaders; ++t) {
    tasks.push_back([&shared, &progress, &violations, t] {
      const std::vector<core::NodeId> candidates{core::NodeId{1}};
      for (int i = 0; i < kObservationsPerReader; ++i) {
        const std::int64_t seen = progress.load(std::memory_order_acquire);
        const std::shared_ptr<const MetroView> view = shared.view();
        if (view->epoch() < Epoch{seen}) {
          ++violations[static_cast<std::size_t>(t)];
        }
        (void)view->rank(core::NodeId{0}, candidates, RankingMetric::kDelay,
                         at_ms(static_cast<int>(seen)));
      }
    });
  }

  const exp::SweepRunner runner{1 + kReaders};
  runner.run(std::move(tasks));

  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(violations[static_cast<std::size_t>(t)], 0)
        << "reader " << t << " observed a pre-ingest view";
  }
  EXPECT_EQ(shared.reports_ingested(), 1 + kReports);
  // At quiescence the published view is the newest epoch.
  EXPECT_EQ(shared.view()->epoch(), Epoch{1 + kReports});
}

// Torture: 8 readers hammering the lock-free path against 1 writer mixing
// single and batched ingest, ~10k ops total. Each reader pins a view per
// rank and records its epoch and answer. Every 8th rank asks at a time
// whose queue window holds only the writer's next report and later ones,
// then waits for a later publish and re-asks the pinned view. After the
// join a fresh map re-ingests the writer's stream in order and, at every
// publish, re-answers that epoch's ranks field by field
// (torture_replay.hpp). Also asserts exact totals and that the final
// state replays byte-identically through Ranker over a flat NetworkMap —
// while giving TSan maximal view-churn traffic.
TEST(RankSnapshotTest, TortureEightReadersOneWriter) {
  constexpr int kReaders = 8;
  constexpr int kRanksPerReader = 1000;   // 8k ranks
  constexpr int kSingles = 1000;          // 1k single ingests
  constexpr int kBatches = 250;           // 1k more reports, batched by 4
  constexpr int kBatchSize = 4;

  const auto burst_of = [](int b) {
    std::vector<telemetry::ProbeReport> burst;
    burst.reserve(kBatchSize);
    for (int j = 0; j < kBatchSize; ++j) {
      burst.push_back(simple_report((b + j) % 11, (b * j) % 7));
    }
    return burst;
  };
  // The writer's stream after the seed report; `published` sees the map
  // after each publish.
  const auto stream = [&burst_of](ShardedNetworkMap& map,
                                  const auto& published) {
    for (int i = 0; i < kSingles; ++i) {
      map.ingest(simple_report(i % 13, i % 8), at_ms(1 + i));
      published(map);
    }
    for (int b = 0; b < kBatches; ++b) {
      map.ingest_batch(burst_of(b), at_ms(1 + kSingles + b));
      published(map);
    }
  };

  // The time of the writer's next report once epoch `e` is published:
  // epoch 1 is the seed report, then come the singles, then the batches.
  const auto next_report_at = [](Epoch e) {
    const auto done = static_cast<int>(e.value() - 1);
    if (done < kSingles) return at_ms(1 + done);
    return at_ms(1 + kSingles + (done - kSingles) / kBatchSize);
  };

  ShardedNetworkMap shared{one_region()};
  shared.ingest(simple_report(), at_ms(0));

  std::atomic<bool> writer_done{false};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&shared, &stream, &writer_done] {
    stream(shared, [](const ShardedNetworkMap&) {});
    writer_done.store(true, std::memory_order_release);
  });
  const std::vector<core::NodeId> candidates{core::NodeId{1}, core::NodeId{99}};
  std::vector<std::vector<torture_replay::Op>> ops(
      kReaders, std::vector<torture_replay::Op>(kRanksPerReader));
  for (int t = 0; t < kReaders; ++t) {
    tasks.push_back([&shared, &candidates, &ops, &next_report_at,
                     &writer_done, t] {
      for (int i = 0; i < kRanksPerReader; ++i) {
        torture_replay::Op& op =
            ops[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
        op.origin = core::NodeId{t};
        op.candidates = &candidates;
        op.metric = (i % 2 == 0) ? RankingMetric::kDelay
                                 : RankingMetric::kBandwidth;
        op.now = at_ms(i);
        const std::shared_ptr<const MetroView> pinned = shared.view();
        const bool recheck = i % 8 == 7;
        if (recheck) {
          op.now = next_report_at(pinned->epoch()) +
                   pinned->map().config().queue_window;
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

  const std::int64_t expected_reports =
      1 + kSingles + static_cast<std::int64_t>(kBatches) * kBatchSize;
  EXPECT_EQ(shared.reports_ingested(), expected_reports);
  EXPECT_EQ(shared.view()->epoch(), Epoch{expected_reports});

  torture_replay::Replay replay{ops};
  ShardedNetworkMap fresh{one_region()};
  fresh.ingest(simple_report(), at_ms(0));
  replay.check(*fresh.view());
  stream(fresh, [&replay](const ShardedNetworkMap& map) {
    replay.check(*map.view());
  });
  EXPECT_EQ(replay.replayed(), replay.recorded());

  // Quiesced state replays byte-identically through the reference Ranker.
  NetworkMap flat;
  flat.ingest(simple_report(), at_ms(0));
  for (int i = 0; i < kSingles; ++i) {
    flat.ingest(simple_report(i % 13, i % 8), at_ms(1 + i));
  }
  for (int b = 0; b < kBatches; ++b) {
    for (const telemetry::ProbeReport& r : burst_of(b)) {
      flat.ingest(r, at_ms(1 + kSingles + b));
    }
  }
  const Ranker ranker{flat};
  const int final_t = 1 + kSingles + kBatches;
  for (const auto metric :
       {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
    expect_ranks_identical(
        shared.view()->rank(core::NodeId{0}, candidates, metric,
                            at_ms(final_t)),
        ranker.rank(core::NodeId{0}, candidates, metric, at_ms(final_t)));
  }
}

}  // namespace
}  // namespace intsched::core
