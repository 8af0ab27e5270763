#pragma once

// Exact answers under concurrency, for the torture tests: each reader op
// records its query, the epoch of the view that answered it and that
// view's full answer. After the join, a fresh map re-ingests the writer's
// stream in the same order; at every publish its view re-answers the ops
// recorded at that epoch, and every answer must match field by field. A
// view is a function of its map, so this holds under any interleaving.
// While the writer runs, a reader also re-asks some ops of the view that
// answered them once a later view is out (expect_unchanged_after_publish),
// so a view that still reads the live map fails in the run that has it.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/sharded_map.hpp"

namespace intsched::core::torture_replay {

/// One reader op: its query, then the epoch of the view that answered it
/// and that view's answers.
struct Op {
  NodeId origin = kInvalidNode;
  const std::vector<NodeId>* candidates = nullptr;
  RankingMetric metric = RankingMetric::kDelay;
  sim::SimTime now;
  bool pick = false;  ///< also answer with pick()
  Epoch epoch = Epoch::none();
  std::vector<ServerRank> ranked;
  std::optional<ServerRank> best;
};

/// Answers `op`'s query from `view`, recording the view's epoch.
inline void answer(const MetroView& view, Op& op) {
  op.epoch = view.epoch();
  op.ranked = view.rank(op.origin, *op.candidates, op.metric, op.now);
  if (op.pick) {
    op.best = view.pick(op.origin, *op.candidates, op.metric, op.now);
  }
}

/// Field-by-field equality of two answers.
inline void expect_same(const ServerRank& got, const ServerRank& want) {
  EXPECT_EQ(got.server, want.server);
  EXPECT_EQ(got.delay_estimate, want.delay_estimate);
  EXPECT_EQ(got.bandwidth_estimate.bps(), want.bandwidth_estimate.bps());
  EXPECT_EQ(got.baseline_delay, want.baseline_delay);
  EXPECT_EQ(got.outstanding_tasks, want.outstanding_tasks);
  EXPECT_EQ(got.stale, want.stale);
}

/// Field-by-field equality of two answers to the same query.
inline void expect_same(const Op& got, const Op& want) {
  ASSERT_EQ(got.ranked.size(), want.ranked.size());
  for (std::size_t i = 0; i < got.ranked.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "rank " << i);
    expect_same(got.ranked[i], want.ranked[i]);
  }
  ASSERT_EQ(got.best.has_value(), want.best.has_value());
  if (got.best) expect_same(*got.best, *want.best);
}

/// Waits, yielding, until `map` publishes a view later than the one that
/// answered `op` or `writer_done` is set, then re-answers `op` from
/// `pinned`, that view: a published view is frozen, so the answer must
/// not have moved.
inline void expect_unchanged_after_publish(
    const ShardedNetworkMap& map, const MetroView& pinned, const Op& op,
    // intsched-lint: allow(thread-share): the writer's done flag
    const std::atomic<bool>& writer_done) {
  while (!writer_done.load(std::memory_order_acquire) &&
         map.view()->epoch() <= op.epoch) {
    std::this_thread::yield();
  }
  SCOPED_TRACE(testing::Message() << "pinned epoch " << op.epoch
                                  << ", origin " << op.origin);
  Op again = op;
  answer(pinned, again);
  expect_same(again, op);
}

/// The readers' recorded ops by epoch, re-answered one publish at a time.
class Replay {
 public:
  explicit Replay(const std::vector<std::vector<Op>>& readers) {
    for (const std::vector<Op>& ops : readers) {
      for (const Op& op : ops) by_epoch_[op.epoch.value()].push_back(&op);
      recorded_ += ops.size();
    }
  }

  /// Re-answers every op recorded at `view`'s epoch from `view`.
  void check(const MetroView& view) {
    const auto it = by_epoch_.find(view.epoch().value());
    if (it == by_epoch_.end()) return;
    for (const Op* recorded : it->second) {
      SCOPED_TRACE(testing::Message() << "epoch " << recorded->epoch
                                      << ", origin " << recorded->origin);
      Op again = *recorded;
      answer(view, again);
      expect_same(again, *recorded);
      ++replayed_;
    }
  }

  [[nodiscard]] std::size_t recorded() const { return recorded_; }
  /// Ops re-answered so far: every recorded one once the stream is done,
  /// since every view a reader saw was one of the stream's publishes.
  [[nodiscard]] std::size_t replayed() const { return replayed_; }

 private:
  std::map<std::int64_t, std::vector<const Op*>> by_epoch_;
  std::size_t recorded_ = 0;
  std::size_t replayed_ = 0;
};

}  // namespace intsched::core::torture_replay
