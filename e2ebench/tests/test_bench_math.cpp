// The benchmark's own arithmetic on known inputs: exact nearest-rank
// quantiles (of latency samples and of per-slice rates), the
// order-independent decision fingerprint, and span self time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "bench_math.hpp"

namespace e2ebench {
namespace {

/// Nearest rank straight from the definition, over a sorted copy.
std::int64_t reference_rank(std::vector<std::int64_t> v, std::int64_t num,
                            std::int64_t den) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::int64_t>(v.size());
  const std::int64_t rank =
      std::max<std::int64_t>(1, (n * num + den - 1) / den);
  return v[static_cast<std::size_t>(rank - 1)];
}

TEST(ExactSamples, NearestRankOnOneToHundred) {
  ExactSamples s{16};  // most values land above the dense range
  for (std::int64_t v = 100; v >= 1; --v) s.add(v);
  EXPECT_EQ(s.count(), 100);
  EXPECT_EQ(s.nearest_rank(1, 2), 50);
  EXPECT_EQ(s.nearest_rank(99, 100), 99);
  EXPECT_EQ(s.nearest_rank(1, 1), 100);
  EXPECT_EQ(s.nearest_rank(1, 100), 1);
  EXPECT_EQ(s.median(), 50);
}

TEST(ExactSamples, OddCountMedianAndSingleSample) {
  ExactSamples s;
  for (const std::int64_t v : {7, 3, 9, 1, 5}) s.add(v);
  EXPECT_EQ(s.median(), 5);
  ExactSamples one;
  one.add(42);
  EXPECT_EQ(one.median(), 42);
  EXPECT_EQ(one.nearest_rank(99, 100), 42);
  ExactSamples none;
  EXPECT_EQ(none.median(), 0);
}

TEST(ExactSamples, MatchesSortedVectorAcrossDenseAndSparseValues) {
  std::mt19937_64 rng{7};
  std::uniform_int_distribution<std::int64_t> small{0, 2000};
  std::uniform_int_distribution<std::int64_t> large{-50, 5000000};
  for (int trial = 0; trial < 20; ++trial) {
    ExactSamples s{1024};
    std::vector<std::int64_t> all;
    const int n = 1 + trial * 37;
    for (int i = 0; i < n; ++i) {
      const std::int64_t v = (i % 5 == 0) ? large(rng) : small(rng);
      s.add(v);
      all.push_back(v);
    }
    for (const auto& [num, den] : {std::pair<std::int64_t, std::int64_t>{1, 2},
                                   {99, 100},
                                   {999, 1000},
                                   {1, 4},
                                   {3, 4},
                                   {1, 1}}) {
      EXPECT_EQ(s.nearest_rank(num, den), reference_rank(all, num, den))
          << "n=" << n << " q=" << num << "/" << den;
      EXPECT_EQ(nearest_rank_of(all, num, den), reference_rank(all, num, den));
    }
  }
}

TEST(ExactSamples, MergeEqualsRecordingEverythingInOne) {
  ExactSamples a{64};
  ExactSamples b{64};
  ExactSamples both{64};
  for (std::int64_t v = 0; v < 300; ++v) {
    (v % 3 == 0 ? a : b).add(v * 7 % 211);
    both.add(v * 7 % 211);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  for (const std::int64_t num : {1, 25, 50, 75, 99, 100}) {
    EXPECT_EQ(a.nearest_rank(num, 100), both.nearest_rank(num, 100));
  }
}

TEST(DecisionFingerprint, IndependentOfOrderAndThreadSplit) {
  struct Decision {
    std::uint64_t id;
    std::vector<std::int32_t> servers;
  };
  std::vector<Decision> ds;
  for (std::uint64_t id = 0; id < 200; ++id) {
    ds.push_back({id, {static_cast<std::int32_t>(id % 13),
                       static_cast<std::int32_t>(id % 7 + 20)}});
  }
  DecisionFingerprint sequential;
  for (const Decision& d : ds) {
    sequential.add(d.id, d.servers.data(), d.servers.size());
  }
  // Two "threads" taking every other id, folded in reverse, then merged.
  DecisionFingerprint even;
  DecisionFingerprint odd;
  for (auto it = ds.rbegin(); it != ds.rend(); ++it) {
    (it->id % 2 == 0 ? even : odd)
        .add(it->id, it->servers.data(), it->servers.size());
  }
  even.merge(odd);
  EXPECT_EQ(even.value(), sequential.value());
  EXPECT_EQ(even.count(), 200);
}

TEST(DecisionFingerprint, ChangesWithAnyServerOrId) {
  const std::int32_t a[] = {5, 9, 2};
  const std::int32_t b[] = {5, 2, 9};
  DecisionFingerprint fa;
  DecisionFingerprint fb;
  DecisionFingerprint fc;
  DecisionFingerprint fd;
  fa.add(1, a, 3);
  fb.add(1, b, 3);  // same servers, other order
  fc.add(2, a, 3);  // same answer to another request
  fd.add(1, a, 2);  // fewer entries
  EXPECT_NE(fa.value(), fb.value());
  EXPECT_NE(fa.value(), fc.value());
  EXPECT_NE(fa.value(), fd.value());
}

TEST(DecisionFingerprint, OneRequestIsItsFnv1aDigest) {
  const std::int32_t servers[] = {17};
  DecisionFingerprint f;
  f.add(3, servers, 1);
  intsched::sim::Fnv1a64 h;
  h.add(3);
  h.add(1);
  h.add(17);
  EXPECT_EQ(f.value(), h.digest());
}

Span span(std::int32_t parent, std::int64_t start, std::int64_t end) {
  return Span{0, parent, 0, start, end};
}

TEST(SelfTime, NestedSpansSubtractOnlyDirectChildren) {
  // request [0,100) > serve [10,80) > decode [20,30), pick [40,70)
  //                > client [85,95)
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 80),
                                   span(1, 20, 30), span(1, 40, 70),
                                   span(0, 85, 95)};
  std::vector<std::int64_t> self;
  self_times(spans, self);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 70 - 10);
  EXPECT_EQ(self[1], 70 - 10 - 30);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  // Children [10,40) and [30,60) overlap by 10; [90,130) overhangs the
  // parent's end at 100, so only [90,100) of it is covered.
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 30, 60),
                                   span(0, 10, 40), span(0, 90, 130)};
  std::vector<std::int64_t> self;
  self_times(spans, self);
  EXPECT_EQ(self[0], 100 - 50 - 10);
}

TEST(SelfTime, LeafSpanIsItsDuration) {
  const std::vector<Span> spans = {span(-1, 5, 17)};
  std::vector<std::int64_t> self;
  self_times(spans, self);
  EXPECT_EQ(self[0], 12);
}

}  // namespace
}  // namespace e2ebench
