// Property suite for the NetworkMap's monotonic max-queues (window-max
// congestion queries): they must answer exactly like a naive scan over
// every sample ever ingested, for randomized sequences including late
// stragglers and samples that share a timestamp.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/network_map.hpp"
#include "intsched/sim/rng.hpp"

namespace intsched {
namespace {

// ---------------------------------------------------------------------
// Monotonic max-queue vs the naive reference model.

/// Single-device probe report carrying one set of register values.
telemetry::ProbeReport queue_report(core::NodeId device, std::int64_t max_q,
                                    std::int64_t avg_q_x100,
                                    sim::SimDuration hop_latency) {
  telemetry::ProbeReport report;
  report.src = core::NodeId{100};
  report.dst = core::NodeId{101};
  net::IntStackEntry entry;
  entry.device = device;
  entry.ingress_port = 0;
  entry.egress_port = 1;
  entry.max_queue_pkts = max_q;
  entry.device_max_queue_pkts = max_q;
  entry.device_avg_queue_x100 = avg_q_x100;
  entry.max_hop_latency = hop_latency;
  report.entries.push_back(entry);
  return report;
}

/// The reference model: every sample ever ingested, scanned in full.
struct NaiveSeries {
  std::vector<std::pair<sim::SimTime, std::int64_t>> samples;

  [[nodiscard]] std::int64_t max_from(sim::SimTime cutoff) const {
    std::int64_t best = 0;
    for (const auto& [t, v] : samples) {
      if (t >= cutoff) best = std::max(best, v);
    }
    return best;
  }
};

TEST(WindowMaxProperty, MatchesNaiveScanOverRandomizedSequences) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    sim::Rng rng{seed};
    core::NetworkMapConfig cfg;
    cfg.queue_window = sim::SimDuration::milliseconds(
        rng.uniform_int(50, 400));
    core::NetworkMap map{cfg};
    const core::NodeId device{7};

    NaiveSeries naive_max;
    NaiveSeries naive_avg;
    sim::SimTime high_water = sim::SimTime::zero();

    sim::SimTime now = sim::SimTime::zero();
    for (int step = 0; step < 400; ++step) {
      now += sim::SimDuration::microseconds(rng.uniform_int(0, 40'000));
      // ~10% of ingests are late stragglers: an older report arriving
      // after newer ones (reordered probe delivery).
      sim::SimTime at = now;
      if (rng.chance(0.1) && high_water > sim::SimTime::zero()) {
        at = sim::SimTime::nanoseconds(
            rng.uniform_int(0, high_water.ns()));
      }
      high_water = std::max(high_water, at);

      const std::int64_t max_q = rng.uniform_int(0, 64);
      const std::int64_t avg_q = rng.uniform_int(0, 4'000);
      map.ingest(queue_report(device, max_q, avg_q,
                              sim::SimDuration::microseconds(max_q)),
                 at);
      naive_max.samples.push_back({at, max_q});
      naive_avg.samples.push_back({at, avg_q});

      // Query at the newest time seen and at a few later instants (the
      // scheduler always queries at the current sim time, which can only
      // move forward past every ingest).
      for (const std::int64_t ahead_us : {std::int64_t{0},
                                          rng.uniform_int(0, 500'000)}) {
        const sim::SimTime q_now =
            high_water + sim::SimDuration::microseconds(ahead_us);
        const sim::SimTime cutoff = q_now - cfg.queue_window;
        ASSERT_EQ(map.device_max_queue(device, q_now),
                  naive_max.max_from(cutoff))
            << "seed=" << seed << " step=" << step;
        ASSERT_EQ(map.device_avg_queue(device, q_now),
                  static_cast<double>(naive_avg.max_from(cutoff)) / 100.0)
            << "seed=" << seed << " step=" << step;
      }
    }
  }
}

TEST(WindowMaxProperty, TiedTimestampsMatchNaiveScanInEitherArrivalOrder) {
  // Probes of one interval often share a report time, so a device sees
  // several samples at one timestamp. Samples land on a coarse 10 ms grid
  // in groups that share a timestamp, each group arriving largest-first or
  // smallest-first, with stragglers that reuse an earlier grid point.
  const sim::SimDuration tick = sim::SimDuration::milliseconds(10);
  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull, 15ull}) {
    for (const bool largest_first : {true, false}) {
      sim::Rng rng{seed};
      core::NetworkMapConfig cfg;
      cfg.queue_window = tick * rng.uniform_int(1, 12);
      core::NetworkMap map{cfg};
      const core::NodeId device{7};
      NaiveSeries naive;
      sim::SimTime high_water = sim::SimTime::zero();
      std::int64_t ticks = 0;

      for (int step = 0; step < 300; ++step) {
        ticks += rng.uniform_int(0, 2);
        sim::SimTime at = sim::SimTime::zero() + tick * ticks;
        if (rng.chance(0.15)) {
          at = sim::SimTime::zero() + tick * rng.uniform_int(0, ticks);
        }
        high_water = std::max(high_water, at);

        std::vector<std::int64_t> group(
            static_cast<std::size_t>(rng.uniform_int(1, 4)));
        for (std::int64_t& v : group) v = rng.uniform_int(0, 8);
        std::sort(group.begin(), group.end());
        if (largest_first) std::reverse(group.begin(), group.end());
        for (const std::int64_t v : group) {
          map.ingest(queue_report(device, v, v * 100,
                                  sim::SimDuration::microseconds(v)),
                     at);
          naive.samples.push_back({at, v});
        }

        for (const std::int64_t ahead : {std::int64_t{0},
                                         rng.uniform_int(0, 15)}) {
          const sim::SimTime q_now = high_water + tick * ahead;
          const std::int64_t want = naive.max_from(q_now - cfg.queue_window);
          ASSERT_EQ(map.device_max_queue(device, q_now), want)
              << "seed=" << seed << " step=" << step;
          ASSERT_EQ(map.device_avg_queue(device, q_now),
                    static_cast<double>(want))
              << "seed=" << seed << " step=" << step;
          ASSERT_EQ(map.device_hop_latency(device, q_now),
                    sim::SimDuration::microseconds(want))
              << "seed=" << seed << " step=" << step;
          // The port register carries the same values, so whichever
          // branch link_max_queue takes (fresh port series or the device
          // fallback) must read the naive max too.
          ASSERT_EQ(map.link_max_queue(device, core::NodeId{101}, q_now),
                    want)
              << "seed=" << seed << " step=" << step;
        }
      }
    }
  }
}

TEST(WindowMaxProperty, EmptyAndExpiredWindowsReadZero) {
  core::NetworkMapConfig cfg;
  cfg.queue_window = sim::SimDuration::milliseconds(100);
  core::NetworkMap map{cfg};

  // Unknown device: the paper's "assume uncongested" fallback.
  EXPECT_EQ(map.device_max_queue(core::NodeId{3}, sim::SimTime::seconds(1)),
            0);

  map.ingest(queue_report(core::NodeId{3}, 40, 1000, sim::SimDuration::zero()),
             sim::SimTime::seconds(1));
  EXPECT_EQ(map.device_max_queue(core::NodeId{3}, sim::SimTime::seconds(1)),
            40);
  // Every sample older than the window: back to zero, without mutation.
  EXPECT_EQ(map.device_max_queue(core::NodeId{3}, sim::SimTime::seconds(10)),
            0);
  // The sample is still there for a query window that covers it.
  EXPECT_EQ(map.device_max_queue(core::NodeId{3},
                                 sim::SimTime::seconds(1) +
                                     sim::SimDuration::milliseconds(50)),
            40);
}

}  // namespace
}  // namespace intsched
