// NetworkMap: topology inference from INT entry order, link-delay EWMA,
// queue freshness windows.
#include "intsched/core/network_map.hpp"

#include <gtest/gtest.h>

namespace intsched::core {
namespace {

sim::SimDuration ms(int v) { return sim::SimDuration::milliseconds(v); }
sim::SimTime at_ms(int v) { return sim::SimTime::at(ms(v)); }

net::IntStackEntry entry(core::NodeId device, std::int32_t in_port,
                         std::int32_t out_port, std::int64_t port_q,
                         std::int64_t dev_q, sim::SimDuration link_latency) {
  net::IntStackEntry e;
  e.device = device;
  e.ingress_port = in_port;
  e.egress_port = out_port;
  e.max_queue_pkts = port_q;
  e.device_max_queue_pkts = dev_q;
  e.ingress_link_latency = link_latency;
  return e;
}

/// host 0 -> s10 -> s11 -> host 1 (the collector).
telemetry::ProbeReport simple_report(std::int64_t q10 = 0,
                                     std::int64_t q11 = 0) {
  telemetry::ProbeReport r;
  r.src = core::NodeId{0};
  r.dst = core::NodeId{1};
  r.entries = {
      entry(core::NodeId{10}, 0, 2, q10, q10, ms(10)),
      entry(core::NodeId{11}, 1, 3, q11, q11, ms(12)),
  };
  r.final_link_latency = ms(9);
  return r;
}

TEST(NetworkMapTest, LearnsAdjacencyFromEntryOrder) {
  NetworkMap map;
  map.ingest(simple_report(), at_ms(0));
  EXPECT_TRUE(map.knows_node(core::NodeId{0}));
  EXPECT_TRUE(map.knows_node(core::NodeId{10}));
  EXPECT_TRUE(map.knows_node(core::NodeId{11}));
  EXPECT_TRUE(map.knows_node(core::NodeId{1}));
  // Both directions of every traversed link.
  EXPECT_EQ(map.known_link_count(), 6);
}

TEST(NetworkMapTest, LearnsEgressPortsBothDirections) {
  NetworkMap map;
  map.ingest(simple_report(), at_ms(0));
  // forward: s10's egress
  EXPECT_EQ(map.egress_port(core::NodeId{10}, core::NodeId{11}), 2);
  // reverse: s11's ingress port
  EXPECT_EQ(map.egress_port(core::NodeId{11}, core::NodeId{10}), 1);
  // toward the collector
  EXPECT_EQ(map.egress_port(core::NodeId{11}, core::NodeId{1}), 3);
}

TEST(NetworkMapTest, LinkDelaysFromMeasurements) {
  NetworkMap map;
  map.ingest(simple_report(), at_ms(0));
  EXPECT_EQ(map.link_delay(core::NodeId{0}, core::NodeId{10}), ms(10));
  EXPECT_EQ(map.link_delay(core::NodeId{10}, core::NodeId{11}), ms(12));
  EXPECT_EQ(map.link_delay(core::NodeId{11}, core::NodeId{1}), ms(9));
}

TEST(NetworkMapTest, ReverseDirectionAssumedSymmetric) {
  NetworkMap map;
  map.ingest(simple_report(), at_ms(0));
  EXPECT_EQ(map.link_delay(core::NodeId{11}, core::NodeId{10}), ms(12));
  EXPECT_EQ(map.link_delay(core::NodeId{1}, core::NodeId{11}), ms(9));
}

TEST(NetworkMapTest, UnknownLinkUsesDefault) {
  NetworkMapConfig cfg;
  cfg.default_link_delay = ms(33);
  NetworkMap map{cfg};
  EXPECT_EQ(map.link_delay(core::NodeId{5}, core::NodeId{6}), ms(33));
}

TEST(NetworkMapTest, EwmaSmoothsLinkDelay) {
  NetworkMapConfig cfg;
  cfg.link_delay_alpha = 0.5;
  NetworkMap map{cfg};
  map.ingest(simple_report(), at_ms(0));  // s10->s11 = 12 ms
  telemetry::ProbeReport r2 = simple_report();
  r2.entries[1].ingress_link_latency = ms(20);
  map.ingest(r2, at_ms(100));
  // 0.5*20 + 0.5*12
  EXPECT_EQ(map.link_delay(core::NodeId{10}, core::NodeId{11}), ms(16));
}

TEST(NetworkMapTest, DeviceMaxQueueWithinWindow) {
  NetworkMapConfig cfg;
  cfg.queue_window = ms(150);
  NetworkMap map{cfg};
  map.ingest(simple_report(7, 0), at_ms(0));
  EXPECT_EQ(map.device_max_queue(core::NodeId{10}, at_ms(100)), 7);
}

TEST(NetworkMapTest, StaleReportsExpire) {
  NetworkMapConfig cfg;
  cfg.queue_window = ms(150);
  NetworkMap map{cfg};
  map.ingest(simple_report(7, 0), at_ms(0));
  EXPECT_EQ(map.device_max_queue(core::NodeId{10}, at_ms(400)), 0);
}

TEST(NetworkMapTest, WindowKeepsMaxOfMultipleReports) {
  NetworkMapConfig cfg;
  cfg.queue_window = ms(150);
  NetworkMap map{cfg};
  map.ingest(simple_report(3, 0), at_ms(0));
  map.ingest(simple_report(9, 0), at_ms(50));
  map.ingest(simple_report(2, 0), at_ms(100));
  EXPECT_EQ(map.device_max_queue(core::NodeId{10}, at_ms(120)), 9);
}

TEST(NetworkMapTest, LinkMaxQueueUsesPortRegister) {
  NetworkMap map;
  telemetry::ProbeReport r = simple_report();
  r.entries[0].max_queue_pkts = 4;        // port 2 (toward s11)
  r.entries[0].device_max_queue_pkts = 9; // some other port was busier
  map.ingest(r, at_ms(0));
  EXPECT_EQ(
      map.link_max_queue(core::NodeId{10}, core::NodeId{11}, at_ms(10)), 4);
  EXPECT_EQ(map.device_max_queue(core::NodeId{10}, at_ms(10)), 9);
}

TEST(NetworkMapTest, LinkMaxQueueFallsBackToDevice) {
  NetworkMap map;
  map.ingest(simple_report(6, 0), at_ms(0));
  // Link s10 -> host 0 (reverse direction) was never probed per-port;
  // the device-wide register of s10 is the conservative answer.
  EXPECT_EQ(map.link_max_queue(core::NodeId{10}, core::NodeId{0}, at_ms(10)),
            6);
}

TEST(NetworkMapTest, UnknownDeviceQueueIsZero) {
  NetworkMap map;
  EXPECT_EQ(map.device_max_queue(core::NodeId{99}, at_ms(0)), 0);
  EXPECT_EQ(map.link_max_queue(core::NodeId{99}, core::NodeId{98}, at_ms(0)),
            0);
}

TEST(NetworkMapTest, DelayGraphUsesCurrentEstimates) {
  NetworkMapConfig cfg;
  cfg.link_delay_alpha = 1.0;  // adopt newest sample outright
  NetworkMap map{cfg};
  map.ingest(simple_report(), at_ms(0));
  telemetry::ProbeReport r2 = simple_report();
  r2.entries[1].ingress_link_latency = ms(50);
  map.ingest(r2, at_ms(100));

  const net::Graph g = map.delay_graph();
  const std::uint32_t e = g.find_edge(g.index_of(core::NodeId{10}),
                                      g.index_of(core::NodeId{11}));
  ASSERT_NE(e, net::Graph::kNoIndex);
  EXPECT_EQ(g.edge(e).cost, ms(50));
}

TEST(NetworkMapTest, ReportsCounted) {
  NetworkMap map;
  map.ingest(simple_report(), at_ms(0));
  map.ingest(simple_report(), at_ms(100));
  EXPECT_EQ(map.reports_ingested(), 2);
}

TEST(NetworkMapTest, NegativeLatencySampleIgnored) {
  NetworkMap map;
  telemetry::ProbeReport r = simple_report();
  r.entries[0].ingress_link_latency = sim::SimDuration::nanoseconds(-1);
  map.ingest(r, at_ms(0));
  // Falls back to the default estimate instead of adopting garbage.
  EXPECT_EQ(map.link_delay(core::NodeId{0}, core::NodeId{10}),
            map.config().default_link_delay);
}

TEST(NetworkMapTest, NegativeQueueValuesClampedToZero) {
  NetworkMap map;
  telemetry::ProbeReport r = simple_report();
  r.entries[0].max_queue_pkts = -5;
  r.entries[0].device_max_queue_pkts = -9;
  map.ingest(r, at_ms(0));
  EXPECT_EQ(map.device_max_queue(core::NodeId{10}, at_ms(10)), 0);
  EXPECT_EQ(
      map.link_max_queue(core::NodeId{10}, core::NodeId{11}, at_ms(10)), 0);
}

TEST(NetworkMapTest, InvalidDeviceEntryRejectedNotLearned) {
  NetworkMap map;
  telemetry::ProbeReport r = simple_report();
  r.entries.insert(r.entries.begin() + 1,
                   entry(core::kInvalidNode, 0, 0, 0, 0, ms(5)));
  map.ingest(r, at_ms(0));
  EXPECT_EQ(map.rejected_entries(), 1);
  EXPECT_FALSE(map.knows_node(core::kInvalidNode));
  // The surviving entries still stitch the path together correctly.
  EXPECT_TRUE(map.knows_node(core::NodeId{10}));
  EXPECT_TRUE(map.knows_node(core::NodeId{11}));
}

// A report whose source or destination is invalid (ProbeReport's default
// src is kInvalidNode) names no device at that end: it teaches no link to
// the invalid id, but its stack entries and the links between them still
// count.
TEST(NetworkMapTest, InvalidReportEndLearnsNoLink) {
  NetworkMap map;
  telemetry::ProbeReport no_src = simple_report(3, 4);
  no_src.src = core::kInvalidNode;
  telemetry::ProbeReport no_dst = simple_report(5, 6);
  no_dst.dst = core::NodeId{-7};
  map.ingest(no_src, at_ms(0));
  map.ingest(no_dst, at_ms(1));
  for (const LinkKey& k : map.links()) {
    EXPECT_TRUE(k.from.valid() && k.to.valid())
        << k.from << " -> " << k.to;
  }
  EXPECT_FALSE(map.knows_node(core::kInvalidNode));
  EXPECT_FALSE(map.knows_node(core::NodeId{-7}));
  // s10 <-> s11 from both reports, 11 <-> 1 from the first and
  // 0 <-> 10 from the second.
  EXPECT_EQ(map.known_link_count(), 6);
  EXPECT_EQ(map.link_delay(core::NodeId{11}, core::NodeId{1}), ms(9));
  EXPECT_EQ(map.device_max_queue(core::NodeId{10}, at_ms(1)), 5);
  EXPECT_EQ(map.device_max_queue(core::NodeId{11}, at_ms(1)), 6);
  EXPECT_EQ(map.rejected_entries(), 0);
  EXPECT_EQ(map.reports_ingested(), 2);
}

TEST(NetworkMapTest, OutOfOrderIngestIsSafe) {
  // Reports may arrive with decreasing timestamps (clock-skewed probes);
  // the freshness bookkeeping must take the max, not the latest arrival.
  NetworkMapConfig cfg;
  cfg.link_staleness = ms(200);
  NetworkMap map{cfg};
  map.ingest(simple_report(), at_ms(500));
  map.ingest(simple_report(), at_ms(100));  // late straggler
  EXPECT_FALSE(map.link_stale(core::NodeId{0}, core::NodeId{10}, at_ms(600)));
  EXPECT_TRUE(map.link_stale(core::NodeId{0}, core::NodeId{10}, at_ms(800)));
}

}  // namespace
}  // namespace intsched::core

// -- Link jitter tracking (paper §III-A: probes capture jitter) --

namespace intsched::core {
namespace {

telemetry::ProbeReport one_hop_report(sim::SimDuration latency) {
  telemetry::ProbeReport r;
  r.src = core::NodeId{0};
  r.dst = core::NodeId{1};
  net::IntStackEntry e;
  e.device = core::NodeId{10};
  e.ingress_port = 0;
  e.egress_port = 1;
  e.ingress_link_latency = latency;
  r.entries = {e};
  r.final_link_latency = sim::SimDuration::milliseconds(10);
  return r;
}

TEST(NetworkMapJitterTest, StableLinkHasZeroJitter) {
  NetworkMap map;
  for (int i = 0; i < 10; ++i) {
    map.ingest(one_hop_report(sim::SimDuration::milliseconds(10)),
               sim::SimTime::milliseconds(100 * i));
  }
  EXPECT_EQ(map.link_jitter(core::NodeId{0}, core::NodeId{10}),
            sim::SimDuration::zero());
}

TEST(NetworkMapJitterTest, VariableLinkAccumulatesJitter) {
  NetworkMap map;
  for (int i = 0; i < 20; ++i) {
    const auto latency = sim::SimDuration::milliseconds(i % 2 == 0 ? 8 : 12);
    map.ingest(one_hop_report(latency), sim::SimTime::milliseconds(100 * i));
  }
  // Samples alternate +-2 ms around the mean: jitter settles near 2 ms.
  // intsched-lint: allow(raw-unit): fractional-ms bound check
  const double jitter_ms =
      map.link_jitter(core::NodeId{0}, core::NodeId{10}).to_milliseconds();
  EXPECT_GT(jitter_ms, 1.0);
  EXPECT_LT(jitter_ms, 3.0);
}

TEST(NetworkMapJitterTest, UnknownLinkReportsZero) {
  NetworkMap map;
  EXPECT_EQ(map.link_jitter(core::NodeId{5}, core::NodeId{6}),
            sim::SimDuration::zero());
}

TEST(NetworkMapJitterTest, ReverseDirectionFallsBack) {
  NetworkMap map;
  for (int i = 0; i < 20; ++i) {
    const auto latency = sim::SimDuration::milliseconds(i % 2 == 0 ? 5 : 15);
    map.ingest(one_hop_report(latency), sim::SimTime::milliseconds(100 * i));
  }
  EXPECT_GT(map.link_jitter(core::NodeId{10}, core::NodeId{0}),
            sim::SimDuration::zero());
  EXPECT_EQ(map.link_jitter(core::NodeId{10}, core::NodeId{0}),
            map.link_jitter(core::NodeId{0}, core::NodeId{10}));
}

}  // namespace
}  // namespace intsched::core

// -- Telemetry staleness (failure model: expire what probes stop refreshing) --

namespace intsched::core {
namespace {

sim::SimTime sms(int v) { return sim::SimTime::milliseconds(v); }
sim::SimDuration dms(int v) { return sim::SimDuration::milliseconds(v); }

telemetry::ProbeReport stale_report() {
  telemetry::ProbeReport r;
  r.src = core::NodeId{0};
  r.dst = core::NodeId{1};
  net::IntStackEntry e;
  e.device = core::NodeId{10};
  e.ingress_port = 0;
  e.egress_port = 1;
  e.ingress_link_latency = dms(10);
  r.entries = {e};
  r.final_link_latency = dms(9);
  return r;
}

TEST(NetworkMapStalenessTest, FreshWithinWindowStaleBeyondIt) {
  NetworkMapConfig cfg;
  cfg.link_staleness = dms(200);
  NetworkMap map{cfg};
  map.ingest(stale_report(), sms(100));
  EXPECT_FALSE(map.link_stale(core::NodeId{0}, core::NodeId{10}, sms(250)));
  EXPECT_TRUE(map.link_stale(core::NodeId{0}, core::NodeId{10}, sms(301)));
}

TEST(NetworkMapStalenessTest, ReverseMeasurementRefreshesLink) {
  // Only the 0->10 direction is ever measured; queries about 10->0 use
  // the symmetric estimate and inherit its freshness.
  NetworkMapConfig cfg;
  cfg.link_staleness = dms(200);
  NetworkMap map{cfg};
  map.ingest(stale_report(), sms(100));
  EXPECT_FALSE(map.link_stale(core::NodeId{10}, core::NodeId{0}, sms(250)));
  EXPECT_TRUE(map.link_stale(core::NodeId{10}, core::NodeId{0}, sms(301)));
}

TEST(NetworkMapStalenessTest, NeverMeasuredLinkIsStale) {
  NetworkMapConfig cfg;
  cfg.link_staleness = dms(200);
  NetworkMap map{cfg};
  EXPECT_TRUE(map.link_stale(core::NodeId{4}, core::NodeId{5}, sms(0)));
}

TEST(NetworkMapStalenessTest, DisabledWindowNeverExpires) {
  NetworkMap map;  // link_staleness defaults to zero = disabled
  EXPECT_FALSE(map.link_stale(core::NodeId{4}, core::NodeId{5}, sms(0)));
  map.ingest(stale_report(), sms(0));
  EXPECT_FALSE(map.link_stale(core::NodeId{0}, core::NodeId{10},
                              sim::SimTime::seconds(3600)));
}

TEST(NetworkMapStalenessTest, PathStaleIfAnyHopIsStale) {
  NetworkMapConfig cfg;
  cfg.link_staleness = dms(200);
  NetworkMap map{cfg};
  map.ingest(stale_report(), sms(100));
  map.ingest(stale_report(), sms(400));  // refresh 0->10 only
  // Path 0 -> 10 -> 99: second hop never measured.
  EXPECT_TRUE(map.path_stale(
      {core::NodeId{0}, core::NodeId{10}, core::NodeId{99}}, sms(450)));
  EXPECT_FALSE(map.path_stale({core::NodeId{0}, core::NodeId{10}}, sms(450)));
  // Degenerate paths can't be judged and are never stale.
  EXPECT_FALSE(map.path_stale({core::NodeId{0}}, sms(450)));
  EXPECT_FALSE(map.path_stale({}, sms(450)));
}

TEST(NetworkMapStalenessTest, HugeWindowDoesNotUnderflow) {
  // now - window must saturate, not wrap: a max() window means "never
  // expire", even queried at t=0. (Pinned: this is SimTime arithmetic on
  // the raw ns value, where naive subtraction would be signed overflow.)
  NetworkMapConfig cfg;
  cfg.link_staleness = sim::SimDuration::max();
  cfg.queue_window = sim::SimDuration::max();
  NetworkMap map{cfg};
  map.ingest(stale_report(), sms(0));
  EXPECT_FALSE(map.link_stale(core::NodeId{0}, core::NodeId{10}, sms(0)));
  EXPECT_FALSE(map.link_stale(core::NodeId{0}, core::NodeId{10},
                              sim::SimTime::seconds(100000)));
  EXPECT_EQ(
      map.device_max_queue(core::NodeId{10}, sim::SimTime::seconds(100000)),
      map.device_max_queue(core::NodeId{10}, sms(1)));
}

TEST(NetworkMapStalenessTest, QueriesAreTranslationInvariant) {
  // The same report ingested at t and t+X must answer window queries
  // identically at now and now+X: all comparisons live in SimTime, no
  // absolute epoch leaks in.
  const sim::SimDuration shift = sim::SimDuration::seconds(7200);
  NetworkMapConfig cfg;
  cfg.link_staleness = dms(200);
  cfg.queue_window = dms(150);
  NetworkMap a{cfg};
  NetworkMap b{cfg};
  telemetry::ProbeReport r = stale_report();
  r.entries[0].max_queue_pkts = 6;
  r.entries[0].device_max_queue_pkts = 6;
  a.ingest(r, sms(100));
  b.ingest(r, sms(100) + shift);
  for (const int probe_ms : {120, 240, 290, 310, 500}) {
    EXPECT_EQ(
        a.link_stale(core::NodeId{0}, core::NodeId{10}, sms(probe_ms)),
        b.link_stale(core::NodeId{0}, core::NodeId{10}, sms(probe_ms) + shift))
        << probe_ms;
    EXPECT_EQ(a.device_max_queue(core::NodeId{10}, sms(probe_ms)),
              b.device_max_queue(core::NodeId{10}, sms(probe_ms) + shift))
        << probe_ms;
  }
}

}  // namespace
}  // namespace intsched::core
