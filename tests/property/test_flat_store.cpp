// Copy independence of NetworkMap's flat store. A published view copies
// every slot table and the sample pool of the live map, so nothing
// ingested afterwards — new nodes, links and series, re-learned ports,
// series that outgrow their pool range — may show through it: every query
// on the view's map must keep its answer and equal a fresh map fed only
// the prefix, and the view's region graph must stay the delay graph it
// was built as. Series and link slots resolved on the view's map (the
// catalog's handles) must keep evaluating to the same window maxima, and
// because slots are append-only the live map must resolve every key the
// view knows to the same slot.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/network_map.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/sim/rng.hpp"

#include "../core/map_answers.hpp"

namespace intsched::core {
namespace {

using SeriesSlot = NetworkMap::SeriesSlot;
using LinkSlot = NetworkMap::LinkSlot;
using map_answers::Answer;
using map_answers::edges;
using map_answers::expect_same;

const sim::SimDuration kTick = sim::SimDuration::milliseconds(5);

struct TimedReport {
  telemetry::ProbeReport report;
  sim::SimTime at;
};

/// A random probe: hosts 0..3 at the ends, 1-5 distinct switches drawn
/// from [10, 10 + switches), some entries damaged (invalid device id),
/// some links unmeasured, random ports (so links re-learn their egress
/// port) and small register values (so samples tie).
telemetry::ProbeReport random_report(sim::Rng& rng, std::int32_t switches) {
  telemetry::ProbeReport r;
  r.src = NodeId{static_cast<std::int32_t>(rng.uniform_int(0, 3))};
  r.dst = NodeId{static_cast<std::int32_t>(rng.uniform_int(0, 3))};
  const auto delay = [&rng] {
    return rng.chance(0.15) ? sim::SimDuration::nanos(-1)
                            : sim::SimDuration::microseconds(
                                  rng.uniform_int(0, 5'000));
  };
  std::vector<std::int32_t> devices;
  const std::int64_t hops = rng.uniform_int(1, 5);
  while (static_cast<std::int64_t>(devices.size()) < hops) {
    const auto d = static_cast<std::int32_t>(10 + rng.index(switches));
    if (std::find(devices.begin(), devices.end(), d) == devices.end()) {
      devices.push_back(d);
    }
  }
  for (const std::int32_t d : devices) {
    net::IntStackEntry e;
    e.device = rng.chance(0.08) ? kInvalidNode : NodeId{d};
    e.ingress_port = static_cast<std::int32_t>(rng.uniform_int(0, 3));
    e.egress_port = static_cast<std::int32_t>(rng.uniform_int(0, 3));
    e.ingress_link_latency = delay();
    e.max_queue_pkts = rng.uniform_int(0, 6);
    e.device_max_queue_pkts = rng.uniform_int(0, 6);
    e.device_avg_queue_x100 = rng.uniform_int(0, 600);
    e.max_hop_latency = sim::SimDuration::microseconds(rng.uniform_int(0, 6));
    r.entries.push_back(e);
  }
  r.final_link_latency = delay();
  return r;
}

/// `count` reports on a 5 ms grid advancing 0-2 ticks a report, ~10%
/// stragglers that reuse an earlier grid point.
std::vector<TimedReport> random_stream(sim::Rng& rng, std::size_t count,
                                       std::int64_t& ticks,
                                       std::int32_t switches) {
  std::vector<TimedReport> out;
  for (std::size_t i = 0; i < count; ++i) {
    ticks += rng.uniform_int(0, 2);
    const std::int64_t t =
        rng.chance(0.1) ? rng.uniform_int(0, ticks) : ticks;
    out.push_back({random_report(rng, switches),
                   sim::SimTime::zero() + kTick * t});
  }
  return out;
}

/// Strictly falling values at rising times on switch 10's registers: its
/// series (already in the prefix) outgrow their first pool range and move.
std::vector<TimedReport> staircase(std::int64_t& ticks) {
  std::vector<TimedReport> out;
  for (std::int64_t v = 60; v > 0; v -= 10) {
    telemetry::ProbeReport r;
    r.src = NodeId{0};
    r.dst = NodeId{1};
    net::IntStackEntry e;
    e.device = NodeId{10};
    e.ingress_port = 0;
    e.egress_port = 1;
    e.ingress_link_latency = sim::SimDuration::microseconds(100);
    e.max_queue_pkts = v;
    e.device_max_queue_pkts = v;
    e.device_avg_queue_x100 = v * 100;
    e.max_hop_latency = sim::SimDuration::microseconds(v);
    r.entries.push_back(e);
    r.final_link_latency = sim::SimDuration::microseconds(100);
    out.push_back({r, sim::SimTime::zero() + kTick * ++ticks});
  }
  return out;
}

void feed(NetworkMap& map, const std::vector<TimedReport>& stream) {
  for (const TimedReport& r : stream) map.ingest(r.report, r.at);
}

/// One ingest, and so one publish, per report.
void feed(ShardedNetworkMap& map, const std::vector<TimedReport>& stream) {
  for (const TimedReport& r : stream) map.ingest(r.report, r.at);
}

/// Node ids the queries range over: both hosts and switches of the
/// stream, one id no report names, and kInvalidNode.
std::vector<NodeId> query_nodes() {
  std::vector<NodeId> nodes{kInvalidNode};
  for (std::int32_t n = 0; n < 4; ++n) nodes.push_back(NodeId{n});
  for (std::int32_t n = 10; n < 30; ++n) nodes.push_back(NodeId{n});
  nodes.push_back(NodeId{99});
  return nodes;
}

/// Every query the flat store answers over query_nodes() at `times`.
std::vector<Answer> answers(const NetworkMap& map,
                            const std::vector<sim::SimTime>& times) {
  return map_answers::answers(map, query_nodes(), times);
}

/// The catalog's handles, resolved the way PlaneCatalog::compile resolves
/// them: three device series per query node, and per learned link slot
/// its port series, `from`'s device register and the reverse link's
/// delay record (the link's own record is its slot).
struct Handles {
  std::vector<SeriesSlot> device;  ///< 3 per query node, statistic order
  std::vector<LinkKey> links;
  std::vector<SeriesSlot> port;
  std::vector<SeriesSlot> fallback;
  std::vector<LinkSlot> rev;
};

Handles resolve(const NetworkMap& map) {
  Handles h;
  for (const NodeId d : query_nodes()) {
    h.device.push_back(map.find_device_queue(d));
    h.device.push_back(map.find_device_avg_queue(d));
    h.device.push_back(map.find_device_hop_latency(d));
  }
  h.links = map.links();
  LinkSlot l{0};
  for (const LinkKey& k : h.links) {
    h.port.push_back(map.plane_link_port_series(l));
    h.fallback.push_back(map.find_device_queue(k.from));
    h.rev.push_back(map.find_link(k.to, k.from));
    ++l;
  }
  return h;
}

/// The catalog-resolved window maxima and staleness bits, evaluated the
/// way the plane gather evaluates them.
std::vector<Answer> evaluate(const NetworkMap& map, const Handles& h,
                             const std::vector<sim::SimTime>& times) {
  std::vector<Answer> out;
  for (std::size_t t = 0; t < times.size(); ++t) {
    const sim::SimTime now = times[t];
    for (std::size_t i = 0; i < h.device.size(); ++i) {
      out.emplace_back(20, static_cast<std::int32_t>(i), 0, t,
                       map.window_max_of(h.device[i], now));
    }
    for (std::size_t l = 0; l < h.links.size(); ++l) {
      const std::int64_t q = map.port_series_fresh(h.port[l], now)
                                 ? map.window_max_of(h.port[l], now)
                                 : map.window_max_of(h.fallback[l], now);
      out.emplace_back(21, h.links[l].from.value(), h.links[l].to.value(), t,
                       q);
      const LinkSlot fwd{static_cast<std::int32_t>(l)};
      out.emplace_back(22, h.links[l].from.value(), h.links[l].to.value(), t,
                       map.records_stale(fwd, h.rev[l], now) ? 1 : 0);
    }
  }
  return out;
}

TEST(FlatStoreProperty, SnapshotIsIndependentOfLaterIngest) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE(seed);
    sim::Rng rng{seed};
    NetworkMapConfig cfg;
    cfg.queue_window = kTick * 6;
    cfg.link_staleness = kTick * 8;
    std::int64_t ticks = 0;
    // The prefix knows switches 10..21; the suffix adds 22..29.
    const std::vector<TimedReport> prefix =
        random_stream(rng, 500, ticks, 12);
    const sim::SimTime high_water = sim::SimTime::zero() + kTick * ticks;
    std::vector<TimedReport> suffix = staircase(ticks);
    const std::vector<TimedReport> more = random_stream(rng, 1'000, ticks, 20);
    suffix.insert(suffix.end(), more.begin(), more.end());
    // A copy of the view's map fed its own stream: the live map must not
    // see that either.
    std::int64_t other_ticks = ticks;
    const std::vector<TimedReport> other =
        random_stream(rng, 1'000, other_ticks, 20);

    const std::vector<sim::SimTime> times{
        high_water - kTick * 4, high_water, high_water + kTick * 3,
        high_water + kTick * 12};

    // Every report id lies in [0, 30): one region holds every link.
    ShardedNetworkMap source{
        RegionAssignment{std::vector<RegionId>(30, RegionId{0}), RegionId{1}},
        ShardedMapConfig{.map = cfg}};
    feed(source, prefix);
    const std::shared_ptr<const MetroView> view = source.view();
    const NetworkMap& snap = view->map();
    const net::Graph& snap_graph =
        view->region_snapshot(RegionId{0}).delay_graph();
    NetworkMap copy = snap;
    const std::vector<Answer> before = answers(snap, times);
    const std::vector<Answer> frozen_graph = edges(snap_graph);
    expect_same(frozen_graph, edges(snap.delay_graph()),
                "the one region's graph is the map's delay graph");
    const Handles handles = resolve(snap);
    const std::vector<Answer> resolved_before = evaluate(snap, handles, times);

    feed(source, suffix);
    feed(copy, other);

    expect_same(answers(snap, times), before, "view's map after ingest");
    expect_same(evaluate(snap, handles, times), resolved_before,
                "view's handles after ingest");
    expect_same(edges(snap_graph), frozen_graph,
                "view's frozen region graph");

    NetworkMap fresh{cfg};
    feed(fresh, prefix);
    expect_same(answers(fresh, times), before, "fresh map over the prefix");
    expect_same(evaluate(fresh, resolve(fresh), times), resolved_before,
                "fresh map's handles");

    NetworkMap replay{cfg};
    feed(replay, prefix);
    feed(replay, suffix);
    const std::shared_ptr<const MetroView> latest = source.view();
    expect_same(answers(latest->map(), times), answers(replay, times),
                "live map after a copy ingested another stream");

    // Append-only slots: the live map, after 1,000+ more reports, resolves
    // every key the older view knows to the older view's slot.
    const Handles later = resolve(latest->map());
    ASSERT_GT(later.links.size(), handles.links.size());
    for (std::size_t i = 0; i < handles.device.size(); ++i) {
      if (handles.device[i].valid()) {
        EXPECT_EQ(later.device[i], handles.device[i]) << "device series " << i;
      }
    }
    for (std::size_t l = 0; l < handles.links.size(); ++l) {
      EXPECT_EQ(later.links[l], handles.links[l]) << "link " << l;
      EXPECT_EQ(latest->map()
                    .find_link(handles.links[l].from, handles.links[l].to)
                    .index(),
                l)
          << "link " << l;
      EXPECT_EQ(later.fallback[l], handles.fallback[l]) << "link " << l;
    }
  }
}

}  // namespace
}  // namespace intsched::core
