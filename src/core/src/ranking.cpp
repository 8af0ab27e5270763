#include "intsched/core/ranking.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace intsched::core {

const char* to_string(RankingMetric metric) {
  switch (metric) {
    case RankingMetric::kDelay: return "delay";
    case RankingMetric::kBandwidth: return "bandwidth";
  }
  return "?";
}

QueueToUtilization::QueueToUtilization()
    : QueueToUtilization(std::vector<Point>{
          // Inverse of the measured Fig.-3 curve (bench/fig3_queue_vs_util):
          // avg window-max queue of ~4 packets appears near 50% load,
          // ~10 near 70%, ~17 near 80%, hundreds at saturation.
          {0.0, 0.00},
          {1.0, 0.25},
          {2.0, 0.35},
          {4.0, 0.50},
          {7.0, 0.62},
          {10.0, 0.70},
          {17.0, 0.80},
          {40.0, 0.86},
          {100.0, 0.90},
          {200.0, 0.94},
          {512.0, 1.00},
      }) {}

QueueToUtilization::QueueToUtilization(std::vector<Point> points)
    : points_{std::move(points)} {
  if (points_.empty()) {
    throw std::invalid_argument("QueueToUtilization: empty table");
  }
  if (!std::is_sorted(points_.begin(), points_.end(),
                      [](const Point& a, const Point& b) {
                        return a.max_queue_pkts < b.max_queue_pkts;
                      })) {
    throw std::invalid_argument("QueueToUtilization: table must be sorted");
  }
  segments_.reserve(points_.size() > 0 ? points_.size() - 1 : 0);
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const Point& lo = points_[i - 1];
    const Point& hi = points_[i];
    Segment seg;
    seg.lo_x = lo.max_queue_pkts;
    seg.lo_u = lo.utilization;
    seg.hi_x = hi.max_queue_pkts;
    seg.dx = hi.max_queue_pkts - lo.max_queue_pkts;
    seg.du = hi.utilization - lo.utilization;
    segments_.push_back(seg);
  }
}

double QueueToUtilization::utilization(std::int64_t max_queue_pkts) const {
  const auto q = static_cast<double>(max_queue_pkts);
  if (q <= points_.front().max_queue_pkts) {
    return points_.front().utilization;
  }
  if (q >= points_.back().max_queue_pkts) {
    return points_.back().utilization;
  }
  // First segment with hi_x >= q: identical pick to the old linear scan's
  // first `q <= points_[i].max_queue_pkts`, found in O(log n). dx/du are
  // the same subtraction results the scan computed per call, so the lerp
  // below is arithmetically unchanged.
  const auto it = std::lower_bound(
      segments_.begin(), segments_.end(), q,
      [](const Segment& s, double key) { return s.hi_x < key; });
  const Segment& seg = *it;
  const double t = (q - seg.lo_x) / seg.dx;
  return seg.lo_u + t * seg.du;
}

sim::SimDuration estimate_k_factor(
    const std::vector<KCalibrationSample>& samples) {
  double qq = 0.0;
  double qd = 0.0;
  for (const KCalibrationSample& s : samples) {
    qq += s.max_queue_pkts * s.max_queue_pkts;
    qd += s.max_queue_pkts * s.extra_delay_ms;
  }
  if (qq <= 0.0 || qd <= 0.0) {
    return sim::SimDuration::millis(20);  // paper default: no signal
  }
  return sim::SimDuration::from_seconds(qd / qq * 1e-3);
}

sim::SimDuration estimate_path_delay(const NetworkMap& map,
                                     const RankerConfig& cfg,
                                     const std::vector<core::NodeId>& path,
                                     sim::SimTime now) {
  assert(path.size() >= 2);
  sim::SimDuration total_link_delay = sim::SimDuration::zero();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    total_link_delay += map.link_delay(path[i], path[i + 1]);
  }
  // Hops are the intermediate devices (switches) on the path.
  sim::SimDuration total_hop_delay = sim::SimDuration::zero();
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    switch (cfg.queue_statistic) {
      case QueueStatistic::kMaximum:
        total_hop_delay += cfg.k_factor * map.device_max_queue(path[i], now);
        break;
      case QueueStatistic::kAverage:
        total_hop_delay +=
            sim::SimDuration::nanos(static_cast<std::int64_t>(
                static_cast<double>(cfg.k_factor.ns()) *
                map.device_avg_queue(path[i], now)));
        break;
      case QueueStatistic::kMeasuredHopLatency:
        total_hop_delay += map.device_hop_latency(path[i], now);
        break;
    }
  }
  return total_link_delay + total_hop_delay;
}

sim::DataRate estimate_path_bandwidth(const NetworkMap& map,
                                      const RankerConfig& cfg,
                                      const std::vector<core::NodeId>& path,
                                      sim::SimTime now) {
  assert(path.size() >= 2);
  const double nominal = map.config().nominal_capacity.bps();
  double min_bps = nominal;
  // The first link is the origin host's own uplink; hosts are not
  // pps-bound, so per-link availability is charged from the first switch
  // onward (each directed link's headroom is its upstream device's egress).
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    const std::int64_t q = map.link_max_queue(path[i], path[i + 1], now);
    const double util = cfg.queue_to_utilization.utilization(q);
    const double avail = nominal * (1.0 - util);
    min_bps = std::min(min_bps, avail);
  }
  return sim::DataRate::bits_per_second(min_bps);
}

std::vector<ServerRank> rank_candidates(
    const NetworkMap& map, const RankerConfig& cfg,
    const net::ShortestPaths& sp, const std::vector<core::NodeId>& candidates,
    RankingMetric metric, sim::SimTime now) {
  std::vector<ServerRank> out;
  out.reserve(candidates.size());
  for (const core::NodeId server : candidates) {
    ServerRank r;
    r.server = server;
    const std::vector<core::NodeId> path = sp.path_to(server);
    if (path.size() < 2) {
      r.delay_estimate = sim::SimDuration::max();
      r.baseline_delay = sim::SimDuration::max();
    } else {
      r.delay_estimate = estimate_path_delay(map, cfg, path, now);
      r.bandwidth_estimate = estimate_path_bandwidth(map, cfg, path, now);
      r.baseline_delay = sp.distance_to(server);
      r.stale = map.path_stale(path, now);
    }
    out.push_back(r);
  }

  if (metric == RankingMetric::kDelay) {
    std::sort(out.begin(), out.end(),
              [](const ServerRank& a, const ServerRank& b) {
                if (a.delay_estimate != b.delay_estimate) {
                  return a.delay_estimate < b.delay_estimate;
                }
                return a.server < b.server;
              });
  } else {
    std::sort(out.begin(), out.end(),
              [](const ServerRank& a, const ServerRank& b) {
                if (a.bandwidth_estimate != b.bandwidth_estimate) {
                  return a.bandwidth_estimate > b.bandwidth_estimate;
                }
                return a.server < b.server;
              });
  }
  return out;
}

PlaneCatalog PlaneCatalog::compile(const NetworkMap& map,
                                   QueueStatistic statistic,
                                   std::size_t node_span) {
  PlaneCatalog c;
  c.dev_series.resize(node_span);
  core::NodeId d{0};
  for (NetworkMap::SeriesSlot& series : c.dev_series) {
    switch (statistic) {
      case QueueStatistic::kMaximum:
        series = map.find_device_queue(d);
        break;
      case QueueStatistic::kAverage:
        series = map.find_device_avg_queue(d);
        break;
      case QueueStatistic::kMeasuredHopLatency:
        series = map.find_device_hop_latency(d);
        break;
    }
    ++d;
  }
  c.link_refs.reserve(map.links().size());
  NetworkMap::LinkSlot l{0};
  for (const LinkKey& k : map.links()) {
    c.link_refs.push_back(LinkRef{map.plane_link_port_series(l),
                                  map.find_device_queue(k.from),
                                  map.find_link(k.to, k.from)});
    ++l;
  }
  return c;
}

std::vector<ServerRank> Ranker::rank(
    core::NodeId origin, const std::vector<core::NodeId>& candidates,
    RankingMetric metric, sim::SimTime now) const {
  const net::Graph graph = map_->delay_graph();
  return rank_candidates(*map_, cfg_, net::dijkstra(graph, origin),
                         candidates, metric, now);
}

}  // namespace intsched::core
