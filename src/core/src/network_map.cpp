#include "intsched/core/network_map.hpp"

#include <algorithm>
#include <limits>

#include "intsched/sim/audit.hpp"

namespace intsched::core {

sim::SimTime NetworkMap::window_cutoff(sim::SimTime now,
                                       sim::SimDuration window) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t n = now.ns();
  const std::int64_t w = window.ns();
  // n - w would underflow when w > n - kMin; saturate to "everything is
  // fresh" instead. Windows are non-negative, so overflow upward is
  // impossible.
  if (w > 0 && n < kMin + w) return sim::SimTime::nanoseconds(kMin);
  return sim::SimTime::nanoseconds(n - w);
}

NetworkMap::Node& NetworkMap::node_slot(core::NodeId n) {
  const auto fresh = static_cast<std::int32_t>(nodes_.size());
  const std::int32_t s = node_index_.find_or_insert(
      node_key(n), fresh, [this](std::int32_t i) { return node_key_at(i); });
  if (s == fresh) nodes_.push_back(Node{n});
  return nodes_[static_cast<std::size_t>(s)];
}

NetworkMap::SeriesSlot NetworkMap::add_series(std::int32_t count) {
  const SeriesSlot first{static_cast<std::int32_t>(series_.size())};
  for (std::int32_t i = 0; i < count; ++i) {
    series_.push_back(Series{static_cast<std::uint32_t>(pool_.size()), 0,
                             kInitialSeriesCapacity});
    pool_.resize(pool_.size() + kInitialSeriesCapacity);
  }
  return first;
}

void NetworkMap::learn_link(core::NodeId from, core::NodeId to,
                            std::int32_t out_port,
                            sim::SimDuration delay_sample, sim::SimTime now) {
  // A report without a valid source or destination names no device at
  // that end, so there is no link to learn.
  if (!from.valid() || !to.valid()) return;
  const bool have_sample = delay_sample >= sim::SimDuration::zero();
  const auto fresh = static_cast<std::int32_t>(link_keys_.size());
  const std::int32_t l = link_index_.find_or_insert(
      pair_key(from.value(), to.value()), fresh,
      [this](std::int32_t i) { return link_key_at(i); });

  if (l == fresh) {
    link_keys_.push_back(LinkKey{from, to});
    link_delays_.push_back(DelayEstimate{
        have_sample ? delay_sample : cfg_.default_link_delay,
        sim::SimDuration::zero(), now, have_sample});
    link_ports_.push_back(out_port >= 0 ? out_port : -1);
    node_slot(from).linked = true;
    node_slot(to).linked = true;
    return;
  }

  const auto slot = static_cast<std::size_t>(l);
  if (out_port >= 0) link_ports_[slot] = out_port;
  if (have_sample) {
    DelayEstimate& est = link_delays_[slot];
    est.measured_at = std::max(est.measured_at, now);
    if (!est.measured) {
      est.value = delay_sample;
      est.jitter = sim::SimDuration::zero();
      est.measured = true;
      return;
    }
    const double alpha = cfg_.link_delay_alpha;
    const auto deviation = delay_sample > est.value
                               ? delay_sample - est.value
                               : est.value - delay_sample;
    est.jitter = sim::SimDuration::nanos(static_cast<std::int64_t>(
        alpha * static_cast<double>(deviation.ns()) +
        (1.0 - alpha) * static_cast<double>(est.jitter.ns())));
    const double blended =
        alpha * static_cast<double>(delay_sample.ns()) +
        (1.0 - alpha) * static_cast<double>(est.value.ns());
    est.value = sim::SimDuration::nanos(static_cast<std::int64_t>(blended));
  }
}

void NetworkMap::record_queue(SeriesSlot slot, sim::SimTime now,
                              std::int64_t value) {
  // The series is a monotonic max-queue: times strictly ascend, values
  // strictly descend, and every sample is the window max from its own
  // timestamp until the next sample's. max_in_window is then a front read
  // instead of a full scan; the invariant is maintained here, at ingest.
  Series& s = series_[slot.index()];
  Sample* d = pool_.data() + s.begin;
  const sim::SimTime cutoff = window_cutoff(now, cfg_.queue_window);
  std::uint32_t expired = 0;
  while (expired < s.size && d[expired].at < cutoff) ++expired;
  if (expired > 0) {
    std::copy(d + expired, d + s.size, d);
    s.size -= expired;
  }

  // Ingest accepts late stragglers, so find the time-ordered insertion
  // point from the back (O(1) for in-order arrivals), and the first sample
  // at the same time or later.
  std::uint32_t insert_at = s.size;
  while (insert_at > 0 && d[insert_at - 1].at > now) --insert_at;
  std::uint32_t same_or_later = insert_at;
  while (same_or_later > 0 && d[same_or_later - 1].at == now) {
    --same_or_later;
  }
  // That sample carries the largest value from `now` on; if it is at
  // least as large, the new sample can never be a window max.
  if (same_or_later < s.size && d[same_or_later].value >= value) return;
  // Conversely, older or same-time samples no larger than the new one
  // expire no later while never exceeding it — drop them. Same-time
  // samples are all smaller here, so times stay strictly ascending.
  std::uint32_t keep = insert_at;
  while (keep > 0 && d[keep - 1].value <= value) --keep;

  const std::uint32_t tail = s.size - insert_at;
  if (keep == insert_at && s.size == s.capacity) {
    // Full: move to a range twice as large at the end of the pool.
    const auto moved = static_cast<std::uint32_t>(pool_.size());
    pool_.resize(pool_.size() + 2 * std::size_t{s.capacity});
    d = pool_.data() + s.begin;
    Sample* to = pool_.data() + moved;
    std::copy(d, d + keep, to);
    std::copy(d + insert_at, d + s.size, to + keep + 1);
    d = to;
    s.begin = moved;
    s.capacity *= 2;
  } else if (keep == insert_at) {
    std::copy_backward(d + insert_at, d + s.size, d + s.size + 1);
  } else if (keep + 1 < insert_at) {
    std::copy(d + insert_at, d + s.size, d + keep + 1);
  }
  d[keep] = Sample{now, value};
  s.size = keep + 1 + tail;
}

void NetworkMap::record_entry_telemetry(const net::IntStackEntry& e,
                                        sim::SimTime now) {
  // Congestion state. Register values are occupancy counts; negative
  // values can only come from corruption, clamp so the max logic and
  // bandwidth estimator never see them.
  const auto fresh = static_cast<std::int32_t>(series_.size());
  const SeriesSlot port{port_index_.find_or_insert(
      pair_key(e.device.value(), e.egress_port), fresh,
      [this](std::int32_t i) { return port_key_at(i); })};
  if (port.value() == fresh) {
    add_series(1);
    series_.back().device = e.device;
    series_.back().port = e.egress_port;
  }
  record_queue(port, now, std::max<std::int64_t>(0, e.max_queue_pkts));

  Node& node = node_slot(e.device);
  if (!node.device_series.valid()) {
    node.device_series = add_series(kDeviceStats);
  }
  const std::int32_t dev = node.device_series.value();
  record_queue(SeriesSlot{dev + kMaxQueueStat}, now,
               std::max<std::int64_t>(0, e.device_max_queue_pkts));
  record_queue(SeriesSlot{dev + kAvgQueueStat}, now,
               std::max<std::int64_t>(0, e.device_avg_queue_x100));
  record_queue(SeriesSlot{dev + kHopLatencyStat}, now,
               std::max<std::int64_t>(0, e.max_hop_latency.ns()));
}

void NetworkMap::finish_ingest(sim::SimTime now) {
  ++reports_;
#if INTSCHED_AUDIT_ENABLED
  audit_ingest_hw_ = std::max(audit_ingest_hw_, now);
  // Amortized schedule (see audit_invariants' docs): every report while
  // the map is Fig.-4 sized, every kAuditSparsePeriod-th beyond that, so
  // the audit preset stays usable on TopologyGen-scale maps.
  if (known_link_count() <= kAuditFullWalkMaxLinks ||
      reports_ % kAuditSparsePeriod == 0) {
    audit_invariants(audit_ingest_hw_);
  }
#else
  (void)now;
#endif
}

void NetworkMap::ingest(const telemetry::ProbeReport& report,
                        sim::SimTime now) {
  const auto& entries = report.entries;

  // Track the previous *accepted* entry so a rejected one in the middle of
  // the stack does not fabricate an edge across the gap from a bogus id.
  core::NodeId upstream = report.src;
  std::int32_t upstream_port = 0;

  for (const auto& e : entries) {
    // Sanity: a damaged stack entry (truncated / corrupted probe) must not
    // poison the topology with an invalid node. Skip it but keep the rest.
    if (!e.device.valid()) {
      note_rejected_entry();
      continue;
    }

    // Adjacency + link delay. Entry i's ingress link comes from the
    // previous device in the stack (or the probing host for i == 0).
    learn_link(upstream, e.device, upstream_port, e.ingress_link_latency,
               now);
    // The reverse direction's egress port is this entry's ingress port;
    // delay is assumed symmetric but we do not overwrite a measured value
    // with the sample (pass no sample).
    learn_link(e.device, upstream, e.ingress_port,
               sim::SimDuration::nanos(-1), now);

    record_entry_telemetry(e, now);

    upstream = e.device;
    upstream_port = e.egress_port;
  }

  // Final hop: last accepted switch -> collector host.
  if (upstream != report.src) {
    learn_link(upstream, report.dst, upstream_port,
               report.final_link_latency, now);
    learn_link(report.dst, upstream, 0, sim::SimDuration::nanos(-1), now);
  }

  finish_ingest(now);
}

#if INTSCHED_AUDIT_ENABLED
void NetworkMap::audit_invariants(sim::SimTime high_water) const {
  for (std::size_t l = 0; l < link_keys_.size(); ++l) {
    const LinkKey& key = link_keys_[l];
    const DelayEstimate& est = link_delays_[l];
    INTSCHED_AUDIT_ASSERT(key.from.valid() && key.to.valid(),
                          "NetworkMap learned a link with an invalid endpoint");
    INTSCHED_AUDIT_ASSERT(key.from != key.to,
                          "NetworkMap learned a self-loop link");
    INTSCHED_AUDIT_ASSERT(
        knows_node(key.from) && knows_node(key.to),
        "link table references a node missing from the inferred graph");
    INTSCHED_AUDIT_ASSERT(find_link(key.from, key.to).index() == l,
                          "link index disagrees with the link table");
    INTSCHED_AUDIT_ASSERT(
        !est.measured || est.measured_at <= high_water,
        "link freshness stamp postdates every ingest seen");
    INTSCHED_AUDIT_ASSERT(est.jitter >= sim::SimDuration::zero(),
                          "negative jitter estimate");
    INTSCHED_AUDIT_ASSERT(link_ports_[l] >= -1,
                          "learned egress port is negative");
  }
  // Each series is a monotonic max-queue (see record_queue) inside its own
  // pool range: times strictly ascend, values strictly descend, no sample
  // postdates the newest ingest, and values are sane.
  for (const Series& series : series_) {
    INTSCHED_AUDIT_ASSERT(
        series.size <= series.capacity &&
            std::size_t{series.begin} + series.capacity <= pool_.size(),
        "series range overruns the sample pool");
    for (std::uint32_t i = 0; i < series.size; ++i) {
      const Sample& sample = pool_[series.begin + i];
      INTSCHED_AUDIT_ASSERT(
          sample.at <= high_water,
          "telemetry sample postdates every ingest seen");
      INTSCHED_AUDIT_ASSERT(sample.value >= 0,
                            "negative queue-occupancy sample");
      if (i > 0) {
        const Sample& prev = pool_[series.begin + i - 1];
        INTSCHED_AUDIT_ASSERT(prev.at < sample.at,
                              "max-queue times must strictly increase");
        INTSCHED_AUDIT_ASSERT(prev.value > sample.value,
                              "max-queue values must strictly decrease");
      }
    }
  }
}
#endif

bool NetworkMap::records_stale(LinkSlot fwd, LinkSlot rev,
                               sim::SimTime now) const {
  if (cfg_.link_staleness <= sim::SimDuration::zero()) return false;
  const sim::SimTime cutoff = window_cutoff(now, cfg_.link_staleness);
  if (fwd.valid() && link_delays_[fwd.index()].measured) {
    return link_delays_[fwd.index()].measured_at < cutoff;
  }
  if (rev.valid() && link_delays_[rev.index()].measured) {
    return link_delays_[rev.index()].measured_at < cutoff;
  }
  return true;  // never measured in either direction
}

bool NetworkMap::path_stale(const std::vector<core::NodeId>& path,
                            sim::SimTime now) const {
  if (cfg_.link_staleness <= sim::SimDuration::zero()) return false;
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (link_stale(path[i - 1], path[i], now)) return true;
  }
  return false;
}

sim::SimDuration NetworkMap::link_jitter(core::NodeId from,
                                         core::NodeId to) const {
  const LinkSlot fwd = find_link(from, to);
  if (fwd.valid() && link_delays_[fwd.index()].measured) {
    return link_delays_[fwd.index()].jitter;
  }
  const LinkSlot rev = find_link(to, from);
  if (rev.valid() && link_delays_[rev.index()].measured) {
    return link_delays_[rev.index()].jitter;
  }
  return sim::SimDuration::zero();
}

net::Graph NetworkMap::delay_graph() const {
  std::vector<LinkSlot> all;
  all.reserve(link_keys_.size());
  for (std::size_t l = 0; l < link_keys_.size(); ++l) {
    all.emplace_back(static_cast<std::int32_t>(l));
  }
  return net::Graph{delay_arcs(std::move(all))};
}

std::vector<net::Graph::Arc> NetworkMap::delay_arcs(
    std::vector<LinkSlot> links) const {
  // The arcs feed Dijkstra and, through it, candidate rankings. Emit them
  // sorted by (from, to), so the graph's edges are identical whatever
  // order the probe stream taught them in.
  std::sort(links.begin(), links.end(), [this](LinkSlot a, LinkSlot b) {
    const LinkKey& x = link_keys_[a.index()];
    const LinkKey& y = link_keys_[b.index()];
    return x.from != y.from ? x.from < y.from : x.to < y.to;
  });
  std::vector<net::Graph::Arc> arcs;
  arcs.reserve(links.size());
  for (const LinkSlot l : links) {
    const LinkKey& key = link_keys_[l.index()];
    arcs.push_back(net::Graph::Arc{key.from, key.to, link_ports_[l.index()],
                                   link_delay(key.from, key.to)});
  }
  return arcs;
}

sim::SimDuration NetworkMap::link_delay(core::NodeId from,
                                        core::NodeId to) const {
  const LinkSlot fwd = find_link(from, to);
  if (fwd.valid() && link_delays_[fwd.index()].measured) {
    return link_delays_[fwd.index()].value;
  }
  // Never measured in this direction: assume symmetry with the reverse.
  const LinkSlot rev = find_link(to, from);
  if (rev.valid() && link_delays_[rev.index()].measured) {
    return link_delays_[rev.index()].value;
  }
  if (fwd.valid()) return link_delays_[fwd.index()].value;
  if (rev.valid()) return link_delays_[rev.index()].value;
  return cfg_.default_link_delay;
}

std::int64_t NetworkMap::link_max_queue(core::NodeId from, core::NodeId to,
                                        sim::SimTime now) const {
  const SeriesSlot port = plane_link_port_series(find_link(from, to));
  if (port_series_fresh(port, now)) return window_max_of(port, now);
  // Port never probed (or stale): fall back to the device-wide register,
  // a conservative over-approximation.
  return device_max_queue(from, now);
}

}  // namespace intsched::core
