#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "intsched/core/contracts.hpp"
#include "intsched/core/types.hpp"
#include "intsched/net/routing.hpp"
#include "intsched/sim/audit.hpp"
#include "intsched/sim/units.hpp"
#include "intsched/telemetry/collector.hpp"

namespace intsched::core {

/// Directed link key (learned from probe traversal order).
struct LinkKey {
  core::NodeId from = core::kInvalidNode;
  core::NodeId to = core::kInvalidNode;
  friend constexpr bool operator==(const LinkKey&, const LinkKey&) = default;
};

struct NetworkMapConfig {
  /// Nominal per-hop capacity assumed by the bandwidth estimator. The
  /// paper's effective BMv2 rate.
  sim::DataRate nominal_capacity = sim::DataRate::megabits_per_second(20.0);
  /// Window over which max-queue reports are aggregated ("maximum observed
  /// queue size in the last probing interval"). Reports older than this
  /// are considered stale and ignored.
  sim::SimDuration queue_window = sim::SimDuration::millis(150);
  /// EWMA weight for new link-latency samples.
  double link_delay_alpha = 0.25;
  /// Used for links never measured (e.g. reverse direction of a host
  /// access link before symmetry kicks in).
  sim::SimDuration default_link_delay = sim::SimDuration::millis(10);
  /// A link whose latest measurement is older than this is *stale*: its
  /// delay estimate is still served (last known good) but link_stale /
  /// path_stale report it so rankers can deprioritize or fall back.
  /// Zero (the default) disables staleness tracking entirely — the seed's
  /// behaviour, where estimates never expire.
  sim::SimDuration link_staleness = sim::SimDuration::zero();
};

/// The scheduler's model of the network, built *exclusively* from INT probe
/// reports (paper §III-B): adjacency from the order of INT stack entries,
/// link delays from egress-timestamp differences, congestion from
/// collect-and-reset max-queue registers.
///
/// Storage is a handful of flat, slot-addressed tables (DESIGN.md §8):
/// node slots, a link table in learn order, and one sample pool holding
/// every queue series, each found through an open-addressed index. Slots
/// are append-only, so copying the map — every publish does — is one
/// vector copy per table, and a slot resolved once names the same node,
/// link or series in every later state and every copy.
///
/// Threading: thread-confined, no internal locking — ingest mutates every
/// table. When probe ingest and ranking queries run on different threads
/// (the deployment shape), use core::ShardedNetworkMap instead of sharing
/// it directly — one region for a flat map (DESIGN.md Concurrency model).
class NetworkMap {
 public:
  /// Resolved telemetry handles (compiled rank planes, DESIGN.md §15): the
  /// slot of one queue series or of one learned directed link, invalid()
  /// when there is none. The plane compiler resolves them once per view
  /// and replays the window queries through the evaluators below.
  using SeriesSlot = TaggedId<struct SeriesSlotTag>;
  using LinkSlot = TaggedId<struct LinkSlotTag>;

  explicit NetworkMap(NetworkMapConfig config = {}) : cfg_{config} {}

  /// Ingests one parsed probe. `now` is the scheduler-local arrival time.
  void ingest(const telemetry::ProbeReport& report, sim::SimTime now);

  // -- topology queries --

  /// Every learned directed link, in learn order: LinkSlot{i} is
  /// links()[i], and both its ends are valid ids. Hosts appear once a
  /// probe from/to them has been seen.
  [[nodiscard]] const std::vector<LinkKey>& links() const {
    return link_keys_;
  }

  /// Graph of the learned links, sorted by (from, to), with up-to-date
  /// link-delay costs on every edge — what the rankers run Dijkstra over.
  [[nodiscard]] net::Graph delay_graph() const;

  /// delay_graph()'s arcs for the given links only: sorted by (from, to),
  /// each costed by link_delay and ported by egress_port. A region's
  /// graph is built from its links alone, so a publish never sorts the
  /// whole link table.
  [[nodiscard]] std::vector<net::Graph::Arc> delay_arcs(
      std::vector<LinkSlot> links) const;

  /// True when `n` is an endpoint of a learned link.
  [[nodiscard]] bool knows_node(core::NodeId n) const {
    const std::int32_t s = find_node(n);
    return s >= 0 && nodes_[static_cast<std::size_t>(s)].linked;
  }
  [[nodiscard]] std::int64_t known_link_count() const {
    return static_cast<std::int64_t>(link_keys_.size());
  }

  /// Estimated one-way delay of a directed link; falls back to the reverse
  /// direction (symmetry), then to the configured default.
  [[nodiscard]] INTSCHED_HOTPATH sim::SimDuration link_delay(
      core::NodeId from, core::NodeId to) const;

  /// Smoothed absolute deviation of the link-delay samples — the "jitter
  /// characteristics" the paper's probes capture (§III-A). Zero until two
  /// measurements exist.
  [[nodiscard]] sim::SimDuration link_jitter(core::NodeId from,
                                             core::NodeId to) const;

  /// Egress port of `from` facing `to`, if learned (-1 otherwise).
  [[nodiscard]] std::int32_t egress_port(core::NodeId from,
                                         core::NodeId to) const {
    const LinkSlot l = find_link(from, to);
    return l.valid() ? link_ports_[l.index()] : -1;
  }

  // -- congestion queries --

  /// Max queue occupancy reported for the device within the freshness
  /// window ending at `now` (Algorithm 1's Q(h_i)). Zero when nothing
  /// fresh was reported — the paper's "assume uncongested" fallback.
  [[nodiscard]] std::int64_t device_max_queue(core::NodeId device,
                                              sim::SimTime now) const {
    return window_max_of(find_device_queue(device), now);
  }

  /// Max queue for the directed link from->to: the per-port register if the
  /// port is known and fresh, otherwise the device-level value of `from`.
  [[nodiscard]] std::int64_t link_max_queue(core::NodeId from, core::NodeId to,
                                            sim::SimTime now) const;

  /// Freshest mean occupancy (packets) reported for the device within the
  /// window — the alternative statistic the paper found inconclusive.
  [[nodiscard]] double device_avg_queue(core::NodeId device,
                                        sim::SimTime now) const {
    return static_cast<double>(
               window_max_of(find_device_avg_queue(device), now)) /
           100.0;
  }

  /// Max directly-measured in-device dwell time within the window — the
  /// hop latency a full INT deployment reports (ablation alternative to
  /// the paper's k * max_queue heuristic).
  [[nodiscard]] INTSCHED_HOTPATH sim::SimDuration device_hop_latency(
      core::NodeId device, sim::SimTime now) const {
    return sim::SimDuration::nanos(
        window_max_of(find_device_hop_latency(device), now));
  }

  // -- resolved telemetry handles (compiled rank planes, DESIGN.md §15) --
  //
  // The plane compiler resolves each distinct device/link to series and
  // link slots once per view; the per-query gather then replays
  // device_max_queue / link_max_queue / link_stale semantics through the
  // evaluators without any index probe. Slots are append-only, so a slot
  // stays valid in this map and in every copy of it, across ingests.

  [[nodiscard]] SeriesSlot find_device_queue(core::NodeId d) const {
    return device_series(d, kMaxQueueStat);
  }
  [[nodiscard]] SeriesSlot find_device_avg_queue(core::NodeId d) const {
    return device_series(d, kAvgQueueStat);
  }
  [[nodiscard]] SeriesSlot find_device_hop_latency(core::NodeId d) const {
    return device_series(d, kHopLatencyStat);
  }
  [[nodiscard]] SeriesSlot find_port_queue(core::NodeId device,
                                           std::int32_t port) const {
    return SeriesSlot{
        port_index_.find(pair_key(device.value(), port),
                         [this](std::int32_t s) { return port_key_at(s); })};
  }
  [[nodiscard]] LinkSlot find_link(core::NodeId from, core::NodeId to) const {
    return LinkSlot{
        link_index_.find(pair_key(from.value(), to.value()),
                         [this](std::int32_t s) { return link_key_at(s); })};
  }

  /// The port series link_max_queue's port branch reads for link `l`, or
  /// invalid when the link or its egress port was never learned (the
  /// branch that falls through to the device register).
  [[nodiscard]] SeriesSlot plane_link_port_series(LinkSlot l) const {
    const std::int32_t p = l.valid() ? link_ports_[l.index()] : -1;
    return p < 0 ? SeriesSlot::invalid()
                 : find_port_queue(link_keys_[l.index()].from, p);
  }

  /// Window max of a resolved series — device_max_queue's evaluation half
  /// (an invalid slot = 0, the "assume uncongested" fallback).
  [[nodiscard]] INTSCHED_HOTPATH std::int64_t window_max_of(
      SeriesSlot s, sim::SimTime now) const {
    return s.valid() ? max_in_window(series_[s.index()],
                                     window_cutoff(now, cfg_.queue_window))
                     : 0;
  }
  /// fresh_port_max_queue's freshness half: true when the series exists
  /// and its newest sample is inside the queue window.
  [[nodiscard]] INTSCHED_HOTPATH bool port_series_fresh(
      SeriesSlot s, sim::SimTime now) const {
    if (!s.valid()) return false;
    const Series& series = series_[s.index()];
    return series.size > 0 &&
           pool_[series.begin + series.size - 1].at >=
               window_cutoff(now, cfg_.queue_window);
  }
  /// link_stale over resolved forward/reverse link slots — including the
  /// disabled-window early-out, so semantics match per owning map.
  [[nodiscard]] INTSCHED_HOTPATH bool records_stale(LinkSlot fwd, LinkSlot rev,
                                                    sim::SimTime now) const;

  // -- staleness queries (all no-ops unless config.link_staleness > 0) --

  /// True when the directed link's telemetry (or its symmetric reverse)
  /// has not been refreshed within the staleness window ending at `now`.
  /// Links that were never measured at all count as stale.
  [[nodiscard]] bool link_stale(core::NodeId from, core::NodeId to,
                                sim::SimTime now) const {
    return records_stale(find_link(from, to), find_link(to, from), now);
  }

  /// True when any hop of the node path is stale.
  [[nodiscard]] bool path_stale(const std::vector<core::NodeId>& path,
                                sim::SimTime now) const;

  [[nodiscard]] const NetworkMapConfig& config() const { return cfg_; }
  [[nodiscard]] std::int64_t reports_ingested() const { return reports_; }
  /// The map's ingest epoch: "state as of the Nth report". Equals
  /// Epoch{reports_ingested()} — the stamp published snapshots carry.
  [[nodiscard]] Epoch ingest_epoch() const { return Epoch{reports_}; }
  /// INT stack entries discarded by ingest sanity checks (invalid device
  /// ids); the report's remaining entries are still used.
  [[nodiscard]] std::int64_t rejected_entries() const { return rejected_; }

 private:
  // ingest() is these steps, in report order.

  /// Learns/updates one directed link: adjacency, egress port (when
  /// `out_port` >= 0), and the delay EWMA (a negative `delay_sample`
  /// means "traversed but unmeasured" — adjacency only). Learns nothing
  /// when either end is invalid, so every learned link joins valid ids.
  void learn_link(core::NodeId from, core::NodeId to, std::int32_t out_port,
                  sim::SimDuration delay_sample, sim::SimTime now);

  /// Records one INT stack entry's congestion telemetry (per-port queue,
  /// device max/avg queue, measured hop latency) for entry.device.
  /// Precondition: entry.device >= 0 (ingest rejects damaged entries).
  void record_entry_telemetry(const net::IntStackEntry& entry,
                              sim::SimTime now);

  /// Counts an entry discarded by ingest's sanity check.
  void note_rejected_entry() { ++rejected_; }

  /// Completes one report's ingest: bumps the epoch and (under
  /// INTSCHED_AUDIT) runs the consistency audit on its amortized
  /// schedule.
  void finish_ingest(sim::SimTime now);

  /// Open-addressed index from a packed 64-bit key to an append-only slot
  /// of the table that holds the keys: one power-of-two array of slot
  /// numbers, linear probing, no erase. It stores no keys — a probe
  /// compares `key` with the table's key at the slot, `key_at(slot)` — so
  /// an entry is 4 bytes. An empty entry is slot -1, not a reserved key,
  /// so every key is storable.
  /// Copying it is one vector copy.
  class SlotIndex {
   public:
    /// The key's slot, or -1 when it was never inserted.
    template <typename KeyAt>
    [[nodiscard]] std::int32_t find(std::uint64_t key, KeyAt key_at) const {
      return slots_.empty() ? -1 : slots_[probe(key, key_at)];
    }
    /// The key's slot; when the key is absent, inserts it as `fresh` and
    /// returns that, and the caller appends slot `fresh` to its table.
    template <typename KeyAt>
    std::int32_t find_or_insert(std::uint64_t key, std::int32_t fresh,
                                KeyAt key_at) {
      // Grow at 70% occupancy: doubling keeps probe sequences short.
      if ((size_ + 1) * 10 > slots_.size() * 7) {
        std::vector<std::int32_t> old = std::move(slots_);
        slots_.assign(std::max<std::size_t>(8, old.size() * 2), -1);
        for (const std::int32_t s : old) {
          if (s >= 0) slots_[probe(key_at(s), key_at)] = s;
        }
      }
      const std::size_t i = probe(key, key_at);
      if (slots_[i] >= 0) return slots_[i];
      slots_[i] = fresh;
      ++size_;
      return fresh;
    }

   private:
    /// The entry holding `key`, else the empty entry ending its probe
    /// sequence. Requires a non-empty array with an empty entry.
    template <typename KeyAt>
    [[nodiscard]] std::size_t probe(std::uint64_t key, KeyAt key_at) const {
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = mix(key) & mask;
      while (slots_[i] >= 0 && key_at(slots_[i]) != key) i = (i + 1) & mask;
      return i;
    }
    /// splitmix64 finalizer: dense sequential ids and packed pairs spread
    /// across the array.
    [[nodiscard]] static std::size_t mix(std::uint64_t h) {
      h ^= h >> 30;
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 27;
      h *= 0x94D049BB133111EBULL;
      h ^= h >> 31;
      return static_cast<std::size_t>(h);
    }
    std::vector<std::int32_t> slots_;  ///< power-of-two size, or empty
    std::size_t size_ = 0;
  };

  /// One (report time, register value) sample of a queue series.
  struct Sample {
    sim::SimTime at = sim::SimTime::zero();
    std::int64_t value = 0;
  };
  /// A series owns pool_[begin, begin + capacity) and keeps its samples at
  /// the front of that range, oldest first, as a monotonic max-queue:
  /// times strictly ascend, values strictly descend (see record_queue).
  /// A series that fills moves to a range twice as large at the pool's
  /// end, so no sample is ever evicted to make room.
  struct Series {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
    /// A port series' (device, egress port), port_index_'s key; device
    /// series leave it unset.
    core::NodeId device = core::kInvalidNode;
    std::int32_t port = -1;
  };
  /// A fresh series' range. With same-time domination the metro's probe
  /// stream (a sweep, then a burst every 100 ms) leaves every series at
  /// one or two samples, so none of them ever moves.
  static constexpr std::uint32_t kInitialSeriesCapacity = 2;

  /// Per-node slot: the node, its device series (three consecutive slots
  /// in statistic order), and whether it is an endpoint of a learned link
  /// (the inferred graph's node set).
  struct Node {
    core::NodeId id = core::kInvalidNode;
    SeriesSlot device_series = SeriesSlot::invalid();
    bool linked = false;
  };
  static constexpr std::int32_t kMaxQueueStat = 0;
  static constexpr std::int32_t kAvgQueueStat = 1;    // x100
  static constexpr std::int32_t kHopLatencyStat = 2;  // ns
  static constexpr std::int32_t kDeviceStats = 3;

  /// Per-link delay/staleness record.
  struct DelayEstimate {
    sim::SimDuration value = sim::SimDuration::zero();
    /// EWMA of |sample - value| over measured samples.
    sim::SimDuration jitter = sim::SimDuration::zero();
    /// Ingest time of the newest real sample; meaningless until measured.
    sim::SimTime measured_at = sim::SimTime::zero();
    /// False while the estimate is only the configured default or a
    /// symmetry guess; measured values always beat unmeasured ones.
    bool measured = false;
  };

  [[nodiscard]] static std::uint64_t node_key(core::NodeId n) {
    return static_cast<std::uint32_t>(n.value());
  }
  /// (from, to) and (device, port) pairs, 32 bits each.
  [[nodiscard]] static std::uint64_t pair_key(std::int32_t a,
                                              std::int32_t b) {
    return (std::uint64_t{static_cast<std::uint32_t>(a)} << 32) |
           static_cast<std::uint32_t>(b);
  }

  // Each table's key at a slot, for its index's probes.
  [[nodiscard]] std::uint64_t node_key_at(std::int32_t s) const {
    return node_key(nodes_[static_cast<std::size_t>(s)].id);
  }
  [[nodiscard]] std::uint64_t link_key_at(std::int32_t s) const {
    const LinkKey& k = link_keys_[static_cast<std::size_t>(s)];
    return pair_key(k.from.value(), k.to.value());
  }
  [[nodiscard]] std::uint64_t port_key_at(std::int32_t s) const {
    const Series& r = series_[static_cast<std::size_t>(s)];
    return pair_key(r.device.value(), r.port);
  }

  /// The node's slot, or -1 when the map never saw it.
  [[nodiscard]] std::int32_t find_node(core::NodeId n) const {
    return node_index_.find(node_key(n),
                            [this](std::int32_t s) { return node_key_at(s); });
  }
  [[nodiscard]] SeriesSlot device_series(core::NodeId d,
                                         std::int32_t stat) const {
    const std::int32_t s = find_node(d);
    if (s < 0) return SeriesSlot::invalid();
    const SeriesSlot first = nodes_[static_cast<std::size_t>(s)].device_series;
    return first.valid() ? SeriesSlot{first.value() + stat}
                         : SeriesSlot::invalid();
  }

  /// The node's slot, appended on first sight.
  Node& node_slot(core::NodeId n);
  /// Appends `count` empty series; returns the first one's slot.
  SeriesSlot add_series(std::int32_t count);

  /// Full-structure consistency walk, compiled in only under
  /// INTSCHED_AUDIT: every learned link references nodes present in the
  /// inferred graph, and no freshness stamp or telemetry sample postdates
  /// the newest ingest time seen. `high_water` is that newest time —
  /// ingest() accepts out-of-order timestamps (late stragglers), so the
  /// current call's `now` alone would be too strict a bound.
  ///
  /// The walk is O(links + telemetry series). At Fig.-4 scale that was
  /// cheap enough to run after *every* ingest, but on TopologyGen-sized
  /// maps (thousands of links) per-report walks make the audit preset
  /// quadratic in the probe stream. finish_ingest therefore audits every
  /// report only while the map is small (<= kAuditFullWalkMaxLinks) and
  /// switches to a deterministic 1-in-kAuditSparsePeriod schedule beyond
  /// that.
  void audit_invariants(sim::SimTime high_water) const;
  static constexpr std::int64_t kAuditFullWalkMaxLinks = 256;
  static constexpr std::int64_t kAuditSparsePeriod = 64;
  void record_queue(SeriesSlot slot, sim::SimTime now, std::int64_t value);
  [[nodiscard]] std::int64_t max_in_window(const Series& series,
                                           sim::SimTime cutoff) const {
    // Values descend front-to-back, so the first fresh sample is the max.
    // Expired fronts are skipped (not dropped — this path must stay const
    // for arbitrary query times) and reclaimed at the next ingest.
    for (std::uint32_t i = series.begin; i < series.begin + series.size;
         ++i) {
      if (pool_[i].at >= cutoff) return pool_[i].value;
    }
    return 0;
  }

  /// `now - window`, saturating instead of overflowing when the window is
  /// wider than the whole representable time range. All freshness
  /// comparisons go through this so they stay in SimTime space.
  [[nodiscard]] static sim::SimTime window_cutoff(sim::SimTime now,
                                                  sim::SimDuration window);

  NetworkMapConfig cfg_;
  SlotIndex node_index_;  ///< node id -> nodes_ slot
  std::vector<Node> nodes_;
  SlotIndex link_index_;  ///< (from, to) -> link slot
  /// The link table, indexed by link slot (learn order).
  std::vector<LinkKey> link_keys_;
  std::vector<DelayEstimate> link_delays_;
  std::vector<std::int32_t> link_ports_;  ///< -1 until a port is learned
  SlotIndex port_index_;                  ///< (device, port) -> series slot
  std::vector<Series> series_;            ///< indexed by series slot
  std::vector<Sample> pool_;              ///< every series' samples
  std::int64_t reports_ = 0;
  std::int64_t rejected_ = 0;
#if INTSCHED_AUDIT_ENABLED
  /// Newest `now` ever passed to ingest(); audit bookkeeping only.
  sim::SimTime audit_ingest_hw_ = sim::SimTime::nanoseconds(
      std::numeric_limits<std::int64_t>::min());
#endif
};

}  // namespace intsched::core
