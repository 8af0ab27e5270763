#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "intsched/core/contracts.hpp"
#include "intsched/core/network_map.hpp"
#include "intsched/net/routing.hpp"
#include "intsched/sim/units.hpp"

namespace intsched::core {

/// Which metric the scheduler ranks candidate edge servers by.
enum class RankingMetric : std::uint8_t { kDelay, kBandwidth };

[[nodiscard]] const char* to_string(RankingMetric metric);

/// One ranked candidate, as returned to edge devices: both estimates are
/// always filled so devices can run custom selection (the paper's "second
/// option").
struct ServerRank {
  core::NodeId server = core::kInvalidNode;
  sim::SimDuration delay_estimate = sim::SimDuration::zero();
  sim::DataRate bandwidth_estimate = sim::DataRate::bits_per_second(0.0);
  /// Pure link-delay sum of the chosen path (no queue terms): the Dijkstra
  /// distance. Survives congestion-telemetry loss, so it is the fallback
  /// key when the path's queue telemetry is stale (Nearest-style ranking).
  sim::SimDuration baseline_delay = sim::SimDuration::zero();
  /// Outstanding tasks the scheduler believes the server holds; only
  /// non-zero when the compute-aware extension is active.
  std::int32_t outstanding_tasks = 0;
  /// True when at least one hop of the path has stale telemetry (only ever
  /// set when the NetworkMap's link_staleness window is enabled).
  bool stale = false;
};

/// Piecewise-linear mapping from observed max queue occupancy to estimated
/// egress utilization (the Fig. 3 relationship, inverted). Clamped at the
/// table's ends.
class QueueToUtilization {
 public:
  struct Point {
    double max_queue_pkts;
    double utilization;  ///< in [0, 1]
  };

  /// Default calibration derived from this repo's own Fig. 3 reproduction:
  /// small standing queues appear near 50% utilization; tens of packets
  /// mean saturation.
  QueueToUtilization();
  explicit QueueToUtilization(std::vector<Point> points);

  [[nodiscard]] double utilization(std::int64_t max_queue_pkts) const;

 private:
  /// One interpolation segment between adjacent table points, with the
  /// endpoint differences precomputed at construction. The lerp runs the
  /// exact arithmetic the former per-call scan ran — `lo_u + ((q - lo_x)
  /// / dx) * du` with dx/du the same `hi - lo` doubles — so results stay
  /// bit-identical; only the segment *selection* changed (binary search
  /// on hi_x instead of a linear point scan).
  struct Segment {
    double lo_x = 0.0;
    double lo_u = 0.0;
    double hi_x = 0.0;  ///< right endpoint abscissa: the search key
    double dx = 0.0;    ///< hi_x - lo_x
    double du = 0.0;    ///< hi_u - lo_u
  };

  std::vector<Point> points_;      ///< sorted by max_queue_pkts
  std::vector<Segment> segments_;  ///< points_.size() - 1 entries
};

/// Which per-hop occupancy statistic Algorithm 1 consumes. The paper uses
/// the maximum ("we rely on maximum queue length value"); the average is
/// implemented for the ablation reproducing the paper's finding that it
/// "leads to inconclusive results".
enum class QueueStatistic : std::uint8_t {
  kMaximum,   ///< the paper's choice: k * max queue occupancy
  kAverage,   ///< the paper's rejected alternative: k * mean occupancy
  /// Directly measured max in-device dwell time (no k at all) — what a
  /// full INT deployment would supply.
  kMeasuredHopLatency,
};

struct RankerConfig {
  /// Algorithm 1's queue-occupancy-to-latency conversion factor k. The
  /// paper fixes k = 20 ms and notes it is a congestion-identification
  /// weight, deliberately large, rather than a calibrated per-packet
  /// queueing delay.
  sim::SimDuration k_factor = sim::SimDuration::millis(20);
  QueueStatistic queue_statistic = QueueStatistic::kMaximum;
  QueueToUtilization queue_to_utilization{};
};

/// One calibration observation: a queue occupancy and the end-to-end
/// delay inflation (over the idle baseline) seen at the same time.
struct KCalibrationSample {
  double max_queue_pkts = 0.0;
  // intsched-lint: allow(raw-unit): least-squares input, fractional ms
  double extra_delay_ms = 0.0;
};

/// Paper §III-C future work ("we leave its automation and fine-tuning as
/// a future work"): least-squares fit of extra_delay = k * max_queue
/// through the origin, from Fig.-3-style calibration measurements.
/// Returns the paper's default (20 ms) when the data carries no signal.
[[nodiscard]] INTSCHED_HOTPATH sim::SimDuration estimate_k_factor(
    const std::vector<KCalibrationSample>& samples);

// -- reference ranking (no hidden state) -----------------------------------
//
// Algorithm 1 written out directly over a NetworkMap: every input is
// explicit (the map, the config, and a precomputed shortest-path
// result). Ranker is exactly this over a fresh Dijkstra run; the
// published views (MetroView) score through the compiled rank planes
// below instead, and the equivalence property tests hold the planes
// byte-identical to this transcription.

/// Algorithm 1 for a single path: sum of link-delay estimates plus
/// k * maxQueue (per cfg.queue_statistic) for every intermediate device.
[[nodiscard]] INTSCHED_HOTPATH sim::SimDuration estimate_path_delay(
    const NetworkMap& map, const RankerConfig& cfg,
    const std::vector<core::NodeId>& path, sim::SimTime now);

/// §III-D: min over links of capacity * (1 - utilization(maxQueue)).
[[nodiscard]] sim::DataRate estimate_path_bandwidth(
    const NetworkMap& map, const RankerConfig& cfg,
    const std::vector<core::NodeId>& path, sim::SimTime now);

/// Ranks `candidates` over precomputed shortest paths from the origin,
/// best first (ascending delay / descending bandwidth, server id as the
/// deterministic tie-break). Unreachable candidates — no path, or a path
/// of fewer than two nodes — rank last with delay = SimDuration::max() /
/// bandwidth = 0.
[[nodiscard]] INTSCHED_COLDPATH std::vector<ServerRank> rank_candidates(
    const NetworkMap& map, const RankerConfig& cfg,
    const net::ShortestPaths& sp, const std::vector<core::NodeId>& candidates,
    RankingMetric metric, sim::SimTime now);

// -- compiled rank planes (DESIGN.md §15) -----------------------------------
//
// A RankPlane "compiles" one origin's candidate paths — frozen for the
// lifetime of the view that owns them — into a flat CSR arena: one row
// per candidate server holding the path's link-delay sum (its shortest-
// path tree distance) and its link index span into the view's
// PlaneCatalog, which resolves every known device and learned directed
// link once per view. The path's intermediate devices are the targets of
// every link of the span but the last, so the span is the whole path.
// Per-query work then collapses to one queue-window gather per *distinct*
// device (epoch-stamped marks, no per-query clearing) plus a fused
// structure-of-arrays scoring loop over the rows; no path vector is ever
// re-walked and no link-delay sum recomputed on the hot path.
//
// Determinism contract: for every (candidates, metric, statistic, now)
// the kernels below produce ServerRank output byte-identical to
// rank_candidates over the paths the plane was compiled from. The
// argument, per field:
//  * delay — the per-hop terms are int64 nanosecond values, and so is
//    the row's key, the tree distance: the sum of the path's link delays
//    (checked under INTSCHED_AUDIT at compile). Adding the gathered
//    per-device terms in span (= path) order runs the same int64
//    additions as estimate_path_delay, and kAverage's per-hop
//    double->int64 rounding happens inside the gathered term exactly as
//    it does per hop in the estimator;
//  * bandwidth — min over per-link availabilities of doubles computed by
//    the same expression; min is order-insensitive and duplicate links
//    contribute the same double twice;
//  * ordering — selection sorts candidate indices by (key, server id),
//    a total order, so a top-k partial sort's prefix is byte-identical
//    to the full sort's prefix, and the k=1 argmin is its first element.

/// Telemetry catalog shared by every rank plane of one view: each known
/// device's resolved queue series, and each learned directed link's
/// resolved handles. Handles are the same for every origin of a view, so
/// they are resolved once per view, not once per origin. Node ids index
/// dev_series directly: they are dense topology indices (RegionAssignment
/// indexes by them too), so the table spans the largest known id. Link
/// slots index link_refs, so a plane's link indices are the map's own
/// slots and the link's ends are read from map.links(). Every handle is a
/// slot of the one map the catalog was compiled from, which the kernels
/// below take alongside the plane; slots are append-only, so they name
/// the same series and links in every later state and copy of that map.
struct PlaneCatalog {
  /// Resolved handles replaying link_max_queue (port series if fresh,
  /// else `from`'s device register) and link_stale (the link's own slot,
  /// which indexes its LinkRef, and its reverse's).
  struct LinkRef {
    NetworkMap::SeriesSlot port_series = NetworkMap::SeriesSlot::invalid();
    NetworkMap::SeriesSlot dev_series = NetworkMap::SeriesSlot::invalid();
    NetworkMap::LinkSlot rev = NetworkMap::LinkSlot::invalid();
  };

  /// Per node id: the slot of the device series matching the view's
  /// queue statistic, so the per-query gather is slot-direct.
  std::vector<NetworkMap::SeriesSlot> dev_series;
  /// Per map link slot: link_refs[l] resolves map.links()[l].
  std::vector<LinkRef> link_refs;

  /// Resolves a catalog over node ids [0, node_span), which must hold
  /// both ends of every link of `map`, and over every link of `map` in
  /// slot order. Devices resolve to the series of `statistic`; `map` is
  /// the frozen map the planes will be queried against.
  [[nodiscard]] INTSCHED_COLDPATH static PlaneCatalog compile(
      const NetworkMap& map, QueueStatistic statistic, std::size_t node_span);
};

struct RankPlane {
  /// Row-index sentinel: node has no compiled row.
  static constexpr std::uint32_t kNoRow = 0xffffffffu;

  struct Row {
    /// The row's key: the compiled path's link-delay sum, which is its
    /// shortest-path tree distance, frozen at build time (the delay graph
    /// never changes within a snapshot). Reported as baseline_delay.
    sim::SimDuration static_delay = sim::SimDuration::zero();
    /// [begin, end) span into link_ix: every path link, path order. The
    /// path's intermediate devices are the targets of every link but the
    /// last. The bandwidth estimator charges links from the first switch
    /// onward — [link_begin + 1, link_end) — while staleness scans the
    /// full span.
    std::uint32_t link_begin = 0;
    std::uint32_t link_end = 0;

    /// An empty span is unreachable (the path had fewer than two nodes):
    /// ranked last with delay = max / bandwidth = 0, exactly as
    /// rank_candidates.
    [[nodiscard]] bool reachable() const { return link_end > link_begin; }
  };

  std::vector<Row> rows;
  /// Link slots of the map the catalog was compiled from, which index
  /// the catalog's link_refs.
  std::vector<std::uint32_t> link_ix;
  /// The owning view's catalog; null for a plane with no rows.
  const PlaneCatalog* catalog = nullptr;
  /// Node id -> row (kNoRow where absent), owned by the view and shared
  /// by every plane compiled over the same node list: each such plane
  /// adds its rows in that list's order. A default plane has no rows:
  /// every candidate scores unreachable.
  const std::vector<std::uint32_t>* row_index = nullptr;

  [[nodiscard]] const Row* row_for(core::NodeId n) const {
    if (row_index == nullptr || !n.valid() || n.index() >= row_index->size()) {
      return nullptr;
    }
    const std::uint32_t r = (*row_index)[n.index()];
    return r == kNoRow ? nullptr : &rows[r];
  }
};

/// Compiles one origin's rows against its view's PlaneCatalog and seals
/// them into an exactly sized RankPlane. Cold by construction: planes are
/// built inside the per-origin once-only memo fill, never on the query
/// path. Each hop's link slot is the previous row's at the same position
/// when that link joins the same two nodes — rows come in node-id order,
/// so neighbouring servers share their paths' prefix — and otherwise one
/// find in the map's link index.
class RankPlaneBuilder {
 public:
  /// `map` is the map `catalog` was compiled from, and `row_index` the
  /// view's row index of the node list the caller compiles: exactly
  /// `rows` add_path calls follow, one per node of the list, in its order.
  RankPlaneBuilder(const NetworkMap& map, const PlaneCatalog& catalog,
                   const std::vector<std::uint32_t>& row_index,
                   std::size_t rows)
      : map_{&map} {
    plane_.catalog = &catalog;
    plane_.row_index = &row_index;
    plane_.rows.reserve(rows);
  }

  /// Compiles one candidate path (fewer than two nodes = unreachable)
  /// whose link-delay sum is `key`: the tree distance the caller chose the
  /// path by. A hop the map has no link for leaves the row unreachable;
  /// assembled paths only follow learned links, so this is a defensive
  /// case. Returns whether the row is reachable.
  INTSCHED_COLDPATH bool add_path(const std::vector<core::NodeId>& path,
                                  sim::SimDuration key) {
    const std::size_t link_begin = link_ix_.size();
    const RankPlane::Row prev =
        plane_.rows.empty() ? RankPlane::Row{} : plane_.rows.back();
    bool linked = path.size() >= 2;
    for (std::size_t i = 0; linked && i + 1 < path.size(); ++i) {
      if (prev.link_begin + i < prev.link_end) {
        const std::uint32_t same = link_ix_[prev.link_begin + i];
        const LinkKey& k = map_->links()[same];
        if (k.from == path[i] && k.to == path[i + 1]) {
          link_ix_.push_back(same);
          continue;
        }
      }
      const NetworkMap::LinkSlot l = map_->find_link(path[i], path[i + 1]);
      linked = l.valid();
      link_ix_.push_back(static_cast<std::uint32_t>(l.value()));
    }
    RankPlane::Row row;
    if (linked) {
      row.static_delay = key;
      row.link_begin = static_cast<std::uint32_t>(link_begin);
      row.link_end = static_cast<std::uint32_t>(link_ix_.size());
    } else {
      link_ix_.resize(link_begin);
    }
    plane_.rows.push_back(row);
    return linked;
  }

  /// Seals and returns the plane, its index pool copied to exact size.
  [[nodiscard]] INTSCHED_COLDPATH RankPlane finish() {
    plane_.link_ix.assign(link_ix_.begin(), link_ix_.end());
    return std::move(plane_);
  }

 private:
  const NetworkMap* map_;
  RankPlane plane_;
  std::vector<std::uint32_t> link_ix_;
};

/// Per-thread gather + selection scratch for the plane kernels. Every
/// vector grows monotonically (capacity retained across queries *and*
/// across views — index spaces differ per catalog, but the epoch stamp
/// makes stale marks unreadable); nothing is cleared per query.
struct PlaneScratch {
  /// Gather generation stamp (not a snapshot Epoch: it orders nothing
  /// across threads or publishes, it only invalidates this scratch's own
  /// marks between queries).
  std::uint64_t stamp = 0;
  std::vector<std::uint64_t> dev_mark;
  /// Gathered per-device hop-delay term under the query's statistic.
  std::vector<sim::SimDuration> dev_term;
  std::vector<std::uint64_t> link_mark;
  std::vector<double> link_avail;  ///< available bps, gathered per link
  std::vector<std::uint8_t> link_is_stale;
  /// Per-candidate selection state (parallel to the candidate array).
  std::vector<sim::SimDuration> delay_key;
  std::vector<double> bw_key;
  std::vector<std::uint32_t> sel;

  /// Starts one query against `plane`: bumps the gather epoch and grows
  /// the mark arrays to its catalog's table sizes. Grow-only, so a warmed
  /// serving thread never reallocates here.
  INTSCHED_HOTPATH void begin(const RankPlane& plane) {
    if (plane.catalog != nullptr) {
      const PlaneCatalog& catalog = *plane.catalog;
      if (dev_mark.size() < catalog.dev_series.size()) {
        dev_mark.resize(catalog.dev_series.size(), 0);
        dev_term.resize(catalog.dev_series.size(), sim::SimDuration::zero());
      }
      if (link_mark.size() < catalog.link_refs.size()) {
        link_mark.resize(catalog.link_refs.size(), 0);
        link_avail.resize(catalog.link_refs.size(), 0.0);
        link_is_stale.resize(catalog.link_refs.size(), 0);
      }
    }
    ++stamp;
  }
};

namespace plane_detail {

/// Gathered hop-delay term for device `d`: one queue-window query per
/// distinct device per plane query, whatever the candidate fan-in —
/// evaluated through the catalog's resolved series slot in `map`, so the
/// gather is slot-direct (no index probe). The term is the exact per-hop
/// contribution of estimate_path_delay under cfg.queue_statistic
/// (kAverage's /100.0 mean scaling and double -> int64 rounding
/// included), so summing gathered terms in span order reproduces the
/// estimator's arithmetic bit-for-bit.
INTSCHED_HOTPATH inline sim::SimDuration dev_term(const RankerConfig& cfg,
                                                  const NetworkMap& map,
                                                  const RankPlane& plane,
                                                  PlaneScratch& scratch,
                                                  std::size_t d,
                                                  sim::SimTime now) {
  if (scratch.dev_mark[d] != scratch.stamp) {
    scratch.dev_mark[d] = scratch.stamp;
    const std::int64_t q =
        map.window_max_of(plane.catalog->dev_series[d], now);
    sim::SimDuration term = sim::SimDuration::zero();
    switch (cfg.queue_statistic) {
      case QueueStatistic::kMaximum:
        term = cfg.k_factor * q;
        break;
      case QueueStatistic::kAverage:
        term = sim::SimDuration::nanos(static_cast<std::int64_t>(
            static_cast<double>(cfg.k_factor.ns()) *
            (static_cast<double>(q) / 100.0)));
        break;
      case QueueStatistic::kMeasuredHopLatency:
        term = sim::SimDuration::nanos(q);
        break;
    }
    scratch.dev_term[d] = term;
  }
  return scratch.dev_term[d];
}

/// Gathers availability (and, when staleness tracking is on, the stale
/// bit) for map link slot `l` — once per distinct link per query,
/// replaying link_max_queue (fresh port series, else device register)
/// and link_stale over the resolved handles.
INTSCHED_HOTPATH inline void gather_link(const RankerConfig& cfg,
                                         const NetworkMap& map,
                                         const RankPlane& plane,
                                         PlaneScratch& scratch, std::uint32_t l,
                                         sim::SimTime now, double nominal,
                                         bool staleness_on) {
  if (scratch.link_mark[l] == scratch.stamp) return;
  scratch.link_mark[l] = scratch.stamp;
  const PlaneCatalog::LinkRef& ref = plane.catalog->link_refs[l];
  const std::int64_t q = map.port_series_fresh(ref.port_series, now)
                             ? map.window_max_of(ref.port_series, now)
                             : map.window_max_of(ref.dev_series, now);
  const double util = cfg.queue_to_utilization.utilization(q);
  scratch.link_avail[l] = nominal * (1.0 - util);
  const NetworkMap::LinkSlot fwd{static_cast<std::int32_t>(l)};
  scratch.link_is_stale[l] =
      staleness_on && map.records_stale(fwd, ref.rev, now) ? 1 : 0;
}

/// Row's delay key: its static delay (the path's link-delay sum) +
/// gathered per-device terms in path order, the devices being the
/// targets of every link of the span but the last.
/// Unreachable rows key at SimDuration::max(), matching the uncompiled
/// path's unreachable delay.
INTSCHED_HOTPATH inline sim::SimDuration delay_key_of(
    const RankerConfig& cfg, const NetworkMap& map, const RankPlane& plane,
    PlaneScratch& scratch, const RankPlane::Row* row, sim::SimTime now) {
  if (row == nullptr || !row->reachable()) return sim::SimDuration::max();
  const std::vector<LinkKey>& links = map.links();
  sim::SimDuration key = row->static_delay;
  for (std::uint32_t ix = row->link_begin; ix + 1 < row->link_end; ++ix) {
    // A map link's ends are valid ids inside the catalog.
    key += dev_term(cfg, map, plane, scratch,
                    links[plane.link_ix[ix]].to.index(), now);
  }
  return key;
}

/// Row's bandwidth key: min availability over the charged link span
/// (first switch onward), starting at the nominal capacity. Unreachable
/// rows key at 0 bps.
INTSCHED_HOTPATH inline double bw_key_of(const RankerConfig& cfg,
                                         const NetworkMap& map,
                                         const RankPlane& plane,
                                         PlaneScratch& scratch,
                                         const RankPlane::Row* row,
                                         sim::SimTime now, double nominal,
                                         bool staleness_on) {
  if (row == nullptr || !row->reachable()) return 0.0;
  double min_bps = nominal;
  for (std::uint32_t ix = row->link_begin + 1; ix < row->link_end; ++ix) {
    gather_link(cfg, map, plane, scratch, plane.link_ix[ix], now, nominal,
                staleness_on);
    min_bps = std::min(min_bps, scratch.link_avail[plane.link_ix[ix]]);
  }
  return min_bps;
}

/// Materializes the full ServerRank for a selected row — every field,
/// including the ones the query's metric did not need for ordering.
/// `server` is the candidate id (used verbatim when the row is absent).
INTSCHED_HOTPATH inline void fill_rank(const RankerConfig& cfg,
                                       const NetworkMap& map,
                                       const RankPlane& plane,
                                       PlaneScratch& scratch,
                                       const RankPlane::Row* row,
                                       core::NodeId server,
                                       sim::SimDuration delay, sim::SimTime now,
                                       double nominal, bool staleness_on,
                                       ServerRank& r) {
  r.server = server;
  r.outstanding_tasks = 0;
  if (row == nullptr || !row->reachable()) {
    r.delay_estimate = sim::SimDuration::max();
    r.bandwidth_estimate = sim::DataRate::bits_per_second(0.0);
    r.baseline_delay = sim::SimDuration::max();
    r.stale = false;
    return;
  }
  r.delay_estimate = delay;
  r.baseline_delay = row->static_delay;
  r.bandwidth_estimate = sim::DataRate::bits_per_second(
      bw_key_of(cfg, map, plane, scratch, row, now, nominal, staleness_on));
  bool stale = false;
  if (staleness_on) {
    for (std::uint32_t ix = row->link_begin; ix < row->link_end; ++ix) {
      gather_link(cfg, map, plane, scratch, plane.link_ix[ix], now, nominal,
                  staleness_on);
      stale = stale || scratch.link_is_stale[plane.link_ix[ix]] != 0;
    }
  }
  r.stale = stale;
}

}  // namespace plane_detail

/// Fused plane ranking: scores `candidates` against the compiled plane
/// and writes the best min(top_k, count) entries — sorted exactly as
/// rank_candidates sorts — into `out`. top_k = count gives the full
/// ranking; smaller top_k uses a deterministic partial selection whose
/// prefix is byte-identical to the full sort (the comparator's
/// (key, server id) total order leaves no ties for an unstable algorithm
/// to permute observably). All working memory comes from `scratch`;
/// `map` is the map the plane's catalog was compiled from.
INTSCHED_HOTPATH inline void rank_plane_into(
    const NetworkMap& map, const RankerConfig& cfg, const RankPlane& plane,
    const core::NodeId* candidates, std::size_t count, RankingMetric metric,
    sim::SimTime now, std::size_t top_k, PlaneScratch& scratch,
    std::vector<ServerRank>& out) {
  scratch.begin(plane);
  const double nominal = map.config().nominal_capacity.bps();
  const bool staleness_on =
      map.config().link_staleness > sim::SimDuration::zero();

  if (scratch.sel.size() < count) {
    scratch.sel.resize(count, 0);
    scratch.delay_key.resize(count, sim::SimDuration::zero());
    scratch.bw_key.resize(count, 0.0);
  }
  for (std::size_t i = 0; i < count; ++i) {
    scratch.sel[i] = static_cast<std::uint32_t>(i);
    const RankPlane::Row* row = plane.row_for(candidates[i]);
    if (metric == RankingMetric::kDelay) {
      scratch.delay_key[i] =
          plane_detail::delay_key_of(cfg, map, plane, scratch, row, now);
    } else {
      scratch.bw_key[i] = plane_detail::bw_key_of(
          cfg, map, plane, scratch, row, now, nominal, staleness_on);
    }
  }

  const auto sel_begin = scratch.sel.begin();
  const auto sel_end = sel_begin + static_cast<std::ptrdiff_t>(count);
  const std::size_t m = std::min(top_k, count);
  if (metric == RankingMetric::kDelay) {
    const auto by_delay = [&](std::uint32_t a, std::uint32_t b) {
      if (scratch.delay_key[a] != scratch.delay_key[b]) {
        return scratch.delay_key[a] < scratch.delay_key[b];
      }
      return candidates[a] < candidates[b];
    };
    if (m < count) {
      std::partial_sort(sel_begin,
                        sel_begin + static_cast<std::ptrdiff_t>(m), sel_end,
                        by_delay);
    } else {
      std::sort(sel_begin, sel_end, by_delay);
    }
  } else {
    const auto by_bandwidth = [&](std::uint32_t a, std::uint32_t b) {
      if (scratch.bw_key[a] != scratch.bw_key[b]) {
        return scratch.bw_key[a] > scratch.bw_key[b];
      }
      return candidates[a] < candidates[b];
    };
    if (m < count) {
      std::partial_sort(sel_begin,
                        sel_begin + static_cast<std::ptrdiff_t>(m), sel_end,
                        by_bandwidth);
    } else {
      std::sort(sel_begin, sel_end, by_bandwidth);
    }
  }

  out.clear();
  out.reserve(m);
  out.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t i = scratch.sel[j];
    const core::NodeId server = candidates[i];
    const RankPlane::Row* row = plane.row_for(server);
    const sim::SimDuration delay =
        metric == RankingMetric::kDelay
            ? scratch.delay_key[i]
            : plane_detail::delay_key_of(cfg, map, plane, scratch, row, now);
    plane_detail::fill_rank(cfg, map, plane, scratch, row, server, delay, now,
                            nominal, staleness_on, out[j]);
  }
}

/// Running k=1 incumbent of pick_plane_argmin: the best (delay, server
/// id) seen so far. `found` is tracked apart from the id because every
/// id — kInvalidNode included — is a legal candidate that ranks somewhere.
struct PlaneIncumbent {
  bool found = false;
  sim::SimDuration delay = sim::SimDuration::max();
  core::NodeId server = core::kInvalidNode;
};

/// k=1 plane selection core for the delay metric: continues a running
/// min over the (delay, server id) lexicographic key — `best` is
/// read-modify-write, so a caller scanning several candidate groups
/// under one gather epoch carries the incumbent across groups and every
/// group after the first is scored against an already tight bound. The
/// select order IS rank_candidates' (delay, server id) comparator, ids in
/// NodeId order, so the final incumbent equals the full sort's front.
///
/// Bound short-circuit: a row's delay key is its static prefix plus
/// non-negative queue terms, so a static prefix already above the
/// incumbent cannot win; the row is skipped before its span walk and
/// gathers. Strict >, and the incumbent only tightens, so a skipped row
/// is strictly worse than the final winner even on key ties — selection
/// stays exact, id tie-breaks included.
INTSCHED_HOTPATH inline void pick_plane_argmin(
    const RankerConfig& cfg, const NetworkMap& map, const RankPlane& plane,
    const core::NodeId* servers, std::size_t count, sim::SimTime now,
    PlaneScratch& scratch, PlaneIncumbent& best) {
  for (std::size_t i = 0; i < count; ++i) {
    const RankPlane::Row* row = plane.row_for(servers[i]);
    if (best.found && row != nullptr && row->reachable() &&
        row->static_delay > best.delay) {
      continue;
    }
    const sim::SimDuration key =
        plane_detail::delay_key_of(cfg, map, plane, scratch, row, now);
    if (!best.found || key < best.delay ||
        (key == best.delay && servers[i] < best.server)) {
      best = PlaneIncumbent{true, key, servers[i]};
    }
  }
}

/// The paper's scheduler-side ranking engine and the reference every other
/// ranking path is checked against: Algorithm 1 transcribed directly,
/// holding nothing but the map and a config fixed at construction. Each
/// rank() runs Dijkstra over the map's current delay graph and scores the
/// candidates with rank_candidates, so it always answers from the latest
/// ingest and is as read-only as its const signature says.
class Ranker {
 public:
  Ranker(const NetworkMap& map, RankerConfig config = {})
      : map_{&map}, cfg_{std::move(config)} {}

  /// Ranks `candidates` as seen from `origin` at time `now`, best first
  /// (ascending delay, or descending bandwidth). Unreachable candidates
  /// rank last with delay = SimDuration::max() / bandwidth = 0.
  [[nodiscard]] std::vector<ServerRank> rank(
      core::NodeId origin, const std::vector<core::NodeId>& candidates,
      RankingMetric metric, sim::SimTime now) const;

  [[nodiscard]] const RankerConfig& config() const { return cfg_; }

 private:
  const NetworkMap* map_;
  RankerConfig cfg_;
};

}  // namespace intsched::core
