#include "intsched/core/sharded_map.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "intsched/sim/audit.hpp"

namespace intsched::core {

namespace {

/// Plane of an origin the view cannot route from: no rows, so every
/// candidate scores unreachable.
const RankPlane kNoPlane{};

/// Per-thread query buffers for the allocating rank()/pick() wrappers.
/// A fresh RankScratch per call would regrow every buffer; reusing one
/// per thread keeps the wrappers at the warm scratch cost (every buffer
/// is grow-only and epoch-stamped, so reuse across views and origins is
/// safe).
MetroView::RankScratch& thread_scratch() {
  // intsched-lint: allow(thread-share): per-thread buffers, no result state
  static thread_local MetroView::RankScratch scratch;
  return scratch;
}

/// Node id -> position in `nodes` (ascending), kNoRow elsewhere: the row
/// index every plane compiled over `nodes` shares.
std::vector<std::uint32_t> row_index(const std::vector<core::NodeId>& nodes) {
  std::vector<std::uint32_t> rows(
      nodes.empty() || !nodes.back().valid() ? 0 : nodes.back().index() + 1,
      RankPlane::kNoRow);
  for (std::size_t r = 0; r < nodes.size(); ++r) {
    if (nodes[r].valid()) {
      rows[nodes[r].index()] = static_cast<std::uint32_t>(r);
    }
  }
  return rows;
}

}  // namespace

RegionAssignment::RegionAssignment(std::vector<core::RegionId> by_node,
                                   core::RegionId count,
                                   std::vector<core::NodeId> servers)
    : by_node_{std::move(by_node)},
      count_{count},
      servers_{std::move(servers)} {
  std::sort(servers_.begin(), servers_.end());
  servers_.erase(std::unique(servers_.begin(), servers_.end()),
                 servers_.end());
}

RegionAssignment RegionAssignment::from_topology(
    const net::GenTopology& topo) {
  std::vector<core::RegionId> by_node;
  by_node.reserve(topo.nodes.size());
  for (const net::GenNode& node : topo.nodes) {
    by_node.push_back(node.region);
  }
  return RegionAssignment{std::move(by_node), topo.regions,
                          topo.edge_servers()};
}

// ---------------------------------------------------------------------------
// MetroView

MetroView::MetroView(std::shared_ptr<const RegionAssignment> regions,
                     std::shared_ptr<const NetworkMap> map,
                     std::shared_ptr<const RankerConfig> config)
    : regions_{std::move(regions)},
      map_{std::move(map)},
      cfg_{std::move(config)},
      epoch_{map_->ingest_epoch()} {
  // One pass over the link table: a link with both ends in one region
  // belongs to that region's graph; every other link is a summary link.
  const auto n = static_cast<std::size_t>(
      std::max<std::int32_t>(0, regions_->count().value()));
  std::vector<std::vector<NetworkMap::LinkSlot>> region_links(n);
  std::vector<NetworkMap::LinkSlot> summary_slots;
  const std::vector<LinkKey>& links = map_->links();
  for (std::size_t l = 0; l < links.size(); ++l) {
    const NetworkMap::LinkSlot slot{static_cast<std::int32_t>(l)};
    const core::RegionId r = regions_->region_of(links[l].from);
    if (r != regions_->region_of(links[l].to) || !r.valid() ||
        r.index() >= n) {
      summary_slots.push_back(slot);
    } else {
      region_links[r.index()].push_back(slot);
    }
  }
  region_snaps_.reserve(n);
  for (std::vector<NetworkMap::LinkSlot>& bucket : region_links) {
    region_snaps_.push_back(std::make_unique<const RankSnapshot>(
        net::Graph{map_->delay_arcs(std::move(bucket))}));
  }
  const std::vector<net::Graph::Arc> summary_links =
      map_->delay_arcs(std::move(summary_slots));

  // A region's borders are its ends of summary links, ascending.
  borders_by_region_.resize(region_snaps_.size());
  const auto note_border = [this](core::NodeId node) {
    const core::RegionId r = regions_->region_of(node);
    if (valid_region(r)) borders_by_region_[r.index()].push_back(node);
  };
  for (const net::Graph::Arc& link : summary_links) {
    note_border(link.from);
    note_border(link.to);
  }
  for (std::vector<core::NodeId>& borders : borders_by_region_) {
    std::sort(borders.begin(), borders.end());
    borders.erase(std::unique(borders.begin(), borders.end()), borders.end());
  }

  // Summary graph: the summary links, sorted by (from, to), then for
  // every region its border-to-border transit edges at the region's
  // shortest-path cost, each tagged with the region it crosses. Regions
  // ascend and borders are sorted, so the arc list — and therefore the
  // graph — is deterministic.
  struct TaggedArc {
    net::Graph::Arc arc;
    core::RegionId region = core::kNoRegion;
  };
  std::vector<TaggedArc> arcs;
  arcs.reserve(summary_links.size());
  for (const net::Graph::Arc& link : summary_links) {
    arcs.push_back(TaggedArc{link, core::kNoRegion});
  }
  for (std::size_t r = 0; r < region_snaps_.size(); ++r) {
    const RankSnapshot& snap = *region_snaps_[r];
    const std::vector<core::NodeId>& borders = borders_by_region_[r];
    for (const core::NodeId b1 : borders) {
      const net::ShortestPaths* sp = snap.paths_from(b1);
      if (sp == nullptr) continue;
      for (const core::NodeId b2 : borders) {
        if (b2 == b1 || !sp->reaches(b2)) continue;
        arcs.push_back(TaggedArc{
            net::Graph::Arc{b1, b2, -1, sp->distance_to(b2)},
            core::RegionId{static_cast<std::int32_t>(r)}});
      }
    }
  }
  // Grouped by source, the arcs are laid out as given, so the graph's
  // edge e is arcs[e] and takes its tag.
  std::stable_sort(arcs.begin(), arcs.end(),
                   [](const TaggedArc& a, const TaggedArc& b) {
                     return a.arc.from < b.arc.from;
                   });
  std::vector<net::Graph::Arc> plain;
  plain.reserve(arcs.size());
  summary_region_.reserve(arcs.size());
  for (const TaggedArc& t : arcs) {
    plain.push_back(t.arc);
    summary_region_.push_back(t.region);
  }
  summary_graph_ = net::Graph{plain};

  // Query-context slot per node known to any region graph (plus the
  // summary's own nodes, so gateway-origin queries resolve too). The
  // slot *set* is fixed here; readers only fill slot contents.
  const std::vector<core::NodeId>& gateways = summary_graph_.nodes();
  std::size_t known = gateways.size();
  for (const std::unique_ptr<const RankSnapshot>& snap : region_snaps_) {
    known += snap->nodes().size();
  }
  ctx_nodes_.reserve(known);
  for (const std::unique_ptr<const RankSnapshot>& snap : region_snaps_) {
    ctx_nodes_.insert(ctx_nodes_.end(), snap->nodes().begin(),
                      snap->nodes().end());
  }
  ctx_nodes_.insert(ctx_nodes_.end(), gateways.begin(), gateways.end());
  std::sort(ctx_nodes_.begin(), ctx_nodes_.end());
  ctx_nodes_.erase(std::unique(ctx_nodes_.begin(), ctx_nodes_.end()),
                   ctx_nodes_.end());
  ctx_slots_ = std::make_unique<CtxSlot[]>(ctx_nodes_.size());
  node_rows_ = row_index(ctx_nodes_);

  // Server-plane rows: the provisioned servers this view knows, or every
  // known node when the assignment names no servers. A server the view
  // has never heard of has no row in any plane, exactly like an unknown
  // id.
  const std::vector<core::NodeId>& servers = regions_->servers();
  if (servers.empty()) {
    plane_nodes_ = ctx_nodes_;
  } else {
    std::set_intersection(servers.begin(), servers.end(), ctx_nodes_.begin(),
                          ctx_nodes_.end(), std::back_inserter(plane_nodes_));
  }
  server_rows_ = row_index(plane_nodes_);
}

std::unique_ptr<MetroView::QueryContext> MetroView::build_context(
    core::NodeId origin) const {
  auto built = std::make_unique<QueryContext>();
  QueryContext& ctx = *built;
  ctx.region = regions_->region_of(origin);
  if (!valid_region(ctx.region)) return built;
  ctx.sp0 = region_snaps_[ctx.region.index()]->paths_from(origin);
  if (ctx.sp0 == nullptr) return built;

  // Summary-level Dijkstra from the origin over the view's summary graph
  // plus synthetic origin->border edges costed by the region-local
  // distances; the graph itself is shared, never copied.
  std::vector<net::Graph::Edge> entries;
  for (const core::NodeId b : borders_by_region_[ctx.region.index()]) {
    if (!ctx.sp0->reaches(b)) continue;
    // Borders are endpoints of learned summary links.
    assert(summary_graph_.has_node(b));
    entries.push_back(net::Graph::Edge{summary_graph_.index_of(b), -1,
                                       ctx.sp0->distance_to(b)});
  }
  ctx.summary_sp = net::dijkstra(summary_graph_, origin, entries);

  // Freeze the admissible region lower bounds (pick_with's pruning key):
  // the cheapest border arrival per region is snapshot-constant for this
  // origin, so pay the per-border distance lookups once here and leave
  // the query loop a flat indexed read.
  ctx.region_bound.assign(borders_by_region_.size(),
                          sim::SimDuration::max());
  for (std::size_t r = 0; r < borders_by_region_.size(); ++r) {
    if (ctx.region.index() == r) {
      ctx.region_bound[r] = sim::SimDuration::zero();
      continue;
    }
    for (const core::NodeId b : borders_by_region_[r]) {
      ctx.region_bound[r] =
          std::min(ctx.region_bound[r], ctx.summary_sp.distance_to(b));
    }
  }

  // Compile the origin's server plane. Cold by contract: this runs once
  // per origin inside the query-context call_once.
  compile_plane(ctx, origin, plane_nodes_, server_rows_, ctx.plane);
  return built;
}

const PlaneCatalog& MetroView::catalog() const {
  std::call_once(catalog_once_, [this] {
    // Every link end is a known node, so node_rows_ spans the catalog.
    catalog_ =
        PlaneCatalog::compile(*map_, cfg_->queue_statistic, node_rows_.size());
    catalog_links_.fetch_add(
        static_cast<std::int64_t>(catalog_.link_refs.size()),
        std::memory_order_relaxed);
  });
  return catalog_;
}

void MetroView::compile_plane(const QueryContext& ctx, core::NodeId origin,
                              const std::vector<core::NodeId>& nodes,
                              const std::vector<std::uint32_t>& rows,
                              RankPlane& out) const {
  // Resolve the two-level candidate path to every node of the list — in
  // ascending id order, which is the order of its row index — and freeze
  // each into a CSR row over the view's catalog, keyed by the tree
  // distance the path was chosen by (DESIGN.md §15).
  RankPlaneBuilder builder{*map_, catalog(), rows, nodes.size()};
  PathScratch scratch;
  std::vector<core::NodeId> path;
  for (const core::NodeId node : nodes) {
    const sim::SimDuration key =
        candidate_path_into(ctx, origin, node, path, scratch);
    [[maybe_unused]] const bool reachable = builder.add_path(path, key);
#if INTSCHED_AUDIT_ENABLED
    // The key stands for the path's link-delay sum: every region edge and
    // summary link is costed by link_delay, and every entry or transit
    // edge by a region distance that is itself such a sum.
    if (reachable) {
      sim::SimDuration sum = sim::SimDuration::zero();
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        sum += map_->link_delay(path[i], path[i + 1]);
      }
      INTSCHED_AUDIT_ASSERT(
          sum == key, "a plane row's key is not its path's link-delay sum");
    }
#endif
  }
  out = builder.finish();
  rows_compiled_.fetch_add(static_cast<std::int64_t>(nodes.size()),
                           std::memory_order_relaxed);
}

const MetroView::QueryContext* MetroView::query_context(
    core::NodeId origin) const {
  const std::uint32_t row = node_row(origin);
  if (row == RankPlane::kNoRow) return nullptr;
  const CtxSlot& slot = ctx_slots_[row];
  // intsched-lint: allow(hot-lock): once-per-origin memo fill (§11)
  std::call_once(slot.once, [this, origin, &slot] {
    // intsched-lint: allow(hot-coldcall): sanctioned once-only fill
    slot.ctx = build_context(origin);
  });
  return slot.ctx.get();
}

const RankPlane& MetroView::plane_for(core::NodeId origin,
                                      const QueryContext& ctx,
                                      const core::NodeId* candidates,
                                      std::size_t count) const {
  // A context without a region tree compiled nothing: every candidate is
  // unreachable.
  if (ctx.sp0 == nullptr) return ctx.plane;
  const auto known_without_row = [this, &ctx](core::NodeId c) {
    return ctx.plane.row_for(c) == nullptr && node_row(c) != RankPlane::kNoRow;
  };
  if (std::none_of(candidates, candidates + count, known_without_row)) {
    return ctx.plane;
  }
  // intsched-lint: allow(hot-lock): once-per-origin fallback fill (§15)
  std::call_once(ctx.fallback_once, [this, origin, &ctx] {
    // intsched-lint: allow(hot-coldcall): sanctioned once-only fill
    compile_plane(ctx, origin, ctx_nodes_, node_rows_, ctx.fallback_plane);
  });
  return ctx.fallback_plane;
}

void MetroView::expand_summary_path_into(const QueryContext& ctx,
                                         core::NodeId origin,
                                         core::NodeId border,
                                         std::vector<core::NodeId>& out,
                                         PathScratch& scratch) const {
  out.clear();
  scratch.spine.clear();
  if (!ctx.summary_sp.append_path_to(border, scratch.spine)) return;
  out.push_back(origin);
  for (std::size_t i = 1; i < scratch.spine.size(); ++i) {
    const core::NodeId u = scratch.spine[i - 1];
    const core::NodeId v = scratch.spine[i];
    if (u == origin) {
      // Synthetic first edge: splice the region-local path origin..v.
      // (If the origin is itself a summary node, a transit edge u->v has
      // the same cost as this splice, so either interpretation is
      // sound; a real cross-region edge leaves the region, so sp0 does
      // not reach v and the hop is taken below.)
      scratch.seg.clear();
      if (ctx.sp0->append_path_to(v, scratch.seg)) {
        out.insert(out.end(), scratch.seg.begin() + 1, scratch.seg.end());
        continue;
      }
    }
    const core::RegionId transit = summary_edge_region(u, v);
    if (valid_region(transit)) {
      // Transit edge: splice the owning region's path u..v.
      const net::ShortestPaths* sp =
          region_snaps_[transit.index()]->paths_from(u);
      assert(sp != nullptr);  // transit edges are built from these memos
      scratch.seg.clear();
      if (sp->append_path_to(v, scratch.seg)) {
        out.insert(out.end(), scratch.seg.begin() + 1, scratch.seg.end());
      }
      continue;
    }
    out.push_back(v);  // real cross-region hop
  }
}

core::RegionId MetroView::summary_edge_region(core::NodeId u,
                                              core::NodeId v) const {
  // A transit edge joins two borders of the region it crosses, so a hop
  // between regions is a cross-region link without a lookup.
  const core::RegionId r = regions_->region_of(u);
  if (r != regions_->region_of(v) || !valid_region(r)) return core::kNoRegion;
  const std::uint32_t from = summary_graph_.index_of(u);
  const std::uint32_t to = summary_graph_.index_of(v);
  if (from == net::Graph::kNoIndex || to == net::Graph::kNoIndex) {
    return core::kNoRegion;
  }
  const std::uint32_t e = summary_graph_.find_edge(from, to);
  return e == net::Graph::kNoIndex ? core::kNoRegion : summary_region_[e];
}

sim::SimDuration MetroView::candidate_path_into(
    const QueryContext& ctx, core::NodeId origin, core::NodeId server,
    std::vector<core::NodeId>& path, PathScratch& scratch) const {
  path.clear();
  const core::RegionId rs = regions_->region_of(server);
  if (rs == ctx.region) {
    ctx.sp0->append_path_to(server, path);
    return ctx.sp0->distance_to(server);
  }
  // Unknown region: unreachable.
  if (!valid_region(rs)) return sim::SimDuration::max();

  // Cheapest entry border of the server's region: summary distance to the
  // border plus region distance border -> server. Borders are sorted, so
  // "first minimum wins" is the deterministic smallest-id tie-break.
  const RankSnapshot& snap = *region_snaps_[rs.index()];
  core::NodeId best_border = core::kInvalidNode;
  sim::SimDuration best_total = sim::SimDuration::max();
  const net::ShortestPaths* best_tail = nullptr;
  for (const core::NodeId b : borders_by_region_[rs.index()]) {
    const sim::SimDuration ds = ctx.summary_sp.distance_to(b);
    if (ds == sim::SimDuration::max()) continue;
    const net::ShortestPaths* tail = snap.paths_from(b);
    if (tail == nullptr) continue;
    const sim::SimDuration dt = tail->distance_to(server);
    if (dt == sim::SimDuration::max()) continue;
    const sim::SimDuration total = ds + dt;
    if (best_border == core::kInvalidNode || total < best_total) {
      best_border = b;
      best_total = total;
      best_tail = tail;
    }
  }
  if (best_border == core::kInvalidNode) return sim::SimDuration::max();

  // The border's expanded summary prefix, memoised for this compile.
  auto prefix = std::lower_bound(
      scratch.prefixes.begin(), scratch.prefixes.end(), best_border,
      [](const PathScratch::Prefix& p, core::NodeId b) {
        return p.border < b;
      });
  if (prefix == scratch.prefixes.end() || prefix->border != best_border) {
    expand_summary_path_into(ctx, origin, best_border, path, scratch);
    const std::size_t begin = scratch.prefix_nodes.size();
    scratch.prefix_nodes.insert(scratch.prefix_nodes.end(), path.begin(),
                                path.end());
    scratch.prefixes.insert(
        prefix, PathScratch::Prefix{best_border, begin,
                                    scratch.prefix_nodes.size()});
  } else {
    const auto nodes = scratch.prefix_nodes.begin();
    path.assign(nodes + static_cast<std::ptrdiff_t>(prefix->begin),
                nodes + static_cast<std::ptrdiff_t>(prefix->end));
  }
  scratch.seg.clear();
  best_tail->append_path_to(server, scratch.seg);
  if (path.empty() || scratch.seg.empty()) {
    path.clear();  // defensive: treat as unreachable
    return best_total;
  }
  path.insert(path.end(), scratch.seg.begin() + 1, scratch.seg.end());
  return best_total;
}

void MetroView::rank_topk_into(core::NodeId origin,
                               const core::NodeId* candidates,
                               std::size_t count, RankingMetric metric,
                               sim::SimTime now, std::size_t top_k,
                               RankScratch& scratch,
                               std::vector<ServerRank>& out) const {
  // Fused SoA kernel + deterministic top-k selection over the origin's
  // plane (DESIGN.md §15). An origin with no context, or one its region
  // memo does not know, has no compiled rows: the kernel over an empty
  // plane ranks every candidate unreachable, ordered by id.
  const QueryContext* ctx = query_context(origin);
  const RankPlane& plane =
      ctx != nullptr ? plane_for(origin, *ctx, candidates, count) : kNoPlane;
  rank_plane_into(*map_, *cfg_, plane, candidates, count, metric, now, top_k,
                  scratch.plane, out);
}

std::vector<ServerRank> MetroView::rank(
    core::NodeId origin, const std::vector<core::NodeId>& candidates,
    RankingMetric metric, sim::SimTime now) const {
  // intsched-lint: allow(hot-alloc): allocating overload contract
  std::vector<ServerRank> out;
  rank_topk_into(origin, candidates.data(), candidates.size(), metric, now,
                 candidates.size(), thread_scratch(), out);
  return out;
}

std::optional<ServerRank> MetroView::pick_with(
    core::NodeId origin, const core::NodeId* candidates, std::size_t count,
    RankingMetric metric, sim::SimTime now, RankScratch& scratch,
    PickStats* stats) const {
  if (count == 0) {
    if (stats != nullptr) *stats = PickStats{};
    return std::nullopt;
  }
  const QueryContext* ctx = query_context(origin);
  if (ctx == nullptr || ctx->sp0 == nullptr ||
      metric != RankingMetric::kDelay) {
    // Bandwidth has no admissible region lower bound (a distant region
    // can still win); unknown origins rank everything unreachable. Both
    // take the front of the full ranking.
    rank_topk_into(origin, candidates, count, metric, now, 1, scratch,
                   scratch.ranked);
    if (stats != nullptr) {
      PickStats local{};
      local.regions_considered = 1;
      local.candidates_scored = static_cast<std::int64_t>(count);
      *stats = local;
    }
    return scratch.ranked.front();
  }
  const RankPlane& plane = plane_for(origin, *ctx, candidates, count);

  // Group candidates by region, keeping candidate order within a group:
  // tag each candidate with (region, original index) and sort — the
  // index tie-break keeps each group in candidate order without
  // per-query node allocations.
  scratch.grouped.clear();
  for (std::size_t i = 0; i < count; ++i) {
    RankScratch::Grouped g;
    g.region = regions_->region_of(candidates[i]);
    g.index = i;
    g.server = candidates[i];
    scratch.grouped.push_back(g);
  }
  std::sort(scratch.grouped.begin(), scratch.grouped.end(),
            [](const RankScratch::Grouped& a, const RankScratch::Grouped& b) {
              if (a.region != b.region) return a.region < b.region;
              return a.index < b.index;
            });

  // Admissible lower bound per region: every path into region r enters
  // through a border, so no server there can beat the cheapest border
  // arrival (queue terms only add). The origin's own region starts at 0.
  scratch.order.clear();
  for (std::size_t begin = 0; begin < scratch.grouped.size();) {
    std::size_t end = begin;
    while (end < scratch.grouped.size() &&
           scratch.grouped[end].region == scratch.grouped[begin].region) {
      ++end;
    }
    RankScratch::GroupBound gb;
    gb.region = scratch.grouped[begin].region;
    gb.begin = begin;
    gb.end = end;
    if (valid_region(gb.region)) {
      gb.bound = ctx->region_bound[gb.region.index()];
    }
    scratch.order.push_back(gb);
    begin = end;
  }
  std::sort(scratch.order.begin(), scratch.order.end(),
            [](const RankScratch::GroupBound& a,
               const RankScratch::GroupBound& b) {
              if (a.bound != b.bound) return a.bound < b.bound;
              return a.region < b.region;
            });

  // One gather epoch and one running (delay, server id) incumbent for
  // the whole pick: a device queried while scoring one region is not
  // re-queried when a later region's paths cross it, later groups are
  // scored against an already tight bound (the argmin's static-delay
  // short-circuit skips most of their rows), and the full ServerRank is
  // materialized exactly once at the end.
  scratch.plane.begin(plane);
  PlaneIncumbent best;
  PickStats local{};
  for (const RankScratch::GroupBound& gb : scratch.order) {
    // Strict >: a region whose bound *ties* the best estimate can still
    // hold the tie-breaking (smaller-id) winner, so only a strictly
    // worse bound may be pruned.
    if (best.found && gb.bound > best.delay) {
      ++local.regions_pruned;
      continue;
    }
    ++local.regions_considered;
    const std::size_t group_size = gb.end - gb.begin;
    local.candidates_scored += static_cast<std::int64_t>(group_size);
    scratch.group_servers.clear();
    for (std::size_t i = 0; i < group_size; ++i) {
      scratch.group_servers.push_back(scratch.grouped[gb.begin + i].server);
    }
    pick_plane_argmin(*cfg_, *map_, plane, scratch.group_servers.data(),
                      group_size, now, scratch.plane, best);
  }
  if (stats != nullptr) *stats = local;
  ServerRank r;
  plane_detail::fill_rank(
      *cfg_, *map_, plane, scratch.plane, plane.row_for(best.server),
      best.server, best.delay, now, map_->config().nominal_capacity.bps(),
      map_->config().link_staleness > sim::SimDuration::zero(), r);
  return r;
}

std::optional<ServerRank> MetroView::pick(
    core::NodeId origin, const std::vector<core::NodeId>& candidates,
    RankingMetric metric, sim::SimTime now, PickStats* stats) const {
  return pick_with(origin, candidates.data(), candidates.size(), metric, now,
                   thread_scratch(), stats);
}

// ---------------------------------------------------------------------------
// ShardedNetworkMap

ShardedNetworkMap::ShardedNetworkMap(RegionAssignment regions,
                                     ShardedMapConfig config)
    : regions_{std::make_shared<const RegionAssignment>(std::move(regions))},
      ranker_{std::make_shared<const RankerConfig>(config.ranker)},
      map_{config.map} {
  LockGuard lock{mutex_};
  publish_locked();  // empty epoch-0 view so view() is never null
}

void ShardedNetworkMap::publish_locked() {
  view_.store(std::make_shared<const MetroView>(
                  regions_, std::make_shared<const NetworkMap>(map_), ranker_),
              std::memory_order_release);
  ++publishes_;
}

void ShardedNetworkMap::ingest(const telemetry::ProbeReport& report,
                               sim::SimTime now) {
  LockGuard lock{mutex_};
  map_.ingest(report, now);
  publish_locked();
}

void ShardedNetworkMap::ingest_batch(
    const std::vector<telemetry::ProbeReport>& reports, sim::SimTime now) {
  // Nothing to apply: republishing would only drop the warm per-origin
  // query contexts.
  if (reports.empty()) return;
  LockGuard lock{mutex_};
  for (const telemetry::ProbeReport& report : reports) {
    map_.ingest(report, now);
  }
  publish_locked();
}

std::int64_t ShardedNetworkMap::reports_ingested() const {
  LockGuard lock{mutex_};
  return map_.reports_ingested();
}

std::int64_t ShardedNetworkMap::rejected_entries() const {
  LockGuard lock{mutex_};
  return map_.rejected_entries();
}

std::int64_t ShardedNetworkMap::region_snapshot_builds() const {
  return view_publishes() * view()->region_count().value();
}

std::int64_t ShardedNetworkMap::view_publishes() const {
  LockGuard lock{mutex_};
  return publishes_;
}

}  // namespace intsched::core
