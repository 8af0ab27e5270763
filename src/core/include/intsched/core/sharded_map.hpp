#pragma once

// Region-sharded scheduler state + two-level (metro) ranking: the one
// concurrent read path of the scheduler (DESIGN.md §10-§11). A flat map
// is the one-region case — every node assigned to region 0, no summary
// links, no borders — and ranks byte-identically to core::Ranker.
//
// A metro deployment (net::TopologyGen::ring_of_pods) has thousands of
// switches but strong locality: almost every link is intra-pod, and pods
// are delay-isolated (ring latency dominates any intra-pod path). A
// metro-wide delay graph makes every epoch's first rank() per origin pay
// a metro-wide Dijkstra. ShardedNetworkMap keeps its telemetry in one
// NetworkMap but shards its routing: each region (pod) gets a delay
// graph of the links with both ends in it, and every other link becomes
// a summary arc. A publish copies the map and builds one self-contained
// MetroView from the copy, every region's RankSnapshot included, so a
// view is a function of its map. Queries are answered from the view in
// two levels: region-local shortest paths plus a summary-graph traversal
// whose nodes are only the border gateways.
//
// This header is a sanctioned concurrent component: the atomics below are
// the published-view pointer (RCU-style read path) and the view's relaxed
// observability counters.
// intsched-lint: allow-file(thread-share): concurrent facade by design;
//   see DESIGN.md §10-§11

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "intsched/core/contracts.hpp"
#include "intsched/core/network_map.hpp"
#include "intsched/core/rank_snapshot.hpp"
#include "intsched/core/ranking.hpp"
#include "intsched/core/thread_annot.hpp"
#include "intsched/net/topology_gen.hpp"

namespace intsched::core {

/// Static node -> region mapping the shards are keyed by, plus the nodes
/// provisioned as edge servers. In the paper's deployment shape both are
/// provisioning data (which pod a device was installed in, which hosts
/// run the edge service), not something inferred from telemetry, so they
/// are fixed at construction.
class RegionAssignment {
 public:
  RegionAssignment() = default;
  /// `servers` names the provisioned edge servers in any order (kept
  /// sorted and unique). An assignment that names none makes every
  /// origin's rank plane compile every node its view knows.
  RegionAssignment(std::vector<core::RegionId> by_node, core::RegionId count,
                   std::vector<core::NodeId> servers = {});

  /// Regions from GenNode::region, servers from GenNode::edge_server.
  [[nodiscard]] static RegionAssignment from_topology(
      const net::GenTopology& topo);

  [[nodiscard]] core::RegionId region_of(core::NodeId n) const {
    if (!n.valid() || n.index() >= by_node_.size()) {
      return core::kNoRegion;
    }
    return by_node_[n.index()];
  }
  [[nodiscard]] core::RegionId count() const { return count_; }
  /// Provisioned edge servers, ascending (empty = none named).
  [[nodiscard]] const std::vector<core::NodeId>& servers() const {
    return servers_;
  }

 private:
  std::vector<core::RegionId> by_node_;
  core::RegionId count_{0};
  std::vector<core::NodeId> servers_;
};

struct ShardedMapConfig {
  NetworkMapConfig map{};
  RankerConfig ranker{};
};

/// Observability for MetroView::pick's region pruning.
struct PickStats {
  std::int64_t regions_considered = 0;
  std::int64_t regions_pruned = 0;
  std::int64_t candidates_scored = 0;
};

/// Immutable two-level ranking view over one publish epoch: a frozen copy
/// of the map's telemetry, per-region RankSnapshots (delay graph plus
/// Dijkstra memo), and the summary graph (the links no region graph
/// holds + per-region transit edges whose costs are region shortest-path
/// distances, each edge tagged with the region it crosses).
///
/// Thread-safety model mirrors RankSnapshot: everything is frozen at
/// construction except three lazy memos, each filled once under its own
/// std::once_flag: the per-origin query contexts (one slot per known
/// node, slot set fixed at construction and found through a dense node
/// id index), each context's fallback plane, and the view's telemetry
/// catalog, which the first context build fills and every plane of the
/// view indexes by the map's own link slots. The constructor builds every
/// region snapshot from the view's own map, and no other view shares
/// them, so a view is a function of its map, assignment and config.
///
/// Determinism / exactness: every query scores through one of the
/// origin's compiled rank planes (DESIGN.md §15), whose rows are the
/// paths assembled from region + summary shortest paths, and the plane
/// kernels are byte-identical to rank_candidates over those paths. A
/// server plane holds a row per provisioned server the view knows; a
/// query naming any other known node is answered from a fallback plane
/// over every known node, compiled on first need. When regions
/// are delay-isolated and shortest paths are unique (TopologyGen's jitter
/// regime), the assembled path IS the flat shortest path and rank()
/// agrees with Ranker field-exactly; the general error bound is DESIGN.md
/// §11. A one-region view has no summary level at all, so it agrees
/// unconditionally.
class MetroView {
 public:
  /// Reusable buffers for the allocation-free query entry points
  /// (rank_topk_into / pick_with). Every vector retains its
  /// capacity across calls, so after a warm-up pass over the working set
  /// (origins seen, candidate counts seen), a query performs zero heap
  /// allocations (the analyzer's hot-alloc rule + the serve
  /// allocation-counting test enforce this). One scratch per thread;
  /// never shared.
  struct RankScratch {
    /// pick_with's region grouping: candidates tagged with their region
    /// and original position, sorted to form contiguous groups.
    struct Grouped {
      core::RegionId region = core::kNoRegion;
      std::size_t index = 0;
      core::NodeId server = core::kInvalidNode;
    };
    std::vector<Grouped> grouped;
    /// One entry per region group: admissible delay lower bound plus the
    /// group's [begin, end) range in `grouped`.
    struct GroupBound {
      sim::SimDuration bound = sim::SimDuration::max();
      core::RegionId region = core::kNoRegion;
      std::size_t begin = 0;
      std::size_t end = 0;
    };
    std::vector<GroupBound> order;
    /// pick_with's full-ranking fallback output (bandwidth metric,
    /// unknown origin).
    std::vector<ServerRank> ranked;
    /// Gather + selection scratch for the compiled-plane kernels
    /// (DESIGN.md §15); epoch-stamped, safe to reuse across origins.
    PlaneScratch plane;
    /// pick_with's per-group candidate ids for the plane argmin.
    std::vector<core::NodeId> group_servers;
  };

  /// Builds the view of `map`, the frozen telemetry: one pass splits its
  /// links into each region's links (both ends in the region) and the
  /// summary links (ends in different regions or outside every region),
  /// then every region's snapshot, the borders and the summary graph are
  /// built from them. The view's epoch is the map's.
  MetroView(std::shared_ptr<const RegionAssignment> regions,
            std::shared_ptr<const NetworkMap> map,
            std::shared_ptr<const RankerConfig> config);

  MetroView(const MetroView&) = delete;
  MetroView& operator=(const MetroView&) = delete;

  /// Two-level ranking, identical output contract to Ranker::rank (best
  /// first, server-id tie-break, unreachable last with delay = max /
  /// bandwidth = 0): rank_topk_into with top_k = candidates.size(), from
  /// a per-thread scratch, so repeated calls on one thread allocate only
  /// the returned vector.
  [[nodiscard]] INTSCHED_HOTPATH std::vector<ServerRank> rank(
      core::NodeId origin, const std::vector<core::NodeId>& candidates,
      RankingMetric metric, sim::SimTime now) const;

  /// The best min(top_k, count) entries of the ranking into caller-owned
  /// buffers: byte-identical to rank()'s first min(top_k, count) elements
  /// (the (key, server-id) total order makes the partial selection's
  /// prefix deterministic), but all working memory comes from `scratch`
  /// and `out`, so a warmed-up caller allocates nothing. Runs the fused
  /// plane kernel over the origin's compiled plane — no path re-walk, one
  /// telemetry gather per distinct device; an unknown origin runs it over
  /// an empty plane, so every candidate ranks unreachable, ordered by id.
  /// This is the ServeFrontend multi-result entry point (DESIGN.md §13,
  /// §15).
  INTSCHED_HOTPATH void rank_topk_into(core::NodeId origin,
                                       const core::NodeId* candidates,
                                       std::size_t count, RankingMetric metric,
                                       sim::SimTime now, std::size_t top_k,
                                       RankScratch& scratch,
                                       std::vector<ServerRank>& out) const;

  /// Best single candidate — exactly rank(...)[0] — but for the delay
  /// metric whole regions are pruned by lower bound (a region whose
  /// cheapest entry already costs more than the best full estimate seen
  /// cannot win), so most regions are never scored. `stats`, when
  /// non-null, reports how much work the pruning saved; every field is
  /// written on every return, so a reused PickStats never carries an
  /// earlier pick's counts.
  [[nodiscard]] INTSCHED_HOTPATH std::optional<ServerRank> pick(
      core::NodeId origin, const std::vector<core::NodeId>& candidates,
      RankingMetric metric, sim::SimTime now,
      PickStats* stats = nullptr) const;

  /// pick() from caller-owned scratch — same answer, zero allocations
  /// once warm (the wrapper relationship mirrors rank/rank_topk_into).
  /// For the delay metric the per-group scoring is the plane's k=1 argmin
  /// carrying one (delay, server id) incumbent across region groups.
  [[nodiscard]] INTSCHED_HOTPATH std::optional<ServerRank> pick_with(
      core::NodeId origin, const core::NodeId* candidates, std::size_t count,
      RankingMetric metric, sim::SimTime now, RankScratch& scratch,
      PickStats* stats = nullptr) const;

  /// Publish epoch: the owning map's ingest epoch at publish time.
  [[nodiscard]] Epoch epoch() const { return epoch_; }
  [[nodiscard]] core::RegionId region_count() const {
    return core::RegionId{static_cast<std::int32_t>(region_snaps_.size())};
  }
  /// Region snapshot (never null for a valid region id).
  [[nodiscard]] const RankSnapshot& region_snapshot(core::RegionId r) const {
    return *region_snaps_[r.index()];
  }
  /// The frozen telemetry every answer of the view reads.
  [[nodiscard]] const NetworkMap& map() const { return *map_; }
  [[nodiscard]] const RankerConfig& config() const { return *cfg_; }

  /// Plane rows compiled so far over every origin, server and fallback
  /// planes alike (observability for tests and benches; relaxed counter,
  /// exact only after threads quiesce).
  [[nodiscard]] std::int64_t rows_compiled() const {
    // intsched-lint: allow(atomic-ordering): quiescent counter read
    return rows_compiled_.load(std::memory_order_relaxed);
  }
  /// Directed links the view's telemetry catalog resolved: 0 until the
  /// first context build fills it, then every link the view learned (the
  /// same relaxed, quiescent-exact counter as rows_compiled()).
  [[nodiscard]] std::int64_t catalog_links() const {
    // intsched-lint: allow(atomic-ordering): quiescent counter read
    return catalog_links_.load(std::memory_order_relaxed);
  }

 private:
  /// Everything the two-level query path derives, per origin, memoized
  /// once: the origin's region, its region-local shortest paths (borrowed
  /// from the region snapshot's memo), and a Dijkstra run over the view's
  /// summary graph plus synthetic origin->border edges costed by the
  /// region-local distances.
  struct QueryContext {
    core::RegionId region = core::kNoRegion;
    /// The origin's region tree; null when the origin's region graph does
    /// not know it, and then the context compiled nothing.
    const net::ShortestPaths* sp0 = nullptr;
    net::ShortestPaths summary_sp;
    /// Admissible per-region delay lower bound (cheapest border arrival,
    /// 0 for the origin's own region), indexed by RegionId. Frozen at
    /// context build so pick_with reads one contiguous array instead of
    /// hashing into summary_sp per border per query.
    std::vector<sim::SimDuration> region_bound;
    /// Compiled rank plane over plane_nodes_ — the provisioned servers
    /// the view knows, or every known node when the assignment names no
    /// servers (DESIGN.md §15): the two-level candidate paths resolved
    /// once at context build, frozen into the CSR arena over the view's
    /// catalog. Empty while sp0 is null.
    RankPlane plane;
    /// Fallback plane over every node the view knows, for a query naming
    /// a known node `plane` has no row for (a non-server host, a switch,
    /// the origin itself). Filled under its own once_flag by the first
    /// such query; all-server queries never fill it.
    mutable std::once_flag fallback_once;
    mutable RankPlane fallback_plane;
  };
  /// One per known node. The context is allocated by the fill, so a node
  /// that never queries as an origin costs the flag and a null pointer.
  struct CtxSlot {
    mutable std::once_flag once;
    mutable std::unique_ptr<QueryContext> ctx;
  };

  [[nodiscard]] bool valid_region(core::RegionId r) const {
    return r.valid() && r.index() < region_snaps_.size();
  }
  /// `n`'s position in ctx_nodes_, or RankPlane::kNoRow when the view
  /// does not know it: one bounds check and one load.
  [[nodiscard]] std::uint32_t node_row(core::NodeId n) const {
    return n.valid() && n.index() < node_rows_.size() ? node_rows_[n.index()]
                                                      : RankPlane::kNoRow;
  }

  /// Memoized query context for `origin` (nullptr when the origin is
  /// unknown to every region graph; a stable address once filled).
  /// Lock-free after the once-fill.
  [[nodiscard]] const QueryContext* query_context(core::NodeId origin) const;
  [[nodiscard]] INTSCHED_COLDPATH std::unique_ptr<QueryContext>
  build_context(core::NodeId origin) const;
  /// The view's telemetry catalog (DESIGN.md §15), filled by the first
  /// call (a context build).
  [[nodiscard]] INTSCHED_COLDPATH const PlaneCatalog& catalog() const;
  /// The plane that answers `candidates` from `ctx`: its server plane,
  /// unless some candidate the view knows has no row there, in which
  /// case the fallback plane (filled on first use). Unknown ids and
  /// kInvalidNode have a row in neither plane, so they never force it.
  [[nodiscard]] const RankPlane& plane_for(
      core::NodeId origin, const QueryContext& ctx,
      const core::NodeId* candidates, std::size_t count) const;
  /// Compiles ctx's rows for `nodes` (plane_nodes_ or ctx_nodes_) into
  /// `out`, whose row index is `rows` (server_rows_ or node_rows_).
  INTSCHED_COLDPATH void compile_plane(const QueryContext& ctx,
                                       core::NodeId origin,
                                       const std::vector<core::NodeId>& nodes,
                                       const std::vector<std::uint32_t>& rows,
                                       RankPlane& out) const;

  /// Summary-spine and region-segment buffers for path assembly, reused
  /// across the candidates of one plane compile, and that compile's
  /// expanded summary prefixes: every server of a region entered through
  /// the same border shares the prefix, so each border is expanded once.
  struct PathScratch {
    std::vector<core::NodeId> spine;
    std::vector<core::NodeId> seg;
    /// prefix_nodes[begin, end) is `border`'s expanded prefix; ascending
    /// by border.
    struct Prefix {
      core::NodeId border = core::kInvalidNode;
      std::size_t begin = 0;
      std::size_t end = 0;
    };
    std::vector<Prefix> prefixes;
    std::vector<core::NodeId> prefix_nodes;
  };

  /// Resolves one candidate to its concrete node path, written into
  /// `path` (empty = unreachable), and returns its pure link-delay
  /// distance: region-local for same-region servers, otherwise cheapest
  /// entry border (summary distance + region distance, smallest border
  /// id on ties) with the summary path expanded through region snapshots.
  INTSCHED_COLDPATH sim::SimDuration candidate_path_into(
      const QueryContext& ctx, core::NodeId origin, core::NodeId server,
      std::vector<core::NodeId>& path, PathScratch& scratch) const;
  INTSCHED_COLDPATH void expand_summary_path_into(
      const QueryContext& ctx, core::NodeId origin, core::NodeId border,
      std::vector<core::NodeId>& out, PathScratch& scratch) const;
  /// Tag of the summary edge u -> v: the region a transit edge crosses,
  /// kNoRegion for a cross-region link or when there is no such edge.
  [[nodiscard]] core::RegionId summary_edge_region(core::NodeId u,
                                                   core::NodeId v) const;

  std::shared_ptr<const RegionAssignment> regions_;
  std::vector<std::unique_ptr<const RankSnapshot>> region_snaps_;
  std::shared_ptr<const NetworkMap> map_;
  /// Per region, ascending: its nodes that are an end of a summary link.
  std::vector<std::vector<core::NodeId>> borders_by_region_;
  std::shared_ptr<const RankerConfig> cfg_;
  Epoch epoch_ = Epoch::none();
  /// Summary links + per-region transit edges (border -> border within a
  /// region, costed by region shortest-path distance). Every context's
  /// summary tree runs over it, plus its origin's entry edges.
  net::Graph summary_graph_;
  /// Region tag per summary edge, indexed like the graph's edges: the
  /// region a transit edge crosses, kNoRegion for a summary link.
  std::vector<core::RegionId> summary_region_;
  /// Nodes known to any region graph or the summary graph, ascending;
  /// ctx_slots_[i] is ctx_nodes_[i]'s query context. Fixed at
  /// construction, one contiguous slot array per view.
  std::vector<core::NodeId> ctx_nodes_;
  std::unique_ptr<CtxSlot[]> ctx_slots_;
  /// Node id -> position in ctx_nodes_ (RankPlane::kNoRow elsewhere),
  /// as long as the largest known id: a node's context slot, and its row
  /// in every fallback plane, which adds its rows in ctx_nodes_ order.
  std::vector<std::uint32_t> node_rows_;
  /// Rows of every origin's server plane, ascending: the provisioned
  /// servers found in ctx_nodes_, or all of ctx_nodes_ when the
  /// assignment names no servers.
  std::vector<core::NodeId> plane_nodes_;
  /// Node id -> position in plane_nodes_: every server plane's row index.
  std::vector<std::uint32_t> server_rows_;
  mutable std::once_flag catalog_once_;
  mutable PlaneCatalog catalog_;
  mutable std::atomic<std::int64_t> rows_compiled_{0};
  mutable std::atomic<std::int64_t> catalog_links_{0};
};

/// Thread-safe scheduler state: one NetworkMap fed by concurrent probe
/// ingest, with region-sharded routing, answering concurrent candidate
/// queries — the deployment shape of the paper's scheduler process
/// (collector thread(s) ingesting INT reports while RPC threads rank).
/// Ingest is NetworkMap::ingest under the writer lock; a publish copies
/// the map and builds one MetroView from the copy, and queries run
/// lock-free over the published view (view()->rank/pick). A flat
/// deployment is the one-region assignment
/// (RegionAssignment{by_node all region 0, 1}).
///
/// Equivalence contract (property-tested): for any report sequence, the
/// view's rank() agrees with core::Ranker over a flat NetworkMap fed the
/// same reports — byte-exactly on one region and when regions are
/// delay-isolated with unique shortest paths, within the DESIGN.md §11
/// bound otherwise.
class ShardedNetworkMap {
 public:
  explicit ShardedNetworkMap(RegionAssignment regions,
                             ShardedMapConfig config = {});

  ShardedNetworkMap(const ShardedNetworkMap&) = delete;
  ShardedNetworkMap& operator=(const ShardedNetworkMap&) = delete;

  /// Ingests one probe report and publishes a fresh view before
  /// returning — the freshness contract: a query issued after ingest()
  /// of report N returns observes a view with epoch() >= N.
  INTSCHED_COLDPATH void ingest(const telemetry::ProbeReport& report,
                                sim::SimTime now) INTSCHED_EXCLUDES(mutex_);

  /// Coalesces a burst into one critical section + one publish (the
  /// collector's probing-interval batch maps onto exactly one view
  /// epoch). Equivalent to ingesting each report at `now` in order; an
  /// empty batch is a no-op that keeps the published view, warm query
  /// contexts included.
  INTSCHED_COLDPATH void ingest_batch(
      const std::vector<telemetry::ProbeReport>& reports,
      sim::SimTime now) INTSCHED_EXCLUDES(mutex_);

  /// Currently published view; never null after construction. Every
  /// query reads through it.
  [[nodiscard]] std::shared_ptr<const MetroView> view() const {
    return view_.load(std::memory_order_acquire);
  }

  [[nodiscard]] core::RegionId region_count() const {
    return regions_->count();
  }
  /// Static provisioning lookup (no lock: the assignment is immutable).
  [[nodiscard]] core::RegionId region_of(core::NodeId n) const {
    return regions_->region_of(n);
  }
  [[nodiscard]] std::int64_t reports_ingested() const
      INTSCHED_EXCLUDES(mutex_);
  [[nodiscard]] std::int64_t rejected_entries() const
      INTSCHED_EXCLUDES(mutex_);
  /// Region snapshots built over the map's lifetime: every publish
  /// builds every region's, so this is view_publishes() × region count.
  [[nodiscard]] std::int64_t region_snapshot_builds() const
      INTSCHED_EXCLUDES(mutex_);
  [[nodiscard]] std::int64_t view_publishes() const INTSCHED_EXCLUDES(mutex_);

 private:
  INTSCHED_COLDPATH void publish_locked() INTSCHED_REQUIRES(mutex_);

  std::shared_ptr<const RegionAssignment> regions_;
  mutable AnnotatedMutex mutex_;
  /// The config's ranker as published views read it: one immutable copy,
  /// built at construction and shared by every view.
  const std::shared_ptr<const RankerConfig> ranker_;
  NetworkMap map_ INTSCHED_GUARDED_BY(mutex_);
  std::int64_t publishes_ INTSCHED_GUARDED_BY(mutex_) = 0;
  /// Published view: written under mutex_ (release), read lock-free
  /// (acquire). Deliberately NOT GUARDED_BY — lock-free reads are the
  /// point; the atomic itself provides the ordering.
  std::atomic<std::shared_ptr<const MetroView>> view_;
};

}  // namespace intsched::core
