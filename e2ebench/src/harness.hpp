#pragma once

// Building blocks shared by the workloads: the span tracer, one set-up
// of the serving system (map, INT collectors, report batcher,
// frontend), and the closed-loop client that sends wire frames through
// ServeFrontend::serve — or, when traced, replays serve()'s own call
// sequence with a span around each public call.
//
// intsched-lint: allow-file(thread-share): System's per-origin query marks
//   are read by both pod_rank clients

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "bench_math.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/net/node.hpp"
#include "intsched/net/topology_gen.hpp"
#include "intsched/serve/frontend.hpp"
#include "intsched/serve/wire.hpp"
#include "intsched/sim/simulator.hpp"
#include "intsched/telemetry/collector.hpp"
#include "intsched/telemetry/report_batcher.hpp"

namespace e2ebench {

using namespace intsched;

/// Throughput is reported per slice of the timed window (see Client).
inline constexpr std::int64_t kSliceNs = 1000000000;

/// Monotonic wall clock in ns; every duration the benchmark reports is
/// a difference of two of these.
[[nodiscard]] std::int64_t now_ns();
/// Current resident set, MB (from /proc/self/statm).
[[nodiscard]] double rss_mb();
/// Largest resident set so far, MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

enum SpanName : std::uint32_t {
  kRequest,       ///< one request, wire to wire
  kClientCodec,   ///< client encode_rank_request / decode_rank_response
  kServe,         ///< the replayed ServeFrontend::serve
  kDecode,        ///< decode_rank_request
  kValidate,      ///< candidate resolution (is_registered per candidate)
  kView,          ///< ShardedNetworkMap::view
  kRegionFill,    ///< RankSnapshot::paths_from that filled the memo
  kRegionMemo,    ///< RankSnapshot::paths_from that found it filled
  kPick,          ///< MetroView::pick_with, origin warm in this view
  kPickCold,      ///< MetroView::pick_with, origin's first query in view
  kRankTopk,      ///< MetroView::rank_topk_into, origin warm
  kRankTopkCold,  ///< MetroView::rank_topk_into, origin's first query
  kEncode,        ///< encode_rank_response
  kPublish,       ///< one probe burst, first probe to published view
  kCollect,       ///< IntCollector::handle_packet
  kFlush,         ///< ReportBatcher::flush
  kIngest,        ///< ShardedNetworkMap::ingest_batch
  kSpanNames
};
[[nodiscard]] const char* span_name(std::uint32_t n);

/// In-memory span recorder for one thread. Spans are grouped by request
/// (or probe burst); when a group ends its self times are folded into
/// per-name samples, and the first `keep` spans are retained verbatim
/// for the trace file written when the run ends.
class Tracer {
 public:
  explicit Tracer(std::size_t keep = std::size_t{1} << 16);

  void begin(std::uint64_t group);
  std::int32_t open(SpanName name);
  void close(std::int32_t span);
  void rename(std::int32_t span, SpanName name);
  void end();

  /// Self time of every call of `name`.
  [[nodiscard]] ExactSamples& calls(SpanName name) { return calls_[name]; }
  /// Per group, the summed self time of the group's `name` calls.
  [[nodiscard]] ExactSamples& per_group(SpanName name) {
    return per_group_[name];
  }
  void merge(const Tracer& other);
  /// One JSON object per retained span.
  void write(std::ostream& os, const char* phase) const;

 private:
  std::vector<Span> group_;
  std::vector<std::int64_t> self_;
  std::int32_t current_ = -1;
  std::uint64_t group_id_ = 0;
  std::vector<ExactSamples> calls_;
  std::vector<ExactSamples> per_group_;
  std::vector<Span> kept_;
  std::vector<std::int64_t> kept_self_;
  std::size_t keep_;
};

/// Opens a span on construction and closes it on scope exit; a no-op
/// without a tracer, so the traced and untraced paths share code.
class SpanScope {
 public:
  SpanScope(Tracer* t, SpanName name)
      : t_{t}, id_{t != nullptr ? t->open(name) : -1} {}
  ~SpanScope() {
    if (t_ != nullptr) t_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Tracer* t_;
  std::int32_t id_;
};

/// A probe packet as it reaches its destination host, plus the latency
/// of its last hop (the last switch stamps its egress time from it).
struct Probe {
  net::Packet packet;
  sim::SimDuration final_hop = sim::SimDuration::nanos(-1);
};
[[nodiscard]] Probe to_probe(const telemetry::ProbeReport& report);

/// One request as the workload generates it before the clock starts.
struct RequestSpec {
  core::NodeId origin = core::kInvalidNode;
  core::RankingMetric metric = core::RankingMetric::kDelay;
  std::uint8_t max_results = 1;
  std::uint8_t candidate_count = 0;  ///< 0 = the frontend's whole registry
  std::array<core::NodeId, 4> candidates{};
};

/// Everything a workload generates from its seed.
struct Inputs {
  net::GenTopology topo;
  std::vector<core::NodeId> hosts;
  std::vector<core::NodeId> servers;
  std::vector<Probe> sweep;                ///< initial full sweep
  std::vector<std::vector<Probe>> bursts;  ///< one per probing interval
  std::vector<RequestSpec> requests;       ///< cycled by request id
  std::size_t max_delivery = 0;            ///< largest sweep or burst
};

/// What one probe delivery cost and changed.
struct Delivery {
  /// Wall ns from the first probe until the new view is published.
  // intsched-lint: allow(raw-unit): wall-clock ns, not sim time
  std::int64_t publish_ns = 0;
  /// region_snapshot_builds(), reports_ingested() and the batcher's
  /// batches_emitted() deltas across the delivery.
  std::int64_t region_rebuilds = 0;
  std::int64_t reports = 0;
  std::int64_t batches = 0;
};

/// One set-up of the serving system over `in`: a ShardedNetworkMap with
/// serial region rebuilds, one IntCollector host per destination host,
/// a ReportBatcher sized to flush once per delivery, and a
/// ServeFrontend with every edge server registered. Construction
/// delivers the initial full sweep at sim time `t0`.
class System {
 public:
  System(Inputs& in, sim::SimTime t0, Tracer* tracer);
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Hands `probes` to their collectors at sim time `now` and flushes
  /// the batcher into ingest_batch.
  Delivery deliver(std::vector<Probe>& probes, sim::SimTime now,
                   Tracer* tracer);

  /// True the first time `origin` is queried in the view with `epoch`.
  bool first_query(core::NodeId origin, core::Epoch epoch);

  [[nodiscard]] const core::ShardedNetworkMap& map() const { return map_; }
  [[nodiscard]] const serve::ServeFrontend& frontend() const {
    return frontend_;
  }
  [[nodiscard]] bool is_server(core::NodeId n) const {
    return n.valid() && n.index() < is_server_.size() &&
           is_server_[n.index()] != 0;
  }
  [[nodiscard]] std::int64_t malformed() const;
  [[nodiscard]] std::int64_t undeliverable() const { return undeliverable_; }
  [[nodiscard]] sim::SimTime initial_time() const { return t0_; }
  /// The initial full-sweep delivery made by the constructor.
  [[nodiscard]] const Delivery& initial() const { return initial_; }

 private:
  sim::Simulator sim_;
  core::ShardedNetworkMap map_;
  std::vector<std::unique_ptr<net::Host>> hosts_;  ///< by node id
  std::vector<std::unique_ptr<telemetry::IntCollector>> collectors_;
  telemetry::ReportBatcher batcher_;
  serve::ServeFrontend frontend_;
  std::vector<char> is_server_;
  std::vector<std::atomic<std::int64_t>> last_query_epoch_;
  sim::SimTime now_ = sim::SimTime::zero();
  sim::SimTime t0_ = sim::SimTime::zero();
  Tracer* ingest_tracer_ = nullptr;
  std::int64_t undeliverable_ = 0;
  Delivery initial_;
  std::uint64_t deliveries_ = 0;
};

/// Per-thread client state: wire buffers, the frontend's per-thread
/// context, and what the client measured and checked.
struct Client {
  serve::ServeContext ctx;
  serve::RankRequest req;
  serve::RankResponse resp;
  std::array<std::byte, serve::kMaxFrameSize> req_buf{};
  std::array<std::byte, serve::kMaxFrameSize> resp_buf{};
  /// The frontend's own answer in the cross-check pass.
  std::array<std::byte, serve::kMaxFrameSize> check_buf{};
  std::vector<core::ServerRank> ranked;
  /// Set: requests replay serve() with spans (see answer()).
  Tracer* tracer = nullptr;
  /// Set: each request's wire-to-wire time is recorded.
  bool timed = false;
  ExactSamples latency_ns;
  /// Timed requests completed in each kSliceNs slice of the window that
  /// starts at window_start_ns.
  std::vector<std::int64_t> slice_counts;
  // intsched-lint: allow(raw-unit): wall-clock ns, not sim time
  std::int64_t window_start_ns = 0;
  DecisionFingerprint fingerprint;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Set: every request counts toward cold_queries and epochs_seen, not
  /// only fingerprinted ones (set-up warm-up).
  bool count_all = false;
  /// PickStats summed over the cross-check pass's pick_with calls.
  core::PickStats picks{};
  std::int64_t pick_calls = 0;
  /// Traced runs: counted requests that were an origin's first query in
  /// their view, and the views they were answered from.
  std::int64_t cold_queries = 0;
  std::vector<std::int64_t> epochs_seen;
};

/// Sends one request (encode, serve, decode), checks the answer, and
/// returns the wall clock at completion. Fingerprinted requests are
/// folded into the client's fingerprint and, when traced, its counts.
std::int64_t answer(Client& c, System& sys, const RequestSpec& spec,
                    std::uint64_t id, sim::SimTime now, bool fingerprinted);

/// Checks one request two ways, outside any timed window:
///  - ServeFrontend::serve and the benchmark's replay of it (the traced
///    path) must answer the same request frame with the same bytes;
///  - the region-pruned pick_with and rank_topk_into with k = 1 must
///    return the same server and delay. The pick's PickStats are added
///    to the client's counts. With a tracer, the entry point the
///    workload does not answer with (`uses_pick` says which it does) is
///    spanned.
/// Both frames are counted as requests and checked like any other.
bool cross_check(Client& c, System& sys, const RequestSpec& spec,
                 std::uint64_t id, sim::SimTime now, bool uses_pick);

}  // namespace e2ebench
