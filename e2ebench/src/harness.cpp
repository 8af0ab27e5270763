// intsched-lint: allow-file(thread-share): both pod_rank clients read the
//   per-origin query marks (atomics) of the system they share
#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <string>
#include <utility>

namespace e2ebench {

namespace {

constexpr std::int64_t kSpanDenseLimit = std::int64_t{1} << 14;
/// Span groups of probe bursts are numbered apart from request ids.
constexpr std::uint64_t kPublishGroup = std::uint64_t{1} << 62;
constexpr std::uint64_t kCheckGroup = std::uint64_t{1} << 61;

void fill_entry(serve::RankResponseEntry& e, const core::ServerRank& r) {
  e.server = r.server;
  e.stale = r.stale;
  e.delay_estimate = r.delay_estimate;
  e.baseline_delay = r.baseline_delay;
  e.bandwidth_estimate = r.bandwidth_estimate;
}

/// The ranking's (key, server id) order: ascending delay or descending
/// bandwidth, ties to the smaller server id.
bool strictly_before(const serve::RankResponseEntry& a,
                     const serve::RankResponseEntry& b,
                     core::RankingMetric metric) {
  if (metric == core::RankingMetric::kDelay) {
    if (a.delay_estimate != b.delay_estimate) {
      return a.delay_estimate < b.delay_estimate;
    }
  } else if (a.bandwidth_estimate != b.bandwidth_estimate) {
    return a.bandwidth_estimate > b.bandwidth_estimate;
  }
  return a.server < b.server;
}

/// A request fails on a non-OK status, a wrong entry count, a server
/// outside its candidate set (or repeated), or entries out of order.
bool response_valid(const serve::RankRequest& req,
                    const serve::RankResponse& resp, const System& sys) {
  if (resp.status != serve::ServeStatus::kOk ||
      resp.query_id != req.query_id) {
    return false;
  }
  const std::size_t pool = req.candidate_count == 0
                               ? sys.frontend().registered().size()
                               : req.candidate_count;
  if (resp.entry_count != std::min<std::size_t>(req.max_results, pool)) {
    return false;
  }
  for (std::size_t i = 0; i < resp.entry_count; ++i) {
    const core::NodeId s = resp.entries[i].server;
    const bool member =
        req.candidate_count == 0
            ? sys.is_server(s)
            : std::find(req.candidates.begin(),
                        req.candidates.begin() + req.candidate_count,
                        s) != req.candidates.begin() + req.candidate_count;
    if (!member) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (resp.entries[j].server == s) return false;
    }
    if (i > 0 &&
        !strictly_before(resp.entries[i - 1], resp.entries[i], req.metric)) {
      return false;
    }
  }
  return true;
}

void fill_request(serve::RankRequest& req, const RequestSpec& spec,
                  std::uint64_t id) {
  req.query_id = id;
  req.origin = spec.origin;
  req.metric = spec.metric;
  req.max_results = spec.max_results;
  req.candidate_count = spec.candidate_count;
  std::copy_n(spec.candidates.begin(), spec.candidate_count,
              req.candidates.begin());
}

/// Counts one request whose decoded answer is in c.resp (`ok` = it was
/// served and decoded) and checks that answer.
bool settle(Client& c, const System& sys, bool ok) {
  ok = ok && response_valid(c.req, c.resp, sys);
  ++c.attempted;
  if (!ok) ++c.failed;
  return ok;
}

/// Candidate resolution as ServeFrontend::serve does it: the whole
/// registry, or the explicit ids that are registered.
void resolve_candidates(const serve::ServeFrontend& fe,
                        const serve::RankRequest& req,
                        std::vector<core::NodeId>& scratch,
                        const core::NodeId*& out, std::size_t& count) {
  out = fe.registered().data();
  count = fe.registered().size();
  if (req.candidate_count != 0) {
    scratch.clear();
    for (std::size_t i = 0; i < req.candidate_count; ++i) {
      if (fe.is_registered(req.candidates[i])) {
        scratch.push_back(req.candidates[i]);
      }
    }
    out = scratch.data();
    count = scratch.size();
  }
}

void note_query(Client& c, bool cold, core::Epoch epoch) {
  if (cold) ++c.cold_queries;
  if (c.epochs_seen.empty() || c.epochs_seen.back() != epoch.value()) {
    c.epochs_seen.push_back(epoch.value());
  }
}

/// ServeFrontend::serve's sequence, call for call, with a span around
/// each public call (cross_check holds it to serve's bytes). The region
/// memo of an origin's first query in a view is filled just before that
/// query instead of inside it (paths_from fills under call_once, so this
/// moves the work rather than adding any) to time the region Dijkstra
/// apart from the context build.
bool replay_serve(Client& c, System& sys, sim::SimTime now,
                  std::size_t req_len, std::size_t& resp_len, bool counted) {
  Tracer* tr = c.tracer;
  const SpanScope serve_span{tr, kServe};
  serve::ServeContext& ctx = c.ctx;
  resp_len = 0;
  serve::WireError err = serve::WireError::kOk;
  {
    const SpanScope s{tr, kDecode};
    err = serve::decode_rank_request(c.req_buf.data(), req_len, ctx.request);
  }
  if (err != serve::WireError::kOk) {
    ++ctx.malformed;
    return false;
  }
  const serve::RankRequest& req = ctx.request;
  serve::RankResponse& resp = ctx.response;
  resp.query_id = req.query_id;
  resp.status = serve::ServeStatus::kOk;
  resp.entry_count = 0;

  const core::NodeId* candidates = nullptr;
  std::size_t count = 0;
  {
    const SpanScope s{tr, kValidate};
    resolve_candidates(sys.frontend(), req, ctx.candidates, candidates, count);
  }
  std::shared_ptr<const core::MetroView> view;
  {
    const SpanScope s{tr, kView};
    view = sys.map().view();
  }
  resp.epoch = view->epoch();

  if (!req.origin.valid()) {
    resp.status = serve::ServeStatus::kUnknownOrigin;
    ++ctx.unknown_origin;
  } else if (count == 0) {
    resp.status = serve::ServeStatus::kNoCandidates;
    ++ctx.no_candidates;
  } else {
    const bool cold = sys.first_query(req.origin, view->epoch());
    const core::RegionId region = sys.map().region_of(req.origin);
    if (cold && region.valid() &&
        region.index() < view->region_count().index()) {
      const core::RankSnapshot& snap = view->region_snapshot(region);
      const std::int64_t fills = snap.memo_fills();
      const SpanScope s{tr, kRegionFill};
      (void)snap.paths_from(req.origin);
      if (tr != nullptr && snap.memo_fills() == fills) {
        tr->rename(s.id(), kRegionMemo);
      }
    }
    if (req.max_results == 1 && req.metric == core::RankingMetric::kDelay) {
      std::optional<core::ServerRank> best;
      {
        const SpanScope s{tr, cold ? kPickCold : kPick};
        best = view->pick_with(req.origin, candidates, count, req.metric, now,
                               ctx.scratch, nullptr);
      }
      if (best.has_value()) {
        fill_entry(resp.entries[0], *best);
        resp.entry_count = 1;
      }
    } else {
      {
        const SpanScope s{tr, cold ? kRankTopkCold : kRankTopk};
        view->rank_topk_into(req.origin, candidates, count, req.metric, now,
                             req.max_results, ctx.scratch, ctx.ranked);
      }
      const std::size_t n =
          std::min<std::size_t>(req.max_results, ctx.ranked.size());
      for (std::size_t i = 0; i < n; ++i) {
        fill_entry(resp.entries[i], ctx.ranked[i]);
      }
      resp.entry_count = static_cast<std::uint8_t>(n);
    }
    if (counted) note_query(c, cold, view->epoch());
  }
  ++ctx.served;
  {
    const SpanScope s{tr, kEncode};
    resp_len = serve::encode_rank_response(resp, c.resp_buf.data(),
                                           c.resp_buf.size());
  }
  return resp_len != 0;
}

}  // namespace

std::int64_t now_ns() {
  // intsched-lint: allow(wall-clock): the benchmark measures real time
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

double rss_mb() {
  std::ifstream statm{"/proc/self/statm"};
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so a benchmark started from a larger parent (a Python
  // driver) would report the parent's size.
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

const char* span_name(std::uint32_t n) {
  static constexpr const char* kNames[kSpanNames] = {
      "request",
      "client.codec",
      "serve",
      "serve.decode_rank_request",
      "serve.is_registered",
      "core.view",
      "core.paths_from.fill",
      "core.paths_from.memo",
      "core.pick_with",
      "core.pick_with.cold",
      "core.rank_topk_into",
      "core.rank_topk_into.cold",
      "serve.encode_rank_response",
      "publish",
      "telemetry.handle_packet",
      "telemetry.flush",
      "core.ingest_batch",
  };
  return n < kSpanNames ? kNames[n] : "?";
}

// -- Tracer -----------------------------------------------------------------

Tracer::Tracer(std::size_t keep)
    : calls_(kSpanNames, ExactSamples{kSpanDenseLimit}),
      per_group_(kSpanNames, ExactSamples{kSpanDenseLimit}),
      keep_{keep} {
  group_.reserve(64);
  self_.reserve(64);
}

void Tracer::begin(std::uint64_t group) {
  group_.clear();
  current_ = -1;
  group_id_ = group;
}

std::int32_t Tracer::open(SpanName name) {
  const auto id = static_cast<std::int32_t>(group_.size());
  group_.push_back(Span{name, current_, group_id_, now_ns(), 0});
  current_ = id;
  return id;
}

void Tracer::close(std::int32_t span) {
  Span& s = group_[static_cast<std::size_t>(span)];
  s.end_ns = now_ns();
  current_ = s.parent;
}

void Tracer::rename(std::int32_t span, SpanName name) {
  group_[static_cast<std::size_t>(span)].name = name;
}

void Tracer::end() {
  self_times(group_, self_);
  std::array<std::int64_t, kSpanNames> sums{};
  std::array<bool, kSpanNames> seen{};
  for (std::size_t i = 0; i < group_.size(); ++i) {
    const std::uint32_t n = group_[i].name;
    calls_[n].add(self_[i]);
    sums[n] += self_[i];
    seen[n] = true;
  }
  for (std::uint32_t n = 0; n < kSpanNames; ++n) {
    if (seen[n]) per_group_[n].add(sums[n]);
  }
  if (kept_.size() + group_.size() <= keep_) {
    const auto base = static_cast<std::int32_t>(kept_.size());
    for (std::size_t i = 0; i < group_.size(); ++i) {
      Span s = group_[i];
      if (s.parent >= 0) s.parent += base;
      kept_.push_back(s);
      kept_self_.push_back(self_[i]);
    }
  }
}

void Tracer::merge(const Tracer& other) {
  for (std::uint32_t n = 0; n < kSpanNames; ++n) {
    calls_[n].merge(other.calls_[n]);
    per_group_[n].merge(other.per_group_[n]);
  }
  if (kept_.size() + other.kept_.size() <= keep_) {
    const auto base = static_cast<std::int32_t>(kept_.size());
    for (std::size_t i = 0; i < other.kept_.size(); ++i) {
      Span s = other.kept_[i];
      if (s.parent >= 0) s.parent += base;
      kept_.push_back(s);
      kept_self_.push_back(other.kept_self_[i]);
    }
  }
}

void Tracer::write(std::ostream& os, const char* phase) const {
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    os << "{\"phase\": \"" << phase << "\", \"id\": " << i
       << ", \"parent\": " << s.parent << ", \"group\": " << s.request
       << ", \"name\": \"" << span_name(s.name)
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"self_ns\": " << kept_self_[i] << "}\n";
  }
}

// -- probes and the serving system --------------------------------------------

Probe to_probe(const telemetry::ProbeReport& report) {
  Probe p;
  p.packet.src = report.src;
  p.packet.dst = report.dst;
  p.packet.protocol = net::IpProtocol::kUdp;
  p.packet.l4 = net::UdpHeader{.src_port = net::kProbePort,
                               .dst_port = net::kProbePort};
  p.packet.geneve = net::GeneveOption{.type = net::kIntProbeOptionType};
  p.packet.int_stack = report.entries;
  p.packet.wire_size =
      net::kHeaderBytes + static_cast<sim::Bytes>(report.entries.size()) *
                              net::kIntStackEntryWireBytes;
  p.final_hop = report.final_link_latency;
  return p;
}

System::System(Inputs& in, sim::SimTime t0, Tracer* tracer)
    : map_{core::RegionAssignment::from_topology(in.topo)},
      batcher_{[this](const std::vector<telemetry::ProbeReport>& batch) {
                 const SpanScope s{ingest_tracer_, kIngest};
                 map_.ingest_batch(batch, now_);
               },
               in.max_delivery + 1},
      frontend_{map_},
      is_server_(in.topo.nodes.size(), 0),
      last_query_epoch_(in.topo.nodes.size()),
      t0_{t0} {
  hosts_.resize(in.topo.nodes.size());
  collectors_.resize(in.topo.nodes.size());
  for (const core::NodeId h : in.hosts) {
    hosts_[h.index()] = std::make_unique<net::Host>(
        sim_, h, in.topo.nodes[h.index()].name);
    auto collector =
        std::make_unique<telemetry::IntCollector>(*hosts_[h.index()]);
    collector->set_handler(
        [this](const telemetry::ProbeReport& r) { batcher_.add(r); });
    collectors_[h.index()] = std::move(collector);
  }
  for (std::atomic<std::int64_t>& e : last_query_epoch_) {
    e.store(core::Epoch::none().value() - 1);
  }
  initial_ = deliver(in.sweep, t0, tracer);
  for (const core::NodeId s : in.servers) {
    frontend_.register_server(s);
    is_server_[s.index()] = 1;
  }
}

Delivery System::deliver(std::vector<Probe>& probes, sim::SimTime now,
                         Tracer* tracer) {
  sim_.run_until(now);
  now_ = now;
  ingest_tracer_ = tracer;
  if (tracer != nullptr) tracer->begin(kPublishGroup | deliveries_);
  ++deliveries_;
  const std::int64_t builds = map_.region_snapshot_builds();
  const std::int64_t reports = map_.reports_ingested();
  const std::int64_t batches = batcher_.batches_emitted();
  const std::int64_t begin = now_ns();
  {
    const SpanScope publish{tracer, kPublish};
    for (Probe& p : probes) {
      const core::NodeId dst = p.packet.dst;
      telemetry::IntCollector* collector =
          dst.valid() && dst.index() < collectors_.size()
              ? collectors_[dst.index()].get()
              : nullptr;
      if (collector == nullptr) {
        ++undeliverable_;
        continue;
      }
      // The last switch stamps its egress time as the probe leaves
      // for the collector host, one final hop before `now`.
      p.packet.last_egress_timestamp =
          p.final_hop >= sim::SimDuration::zero()
              ? now - p.final_hop
              : sim::SimTime::nanoseconds(-1);
      const SpanScope s{tracer, kCollect};
      collector->handle_packet(p.packet);
    }
    const SpanScope flush{tracer, kFlush};
    batcher_.flush();
  }
  const std::int64_t published = now_ns();
  if (tracer != nullptr) tracer->end();
  ingest_tracer_ = nullptr;
  return Delivery{published - begin, map_.region_snapshot_builds() - builds,
                  map_.reports_ingested() - reports,
                  batcher_.batches_emitted() - batches};
}

bool System::first_query(core::NodeId origin, core::Epoch epoch) {
  if (!origin.valid() || origin.index() >= last_query_epoch_.size()) {
    return false;
  }
  std::atomic<std::int64_t>& slot = last_query_epoch_[origin.index()];
  if (slot.load() == epoch.value()) return false;
  slot.store(epoch.value());
  return true;
}

std::int64_t System::malformed() const {
  std::int64_t total = 0;
  for (const auto& c : collectors_) {
    if (c != nullptr) total += c->malformed();
  }
  return total;
}

// -- the client -------------------------------------------------------------

std::int64_t answer(Client& c, System& sys, const RequestSpec& spec,
                    std::uint64_t id, sim::SimTime now, bool fingerprinted) {
  serve::RankRequest& req = c.req;
  fill_request(req, spec, id);

  bool ok = false;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  if (c.tracer == nullptr) {
    begin = now_ns();
    const std::size_t len =
        serve::encode_rank_request(req, c.req_buf.data(), c.req_buf.size());
    std::size_t resp_len = 0;
    ok = len != 0 &&
         sys.frontend().serve(c.ctx, c.req_buf.data(), len, c.resp_buf.data(),
                              c.resp_buf.size(), resp_len, now);
    ok = ok && serve::decode_rank_response(c.resp_buf.data(), resp_len,
                                           c.resp) == serve::WireError::kOk;
    end = now_ns();
  } else {
    Tracer& tr = *c.tracer;
    tr.begin(id);
    begin = now_ns();
    const std::int32_t root = tr.open(kRequest);
    std::size_t len = 0;
    {
      const SpanScope s{&tr, kClientCodec};
      len = serve::encode_rank_request(req, c.req_buf.data(), c.req_buf.size());
    }
    std::size_t resp_len = 0;
    ok = len != 0 &&
         replay_serve(c, sys, now, len, resp_len, fingerprinted || c.count_all);
    {
      const SpanScope s{&tr, kClientCodec};
      ok = ok && serve::decode_rank_response(c.resp_buf.data(), resp_len,
                                             c.resp) == serve::WireError::kOk;
    }
    tr.close(root);
    end = now_ns();
    tr.end();
  }
  if (c.timed) {
    c.latency_ns.add(end - begin);
    const auto slice =
        static_cast<std::size_t>((end - c.window_start_ns) / kSliceNs);
    if (slice >= c.slice_counts.size()) c.slice_counts.resize(slice + 1, 0);
    ++c.slice_counts[slice];
  }
  ok = settle(c, sys, ok);
  if (fingerprinted) {
    std::array<std::int32_t, serve::kMaxResponseEntries> servers{};
    const std::size_t n = ok ? c.resp.entry_count : 0;
    for (std::size_t i = 0; i < n; ++i) {
      servers[i] = c.resp.entries[i].server.value();
    }
    c.fingerprint.add(id, servers.data(), n);
  }
  return end;
}

bool cross_check(Client& c, System& sys, const RequestSpec& spec,
                 std::uint64_t id, sim::SimTime now, bool uses_pick) {
  serve::RankRequest& req = c.req;
  fill_request(req, spec, id);
  const std::size_t len =
      serve::encode_rank_request(req, c.req_buf.data(), c.req_buf.size());
  std::size_t served_len = 0;
  const bool served =
      len != 0 && sys.frontend().serve(c.ctx, c.req_buf.data(), len,
                                       c.check_buf.data(), c.check_buf.size(),
                                       served_len, now);
  Tracer* const tracer = std::exchange(c.tracer, nullptr);
  std::size_t replayed_len = 0;
  const bool replayed =
      len != 0 && replay_serve(c, sys, now, len, replayed_len, false);
  c.tracer = tracer;
  const bool same_bytes =
      served && replayed && served_len == replayed_len &&
      std::equal(c.check_buf.begin(), c.check_buf.begin() + served_len,
                 c.resp_buf.begin());
  // Both frames are answers to a request: decode and check each one.
  settle(c, sys,
         served && serve::decode_rank_response(c.check_buf.data(), served_len,
                                               c.resp) ==
                       serve::WireError::kOk);
  settle(c, sys,
         replayed && serve::decode_rank_response(c.resp_buf.data(),
                                                 replayed_len, c.resp) ==
                         serve::WireError::kOk);

  const core::NodeId* candidates = nullptr;
  std::size_t count = 0;
  resolve_candidates(sys.frontend(), req, c.ctx.candidates, candidates, count);
  const std::shared_ptr<const core::MetroView> view = sys.map().view();
  // The origin is warm now: serve() above answered it from this view.
  if (tracer != nullptr) tracer->begin(kCheckGroup | id);
  core::PickStats stats;
  std::optional<core::ServerRank> picked;
  {
    const SpanScope s{uses_pick ? nullptr : tracer, kPick};
    picked = view->pick_with(spec.origin, candidates, count,
                             core::RankingMetric::kDelay, now, c.ctx.scratch,
                             &stats);
  }
  {
    const SpanScope s{uses_pick ? tracer : nullptr, kRankTopk};
    view->rank_topk_into(spec.origin, candidates, count,
                         core::RankingMetric::kDelay, now, 1, c.ctx.scratch,
                         c.ranked);
  }
  if (tracer != nullptr) tracer->end();
  c.picks.regions_considered += stats.regions_considered;
  c.picks.regions_pruned += stats.regions_pruned;
  c.picks.candidates_scored += stats.candidates_scored;
  ++c.pick_calls;

  const bool agree =
      !picked.has_value() || c.ranked.empty()
          ? !picked.has_value() && c.ranked.empty()
          : picked->server == c.ranked.front().server &&
                picked->delay_estimate == c.ranked.front().delay_estimate;
  return same_bytes && agree;
}

}  // namespace e2ebench
