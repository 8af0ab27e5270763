#include "intsched/core/scheduler_service.hpp"

#include <algorithm>

namespace intsched::core {
namespace {

/// Response wire size: headers + 16 B per ranked entry.
sim::Bytes response_size(std::size_t entries) {
  return net::kHeaderBytes + static_cast<sim::Bytes>(16 * entries);
}

constexpr sim::Bytes kRequestSize = net::kHeaderBytes + 16;

}  // namespace

SchedulerService::SchedulerService(transport::HostStack& stack,
                                   RankerConfig ranker_config,
                                   NetworkMapConfig map_config,
                                   SchedulerConfig scheduler_config)
    : stack_{stack},
      collector_{stack.host()},
      map_{map_config},
      ranker_{map_, std::move(ranker_config)},
      cfg_{scheduler_config} {
  // Probe sink: INT termination into the network map.
  stack_.bind_udp(net::kProbePort, [this](const net::Packet& p) {
    collector_.handle_packet(p);
  });
  collector_.set_handler([this](const telemetry::ProbeReport& report) {
    map_.ingest(report, stack_.host().local_time());
  });
  // Query + load-report front-end.
  stack_.bind_udp(net::kSchedulerPort, [this](const net::Packet& p) {
    if (const auto* load =
            dynamic_cast<const LoadReportMessage*>(p.app.get())) {
      on_load_report(*load);
      return;
    }
    on_request(p);
  });
}

void SchedulerService::register_edge_server(
    core::NodeId server, std::vector<std::string> capabilities) {
  if (std::ranges::find(servers_, server) == servers_.end()) {
    servers_.push_back(server);
  }
  capabilities_[server] = std::move(capabilities);
}

void SchedulerService::on_load_report(const LoadReportMessage& report) {
  load_[report.server] = LoadInfo{report.outstanding_tasks,
                                  stack_.host().local_time()};
}

std::int32_t SchedulerService::server_load(core::NodeId server) const {
  const auto it = load_.find(server);
  if (it == load_.end()) return 0;
  if (stack_.host().local_time() - it->second.reported_at >
      cfg_.load_staleness) {
    return 0;
  }
  return it->second.outstanding;
}

bool SchedulerService::satisfies(
    core::NodeId server, const std::vector<std::string>& reqs) const {
  if (reqs.empty()) return true;
  const auto it = capabilities_.find(server);
  if (it == capabilities_.end()) return false;
  const auto& caps = it->second;
  return std::ranges::all_of(reqs, [&](const std::string& req) {
    return std::ranges::find(caps, req) != caps.end();
  });
}

std::vector<ServerRank> SchedulerService::rank_for(
    core::NodeId device, RankingMetric metric,
    const std::vector<std::string>& requirements) const {
  std::vector<core::NodeId> candidates;
  candidates.reserve(servers_.size());
  for (const core::NodeId s : servers_) {
    if (s != device && satisfies(s, requirements)) candidates.push_back(s);
  }
  std::vector<ServerRank> ranked =
      ranker_.rank(device, candidates, metric, stack_.host().local_time());
  for (ServerRank& r : ranked) r.outstanding_tasks = server_load(r.server);

  if (cfg_.compute_aware) {
    // Paper §VI extension: fold server load into the ordering key. Delay
    // ranking charges load_penalty per outstanding task; bandwidth
    // ranking divides the path estimate by the server's queue depth + 1
    // (the share a new task would get).
    const auto delay_key = [this](const ServerRank& r) {
      return r.delay_estimate + cfg_.load_penalty * r.outstanding_tasks;
    };
    const auto bw_key = [](const ServerRank& r) {
      return r.bandwidth_estimate.bps() /
             static_cast<double>(1 + r.outstanding_tasks);
    };
    if (metric == RankingMetric::kDelay) {
      std::stable_sort(ranked.begin(), ranked.end(),
                       [&](const ServerRank& a, const ServerRank& b) {
                         return delay_key(a) < delay_key(b);
                       });
    } else {
      std::stable_sort(ranked.begin(), ranked.end(),
                       [&](const ServerRank& a, const ServerRank& b) {
                         return bw_key(a) > bw_key(b);
                       });
    }
  }

  // Graceful degradation under telemetry loss. A path is stale when its
  // probes stopped arriving (switch dead, link flapping, probes dropped);
  // its congestion estimate is then last-known-good at best. Never drop a
  // candidate — the device may have no other choice — but stop trusting
  // stale congestion data for ordering.
  std::size_t stale_count = 0;
  for (const ServerRank& r : ranked) {
    if (r.stale) ++stale_count;
  }
  if (stale_count > 0) {
    stale_lookups_ += static_cast<std::int64_t>(stale_count);
    ++fallbacks_;
    const auto by_baseline = [](const ServerRank& a, const ServerRank& b) {
      if (a.baseline_delay != b.baseline_delay) {
        return a.baseline_delay < b.baseline_delay;
      }
      return a.server < b.server;
    };
    if (stale_count == ranked.size()) {
      // Total telemetry outage: the congestion terms are fiction. Degrade
      // to Nearest — rank by pure link delay (last-known-good estimates).
      std::stable_sort(ranked.begin(), ranked.end(), by_baseline);
    } else {
      // Partial outage: keep the metric's order within each class but
      // serve fresh paths first; stale ones trail as a last resort.
      std::stable_partition(ranked.begin(), ranked.end(),
                            [](const ServerRank& r) { return !r.stale; });
    }
  }
  return ranked;
}

void SchedulerService::on_request(const net::Packet& p) {
  const auto* req = dynamic_cast<const CandidateRequest*>(p.app.get());
  if (req == nullptr) return;
  ++queries_;

  auto resp = std::make_shared<CandidateResponse>();
  resp->query_id = req->query_id;
  resp->ranked = rank_for(req->device, req->metric, req->requirements);
  const sim::Bytes size = response_size(resp->ranked.size());
  stack_.send_datagram(p.src, net::kSchedulerPort, req->reply_port, size,
                       std::move(resp));
}

SchedulerClient::SchedulerClient(transport::HostStack& stack,
                                 core::NodeId scheduler)
    : stack_{stack}, scheduler_{scheduler} {
  reply_port_ = stack_.allocate_port();
  stack_.bind_udp(reply_port_,
                  [this](const net::Packet& p) { on_response(p); });
}

SchedulerClient::~SchedulerClient() {
  // Retry timers and the reply-port handler capture `this`; tear both
  // down so destroying a client with in-flight queries is safe.
  // Each cancel targets an independent timer; order-insensitive.
  // intsched-lint: allow(unordered-iter)
  for (auto& [id, pending] : pending_) {
    stack_.simulator().cancel(pending.retry_timer);
  }
  stack_.unbind_udp(reply_port_);
}

void SchedulerClient::query(RankingMetric metric, ResponseHandler handler,
                            std::vector<std::string> requirements) {
  const std::uint64_t id = next_id_++;
  Pending pending;
  pending.handler = std::move(handler);
  pending.metric = metric;
  pending.requirements = std::move(requirements);
  pending_.emplace(id, std::move(pending));
  send_request(id);
}

void SchedulerClient::send_request(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  ++p.attempts;
  ++sent_;
  if (p.attempts > 1) ++retries_;

  auto req = std::make_shared<CandidateRequest>();
  req->query_id = id;
  req->device = stack_.host().id();
  req->metric = p.metric;
  req->reply_port = reply_port_;
  req->requirements = p.requirements;
  stack_.send_datagram(scheduler_, reply_port_, net::kSchedulerPort,
                       kRequestSize, std::move(req));

  // Retry forever with exponential backoff (capped): a query lost to the
  // very congestion being measured must not strand the job.
  const sim::SimDuration delay = std::min(
      kRetryAfter * (std::int64_t{1} << std::min(p.attempts - 1, 4)),
      sim::SimDuration::secs(10));
  p.retry_timer = stack_.simulator().schedule_after(
      delay, [this, id] { send_request(id); });
}

void SchedulerClient::on_response(const net::Packet& p) {
  const auto* resp = dynamic_cast<const CandidateResponse*>(p.app.get());
  if (resp == nullptr) return;
  const auto it = pending_.find(resp->query_id);
  if (it == pending_.end()) return;  // duplicate or late response
  ++received_;
  ResponseHandler handler = std::move(it->second.handler);
  stack_.simulator().cancel(it->second.retry_timer);
  pending_.erase(it);
  handler(*resp);
}

}  // namespace intsched::core
