#include "intsched/serve/frontend.hpp"

#include <algorithm>
#include <memory>
#include <optional>

namespace intsched::serve {

namespace {

INTSCHED_HOTPATH void fill_entry(RankResponseEntry& e,
                                 const core::ServerRank& r) {
  e.server = r.server;
  e.stale = r.stale;
  e.delay_estimate = r.delay_estimate;
  e.baseline_delay = r.baseline_delay;
  e.bandwidth_estimate = r.bandwidth_estimate;
}

}  // namespace

void ServeFrontend::register_server(core::NodeId server) {
  if (!server.valid()) return;
  const auto it =
      std::lower_bound(registry_.begin(), registry_.end(), server);
  if (it != registry_.end() && *it == server) return;
  registry_.insert(it, server);
}

bool ServeFrontend::is_registered(core::NodeId server,
                                  core::RegionId* region) const {
  if (!std::binary_search(registry_.begin(), registry_.end(), server)) {
    return false;
  }
  if (region != nullptr) *region = map_->region_of(server);
  return true;
}

bool ServeFrontend::serve(ServeContext& ctx, const std::byte* request_buf,
                          std::size_t request_len, std::byte* response_buf,
                          std::size_t response_cap,
                          std::size_t& response_len, sim::SimTime now) const {
  response_len = 0;
  if (decode_rank_request(request_buf, request_len, ctx.request) !=
      WireError::kOk) {
    ++ctx.malformed;
    return false;
  }
  const RankRequest& req = ctx.request;
  RankResponse& resp = ctx.response;
  resp.query_id = req.query_id;
  resp.status = ServeStatus::kOk;
  resp.entry_count = 0;

  // Candidate resolution: the whole registry (no copy — rank_topk_into
  // takes pointer + count), or the request's explicit ids filtered by a
  // binary search of the sorted registry.
  const core::NodeId* candidates = registry_.data();
  std::size_t candidate_count = registry_.size();
  if (req.candidate_count != 0) {
    ctx.candidates.clear();
    for (std::size_t i = 0; i < req.candidate_count; ++i) {
      const core::NodeId n = req.candidates[i];
      if (std::binary_search(registry_.begin(), registry_.end(), n)) {
        ctx.candidates.push_back(n);
      }
    }
    candidates = ctx.candidates.data();
    candidate_count = ctx.candidates.size();
  }

  // One atomic acquire pins the immutable view for the whole answer —
  // epoch, pruning state, and every estimate are mutually consistent
  // even while ingest publishes concurrently.
  const std::shared_ptr<const core::MetroView> view = map_->view();
  resp.epoch = view->epoch();

  if (!req.origin.valid()) {
    resp.status = ServeStatus::kUnknownOrigin;
    ++ctx.unknown_origin;
  } else if (candidate_count == 0) {
    resp.status = ServeStatus::kNoCandidates;
    ++ctx.no_candidates;
  } else if (req.max_results == 1 &&
             req.metric == core::RankingMetric::kDelay) {
    // Single-best delay queries take the region-pruned pick path.
    const std::optional<core::ServerRank> best =
        view->pick_with(req.origin, candidates, candidate_count, req.metric,
                        now, ctx.scratch, nullptr);
    if (best.has_value()) {
      fill_entry(resp.entries[0], *best);
      resp.entry_count = 1;
    }
  } else {
    // Only the best max_results entries are encoded, so ask the view for
    // exactly that many: on plane-compiled origins this is a partial
    // selection, not a full sort (byte-identical prefix — DESIGN.md §15).
    view->rank_topk_into(req.origin, candidates, candidate_count, req.metric,
                         now, req.max_results, ctx.scratch, ctx.ranked);
    const std::size_t n = std::min<std::size_t>(
        req.max_results, ctx.ranked.size());
    for (std::size_t i = 0; i < n; ++i) {
      fill_entry(resp.entries[i], ctx.ranked[i]);
    }
    resp.entry_count = static_cast<std::uint8_t>(n);
  }

  ++ctx.served;
  response_len = encode_rank_response(resp, response_buf, response_cap);
  return response_len != 0;
}

}  // namespace intsched::serve
