#pragma once

// ServeFrontend: the scheduler-as-a-service request path (DESIGN.md
// §13). One frontend fronts one ShardedNetworkMap; serving threads call
// serve() concurrently with ingest, each with its own ServeContext.
//
// Hot-path budget per request — the contract the million-QPS harness
// (bench/qps_serve.cpp) measures and the analyzer's hot-alloc rule + the
// allocation-counting test enforce:
//
//   * no locks: the answer is computed entirely from the immutable
//     MetroView the map last published (one atomic shared_ptr acquire);
//   * no per-request heap allocation once warm: decode writes into the
//     context's fixed-capacity request struct, candidate validation is a
//     binary search of the sorted registry, ranking runs through
//     MetroView::rank_topk_into / pick_with over the context's reusable
//     scratch, and encode writes straight into the caller's response
//     buffer;
//   * region sharding for free: pick_with scores the origin's compiled
//     rank plane region group by region group and prunes whole regions
//     by delay lower bound, so a metro-sized registry costs ~one region's
//     work.
//
// Registration (register_server) is the cold path and must not run
// concurrently with serve().

#include <cstddef>
#include <cstdint>
#include <vector>

#include "intsched/core/contracts.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/core/types.hpp"
#include "intsched/serve/wire.hpp"

namespace intsched::serve {

/// Per-thread working state: decoded-request/response staging, ranking
/// scratch, and counters. Buffers retain capacity across requests —
/// after the first request per shape, serve() allocates nothing.
struct ServeContext {
  core::MetroView::RankScratch scratch;
  /// Validated explicit-candidate list (request order preserved).
  std::vector<core::NodeId> candidates;
  /// rank_topk_into output staging.
  std::vector<core::ServerRank> ranked;
  RankRequest request;
  RankResponse response;
  std::int64_t served = 0;
  std::int64_t malformed = 0;
  std::int64_t unknown_origin = 0;
  std::int64_t no_candidates = 0;
};

class ServeFrontend {
 public:
  explicit ServeFrontend(const core::ShardedNetworkMap& map) : map_{&map} {}

  /// Cold path: adds one server to the registry (idempotent). The
  /// registry is what candidate_count == 0 requests rank, and explicit
  /// candidates are validated against it.
  INTSCHED_COLDPATH void register_server(core::NodeId server);

  /// Registered servers, ascending node id.
  [[nodiscard]] const std::vector<core::NodeId>& registered() const {
    return registry_;
  }

  /// Registry membership probe (the binary search the decision path
  /// uses); region is the server's provisioning region.
  [[nodiscard]] INTSCHED_HOTPATH bool is_registered(
      core::NodeId server, core::RegionId* region = nullptr) const;

  /// Hot path: decode one request frame, answer from the currently
  /// published MetroView at sim-time `now`, and encode the response into
  /// response_buf. Returns false (response_len = 0) only for malformed
  /// requests or an undersized response buffer (kMaxFrameSize always
  /// suffices); well-formed requests with no usable candidates still
  /// produce an encoded response carrying the status.
  INTSCHED_HOTPATH bool serve(ServeContext& ctx, const std::byte* request_buf,
                              std::size_t request_len, std::byte* response_buf,
                              std::size_t response_cap,
                              std::size_t& response_len,
                              sim::SimTime now) const;

 private:
  const core::ShardedNetworkMap* map_;
  /// Registered servers, sorted and unique: what candidate_count == 0
  /// requests rank, and what explicit candidates are searched in.
  std::vector<core::NodeId> registry_;
};

}  // namespace intsched::serve
