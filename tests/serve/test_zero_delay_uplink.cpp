// A host uplink measured at 0 ns in both directions gives the delay graph
// the zero-cost cycle host -> switch -> host. Every ranking path must still
// answer from that host, and agree: the reference Ranker, a one-region
// map's pick, and ServeFrontend::serve, which reaches Dijkstra through the
// view's region snapshot.
//
// This case is kept out of test_frontend.cpp: that file replaces the global
// operator new/delete, and under the sanitizer presets GCC 12 inlines the
// replacements into its test factories and reports a false
// -Wmismatched-new-delete once this test shares the file.
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/ranking.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/serve/frontend.hpp"
#include "intsched/serve/wire.hpp"

namespace intsched::serve {
namespace {

using core::NodeId;
using core::RankingMetric;
using core::ServerRank;

net::IntStackEntry hop(NodeId device, std::int32_t in, std::int32_t out,
                       sim::SimDuration latency) {
  net::IntStackEntry e;
  e.device = device;
  e.ingress_port = in;
  e.egress_port = out;
  e.ingress_link_latency = latency;
  return e;
}

TEST(ZeroDelayUplinkTest, EveryRankingPathAnswersFromTheHost) {
  const sim::SimDuration zero = sim::SimDuration::zero();
  const sim::SimDuration five = sim::SimDuration::milliseconds(5);
  telemetry::ProbeReport up;  // host 0 -> s10 -> s11 -> host 1
  up.src = NodeId{0};
  up.dst = NodeId{1};
  up.entries = {hop(NodeId{10}, 0, 1, zero), hop(NodeId{11}, 0, 1, five)};
  up.final_link_latency = five;
  telemetry::ProbeReport down;  // host 1 -> s11 -> s10 -> host 0
  down.src = NodeId{1};
  down.dst = NodeId{0};
  down.entries = {hop(NodeId{11}, 1, 0, five), hop(NodeId{10}, 1, 0, five)};
  down.final_link_latency = zero;
  const std::vector<telemetry::ProbeReport> probes{up, down};
  const sim::SimTime now = sim::SimTime::milliseconds(1);
  const std::vector<NodeId> servers{NodeId{1}};
  const core::RegionAssignment one_region{
      std::vector<core::RegionId>(16, core::RegionId{0}), core::RegionId{1}};

  core::NetworkMap flat;
  for (const telemetry::ProbeReport& r : probes) {
    flat.ingest(r, sim::SimTime::zero());
  }
  const core::Ranker ranker{flat};
  std::vector<ServerRank> want;
  EXPECT_NO_THROW(
      want = ranker.rank(NodeId{0}, servers, RankingMetric::kDelay, now));

  core::ShardedNetworkMap picked_map{one_region};
  picked_map.ingest_batch(probes, sim::SimTime::zero());
  std::optional<ServerRank> picked;
  EXPECT_NO_THROW(picked = picked_map.pick(NodeId{0}, servers,
                                           RankingMetric::kDelay, now));

  // A map of its own, so serve fills the origin's context itself.
  core::ShardedNetworkMap served_map{one_region};
  served_map.ingest_batch(probes, sim::SimTime::zero());
  ServeFrontend frontend{served_map};
  frontend.register_server(NodeId{1});
  ServeContext ctx;
  RankRequest req;
  req.origin = NodeId{0};
  std::array<std::byte, kMaxFrameSize> req_buf{};
  std::array<std::byte, kMaxFrameSize> resp_buf{};
  const std::size_t req_len =
      encode_rank_request(req, req_buf.data(), req_buf.size());
  ASSERT_GT(req_len, 0u);
  std::size_t resp_len = 0;
  bool served = false;
  EXPECT_NO_THROW(served = frontend.serve(ctx, req_buf.data(), req_len,
                                          resp_buf.data(), resp_buf.size(),
                                          resp_len, now));

  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(want[0].server, NodeId{1});
  EXPECT_EQ(want[0].delay_estimate, sim::SimDuration::milliseconds(10));

  ASSERT_TRUE(picked.has_value());
  EXPECT_EQ(picked->server, want[0].server);
  EXPECT_EQ(picked->delay_estimate, want[0].delay_estimate);
  EXPECT_EQ(picked->baseline_delay, want[0].baseline_delay);
  EXPECT_EQ(picked->bandwidth_estimate.bps(), want[0].bandwidth_estimate.bps());
  EXPECT_EQ(picked->stale, want[0].stale);

  ASSERT_TRUE(served);
  RankResponse resp;
  ASSERT_EQ(decode_rank_response(resp_buf.data(), resp_len, resp),
            WireError::kOk);
  EXPECT_EQ(resp.status, ServeStatus::kOk);
  ASSERT_EQ(resp.entry_count, 1);
  EXPECT_EQ(resp.entries[0].server, want[0].server);
  EXPECT_EQ(resp.entries[0].delay_estimate, want[0].delay_estimate);
  EXPECT_EQ(resp.entries[0].baseline_delay, want[0].baseline_delay);
  EXPECT_EQ(resp.entries[0].bandwidth_estimate.bps(),
            want[0].bandwidth_estimate.bps());
  EXPECT_EQ(resp.entries[0].stale, want[0].stale);
}

}  // namespace
}  // namespace intsched::serve
