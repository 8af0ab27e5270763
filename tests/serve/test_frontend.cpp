// serve::ServeFrontend: the wire-to-wire serving path must agree
// field-exactly (and byte-exactly on re-serve) with calling the
// underlying ShardedNetworkMap directly over a seeded metro topology —
// the PR-6 agreement-test style, now through the binary protocol — and
// the warm decision path must be allocation-free, enforced by a global
// operator-new counter (alloc_counter.hpp; the runtime check behind the
// hot-alloc rule).
#include "intsched/serve/frontend.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/ranking.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/exp/metro.hpp"
#include "intsched/net/topology_gen.hpp"
#include "intsched/serve/wire.hpp"

#include "alloc_counter.hpp"

namespace intsched::serve {
namespace {

using core::NodeId;
using core::RankingMetric;
using core::ServerRank;

struct MetroFixture {
  net::GenTopology topo;
  exp::MetroTelemetryGen gen;
  std::vector<std::vector<telemetry::ProbeReport>> batches;

  explicit MetroFixture(std::int32_t pods, std::int32_t epochs,
                        std::uint64_t seed = 42)
      : topo{net::TopologyGen::ring_of_pods([&] {
          net::MetroConfig cfg;
          cfg.seed = seed;
          cfg.pods = pods;
          return cfg;
        }())},
        gen{topo, exp::MetroTelemetryConfig{.seed = seed}} {
    batches.push_back(gen.full_sweep());
    const auto refresh = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(topo.links.size()) / 4);
    for (std::int32_t e = 1; e < epochs; ++e) {
      batches.push_back(gen.refresh(refresh));
    }
  }

  [[nodiscard]] static sim::SimTime epoch_time(std::size_t e) {
    return sim::SimTime::seconds(static_cast<std::int64_t>(e) + 1);
  }
};

/// Drives one request through the full wire path and returns the decoded
/// response (asserting the frames were well-formed).
RankResponse serve_one(const ServeFrontend& frontend, ServeContext& ctx,
                       const RankRequest& req, sim::SimTime now,
                       std::vector<std::byte>* raw = nullptr) {
  std::array<std::byte, kMaxFrameSize> req_buf{};
  std::array<std::byte, kMaxFrameSize> resp_buf{};
  const std::size_t req_len =
      encode_rank_request(req, req_buf.data(), req_buf.size());
  EXPECT_GT(req_len, 0u);
  std::size_t resp_len = 0;
  EXPECT_TRUE(frontend.serve(ctx, req_buf.data(), req_len, resp_buf.data(),
                             resp_buf.size(), resp_len, now));
  RankResponse resp;
  EXPECT_EQ(decode_rank_response(resp_buf.data(), resp_len, resp),
            WireError::kOk);
  if (raw != nullptr) {
    raw->assign(resp_buf.data(), resp_buf.data() + resp_len);
  }
  return resp;
}

void expect_entry_matches_rank(const RankResponseEntry& e,
                               const ServerRank& r, const char* what) {
  EXPECT_EQ(e.server, r.server) << what;
  EXPECT_EQ(e.stale, r.stale) << what;
  EXPECT_EQ(e.delay_estimate, r.delay_estimate) << what;
  EXPECT_EQ(e.baseline_delay, r.baseline_delay) << what;
  EXPECT_EQ(e.bandwidth_estimate.bps(), r.bandwidth_estimate.bps()) << what;
}

TEST(ServeFrontendTest, AgreesWithDirectPickAndRankEveryEpoch) {
  MetroFixture m{3, 6};
  core::ShardedNetworkMap map{core::RegionAssignment::from_topology(m.topo)};
  ServeFrontend frontend{map};
  for (const NodeId s : m.topo.edge_servers()) frontend.register_server(s);
  EXPECT_EQ(frontend.registered(), m.topo.edge_servers());

  ServeContext ctx;
  std::uint64_t query = 0;
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    const sim::SimTime now = MetroFixture::epoch_time(e);
    map.ingest_batch(m.batches[e], now);
    for (const NodeId origin : m.topo.hosts()) {
      // Top-1 delay request (the pick path) vs the view's pick.
      RankRequest req;
      req.query_id = ++query;
      req.origin = origin;
      req.metric = RankingMetric::kDelay;
      req.max_results = 1;
      const RankResponse got = serve_one(frontend, ctx, req, now);
      EXPECT_EQ(got.query_id, req.query_id);
      EXPECT_EQ(got.status, ServeStatus::kOk);
      EXPECT_EQ(got.epoch, map.view()->epoch());
      const auto want = map.view()->pick(origin, m.topo.edge_servers(),
                                         RankingMetric::kDelay, now);
      ASSERT_TRUE(want.has_value());
      ASSERT_EQ(got.entry_count, 1);
      expect_entry_matches_rank(got.entries[0], *want, "pick path");

      // Top-k over both metrics (the rank path) vs the view's rank.
      for (const auto metric :
           {RankingMetric::kDelay, RankingMetric::kBandwidth}) {
        req.query_id = ++query;
        req.metric = metric;
        req.max_results = 5;
        const RankResponse ranked_resp = serve_one(frontend, ctx, req, now);
        EXPECT_EQ(ranked_resp.status, ServeStatus::kOk);
        const std::vector<ServerRank> want_ranked =
            map.view()->rank(origin, m.topo.edge_servers(), metric, now);
        ASSERT_EQ(ranked_resp.entry_count,
                  std::min<std::size_t>(5, want_ranked.size()));
        for (std::size_t i = 0; i < ranked_resp.entry_count; ++i) {
          expect_entry_matches_rank(ranked_resp.entries[i], want_ranked[i],
                                    "rank path");
        }
      }
    }
  }
  EXPECT_EQ(ctx.malformed, 0);
  EXPECT_EQ(ctx.unknown_origin, 0);
  EXPECT_EQ(ctx.no_candidates, 0);
}

TEST(ServeFrontendTest, ReServeIsByteIdentical) {
  MetroFixture m{2, 3};
  core::ShardedNetworkMap map{core::RegionAssignment::from_topology(m.topo)};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    map.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
  }
  ServeFrontend frontend{map};
  for (const NodeId s : m.topo.edge_servers()) frontend.register_server(s);

  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  ServeContext ctx_a;
  ServeContext ctx_b;
  std::uint64_t query = 0;
  for (const NodeId origin : m.topo.hosts()) {
    for (const std::uint8_t k : {std::uint8_t{1}, std::uint8_t{4}}) {
      RankRequest req;
      req.query_id = ++query;
      req.origin = origin;
      req.max_results = k;
      std::vector<std::byte> first;
      std::vector<std::byte> second;
      serve_one(frontend, ctx_a, req, now, &first);
      // A fresh context (cold scratch) must produce the same bytes.
      serve_one(frontend, ctx_b, req, now, &second);
      EXPECT_EQ(first, second) << "origin " << origin;
    }
  }
}

TEST(ServeFrontendTest, ExplicitCandidateSubsetMatchesDirectRank) {
  MetroFixture m{3, 4};
  core::ShardedNetworkMap map{core::RegionAssignment::from_topology(m.topo)};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    map.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
  }
  ServeFrontend frontend{map};
  const std::vector<NodeId> servers = m.topo.edge_servers();
  for (const NodeId s : servers) frontend.register_server(s);

  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  ServeContext ctx;
  // Every other server, plus one bogus id the frontend must filter out.
  std::vector<NodeId> subset;
  for (std::size_t i = 0; i < servers.size(); i += 2) {
    subset.push_back(servers[i]);
  }
  RankRequest req;
  req.origin = m.topo.hosts()[3];
  req.max_results = static_cast<std::uint8_t>(
      std::min<std::size_t>(subset.size() + 1, kMaxResponseEntries));
  req.candidate_count = static_cast<std::uint16_t>(subset.size() + 1);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    req.candidates[i] = subset[i];
  }
  req.candidates[subset.size()] = NodeId{999999};  // never registered

  const RankResponse got = serve_one(frontend, ctx, req, now);
  EXPECT_EQ(got.status, ServeStatus::kOk);
  const std::vector<ServerRank> want =
      map.view()->rank(req.origin, subset, RankingMetric::kDelay, now);
  ASSERT_EQ(got.entry_count,
            std::min<std::size_t>(req.max_results, want.size()));
  for (std::size_t i = 0; i < got.entry_count; ++i) {
    expect_entry_matches_rank(got.entries[i], want[i], "subset");
  }
}

TEST(ServeFrontendTest, StatusesAndMalformedInputs) {
  MetroFixture m{2, 2};
  core::ShardedNetworkMap map{core::RegionAssignment::from_topology(m.topo)};
  map.ingest_batch(m.batches[0], MetroFixture::epoch_time(0));
  ServeFrontend frontend{map};
  for (const NodeId s : m.topo.edge_servers()) frontend.register_server(s);
  const sim::SimTime now = MetroFixture::epoch_time(1);
  ServeContext ctx;

  // Invalid origin id -> kUnknownOrigin, still a well-formed response.
  RankRequest req;
  req.query_id = 1;
  req.origin = core::kInvalidNode;
  RankResponse resp = serve_one(frontend, ctx, req, now);
  EXPECT_EQ(resp.status, ServeStatus::kUnknownOrigin);
  EXPECT_EQ(resp.entry_count, 0);
  EXPECT_EQ(ctx.unknown_origin, 1);

  // Only unregistered candidates -> kNoCandidates.
  req.origin = m.topo.hosts()[0];
  req.candidate_count = 2;
  req.candidates[0] = NodeId{777777};
  req.candidates[1] = NodeId{888888};
  resp = serve_one(frontend, ctx, req, now);
  EXPECT_EQ(resp.status, ServeStatus::kNoCandidates);
  EXPECT_EQ(resp.entry_count, 0);
  EXPECT_EQ(ctx.no_candidates, 1);

  // Malformed request -> serve() returns false, counts it, writes no
  // response bytes.
  std::array<std::byte, kMaxFrameSize> garbage{};
  garbage.fill(std::byte{0xAB});
  std::array<std::byte, kMaxFrameSize> resp_buf{};
  std::size_t resp_len = 123;
  EXPECT_FALSE(frontend.serve(ctx, garbage.data(), 40, resp_buf.data(),
                              resp_buf.size(), resp_len, now));
  EXPECT_EQ(resp_len, 0u);
  EXPECT_EQ(ctx.malformed, 1);
  EXPECT_EQ(ctx.served, 2);

  // Registry introspection.
  core::RegionId region = core::kNoRegion;
  EXPECT_TRUE(frontend.is_registered(m.topo.edge_servers()[0], &region));
  EXPECT_EQ(region, m.topo.region_of(m.topo.edge_servers()[0]));
  EXPECT_NE(region, core::kNoRegion);
  EXPECT_FALSE(frontend.is_registered(NodeId{777777}));

  // Registration is idempotent and ignores the invalid id.
  const std::size_t registered = frontend.registered().size();
  frontend.register_server(m.topo.edge_servers()[0]);
  frontend.register_server(core::kInvalidNode);
  EXPECT_EQ(frontend.registered().size(), registered);
  EXPECT_FALSE(frontend.is_registered(core::kInvalidNode));
}

TEST(ServeFrontendTest, WarmDecisionPathIsAllocationFree) {
  MetroFixture m{3, 3};
  core::ShardedNetworkMap map{core::RegionAssignment::from_topology(m.topo)};
  for (std::size_t e = 0; e < m.batches.size(); ++e) {
    map.ingest_batch(m.batches[e], MetroFixture::epoch_time(e));
  }
  ServeFrontend frontend{map};
  for (const NodeId s : m.topo.edge_servers()) frontend.register_server(s);

  const sim::SimTime now = MetroFixture::epoch_time(m.batches.size());
  const std::vector<NodeId> origins = m.topo.hosts();
  ServeContext ctx;
  std::array<std::byte, kMaxFrameSize> req_buf{};
  std::array<std::byte, kMaxFrameSize> resp_buf{};

  const auto serve_round = [&](std::uint64_t salt) {
    std::size_t good = 0;
    for (std::size_t i = 0; i < origins.size(); ++i) {
      RankRequest req;
      req.query_id = salt * 1000 + i;
      req.origin = origins[i];
      // Alternate the pick path (top-1 delay) and the rank path (top-4),
      // so both stay warm and both are measured.
      req.max_results = (i % 2 == 0) ? std::uint8_t{1} : std::uint8_t{4};
      const std::size_t req_len =
          encode_rank_request(req, req_buf.data(), req_buf.size());
      std::size_t resp_len = 0;
      if (frontend.serve(ctx, req_buf.data(), req_len, resp_buf.data(),
                         resp_buf.size(), resp_len, now) &&
          resp_len != 0) {
        ++good;
      }
    }
    return good;
  };

  // Warm-up: first touch of every origin fills the view's per-origin
  // query contexts and grows the scratch buffers to their steady size.
  ASSERT_EQ(serve_round(1), origins.size());
  serve_round(2);

  const std::int64_t before = counted_allocations();
  std::size_t good = 0;
  for (std::uint64_t round = 0; round < 10; ++round) {
    good += serve_round(3 + round);
  }
  const std::int64_t after = counted_allocations();
  EXPECT_EQ(good, origins.size() * 10);
  EXPECT_EQ(after - before, 0)
      << "warm serve path allocated " << (after - before) << " time(s)";
}

net::IntStackEntry hop(NodeId device, std::int32_t in, std::int32_t out,
                       sim::SimDuration latency) {
  net::IntStackEntry e;
  e.device = device;
  e.ingress_port = in;
  e.egress_port = out;
  e.ingress_link_latency = latency;
  return e;
}

/// Feeds `probes` to a flat NetworkMap and to one-region sharded maps,
/// and checks that every ranking path answers `server` from `origin`
/// without throwing and agrees: the reference Ranker, the view's rank and
/// pick, and ServeFrontend::serve, which reaches Dijkstra through the
/// view's region snapshot. Returns the Ranker's answer.
ServerRank expect_every_path_agrees(
    const std::vector<telemetry::ProbeReport>& probes, NodeId origin,
    NodeId server) {
  const sim::SimTime now = sim::SimTime::milliseconds(1);
  const std::vector<NodeId> servers{server};
  const core::RegionAssignment one_region{
      std::vector<core::RegionId>(32, core::RegionId{0}), core::RegionId{1}};

  core::NetworkMap flat;
  for (const telemetry::ProbeReport& r : probes) {
    flat.ingest(r, sim::SimTime::zero());
  }
  const core::Ranker ranker{flat};
  std::vector<ServerRank> want;
  EXPECT_NO_THROW(want = ranker.rank(origin, servers, RankingMetric::kDelay,
                                     now));

  core::ShardedNetworkMap picked_map{one_region};
  picked_map.ingest_batch(probes, sim::SimTime::zero());
  std::optional<ServerRank> picked;
  EXPECT_NO_THROW(picked = picked_map.view()->pick(
                      origin, servers, RankingMetric::kDelay, now));
  std::vector<ServerRank> ranked;
  EXPECT_NO_THROW(ranked = picked_map.view()->rank(
                      origin, servers, RankingMetric::kDelay, now));

  // A map of its own, so serve fills the origin's context itself.
  core::ShardedNetworkMap served_map{one_region};
  served_map.ingest_batch(probes, sim::SimTime::zero());
  ServeFrontend frontend{served_map};
  frontend.register_server(server);
  ServeContext ctx;
  RankRequest req;
  req.origin = origin;
  std::array<std::byte, kMaxFrameSize> req_buf{};
  std::array<std::byte, kMaxFrameSize> resp_buf{};
  const std::size_t req_len =
      encode_rank_request(req, req_buf.data(), req_buf.size());
  EXPECT_GT(req_len, 0u);
  std::size_t resp_len = 0;
  bool served = false;
  EXPECT_NO_THROW(served = frontend.serve(ctx, req_buf.data(), req_len,
                                          resp_buf.data(), resp_buf.size(),
                                          resp_len, now));

  if (want.size() != 1) {
    ADD_FAILURE() << "Ranker returned " << want.size() << " entries";
    return ServerRank{};
  }
  EXPECT_EQ(want[0].server, server);

  const auto expect_same = [&want](const ServerRank& got, const char* what) {
    EXPECT_EQ(got.server, want[0].server) << what;
    EXPECT_EQ(got.delay_estimate, want[0].delay_estimate) << what;
    EXPECT_EQ(got.baseline_delay, want[0].baseline_delay) << what;
    EXPECT_EQ(got.bandwidth_estimate.bps(), want[0].bandwidth_estimate.bps())
        << what;
    EXPECT_EQ(got.stale, want[0].stale) << what;
  };
  EXPECT_TRUE(picked.has_value());
  if (picked.has_value()) expect_same(*picked, "map pick");
  EXPECT_EQ(ranked.size(), 1u);
  if (ranked.size() == 1) expect_same(ranked[0], "map rank");

  EXPECT_TRUE(served);
  RankResponse resp;
  EXPECT_EQ(decode_rank_response(resp_buf.data(), resp_len, resp),
            WireError::kOk);
  EXPECT_EQ(resp.status, ServeStatus::kOk);
  EXPECT_EQ(resp.entry_count, 1);
  if (resp.entry_count == 1) {
    expect_entry_matches_rank(resp.entries[0], want[0], "serve");
  }
  return want[0];
}

// A host uplink measured at 0 ns in both directions gives the delay graph
// the zero-cost cycle host -> switch -> host. Every ranking path must still
// answer from that host, and agree.
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
  const ServerRank want =
      expect_every_path_agrees({up, down}, NodeId{0}, NodeId{1});
  EXPECT_EQ(want.delay_estimate, sim::SimDuration::milliseconds(10));
}

// Switches 1 and 2 sit at the same distance from host 20, joined by a
// 0 ns link (1 -> 2 measured, 2 -> 1 from the map's symmetric fallback).
// Re-parenting a settled node on that tie would make 1 and 2 each other's
// predecessor, and every path through them would never end; each ranking
// path must instead answer along 20 -> 10 -> 1 -> 2 -> 21.
TEST(ZeroDelayUplinkTest, ZeroCostTieBetweenSwitchesKeepsEveryPathFinite) {
  const sim::SimDuration zero = sim::SimDuration::zero();
  const sim::SimDuration five = sim::SimDuration::milliseconds(5);
  telemetry::ProbeReport via_one;  // host 20 -> s10 -> s1 -> s2 -> host 21
  via_one.src = NodeId{20};
  via_one.dst = NodeId{21};
  via_one.entries = {hop(NodeId{10}, 0, 1, five), hop(NodeId{1}, 0, 1, five),
                     hop(NodeId{2}, 0, 1, zero)};
  via_one.final_link_latency = five;
  telemetry::ProbeReport direct;  // host 20 -> s10 -> s2 -> host 21
  direct.src = NodeId{20};
  direct.dst = NodeId{21};
  direct.entries = {hop(NodeId{10}, 0, 2, five), hop(NodeId{2}, 2, 1, five)};
  direct.final_link_latency = five;
  const ServerRank want =
      expect_every_path_agrees({via_one, direct}, NodeId{20}, NodeId{21});
  EXPECT_EQ(want.baseline_delay, sim::SimDuration::milliseconds(15));

  core::NetworkMap map;
  map.ingest(via_one, sim::SimTime::zero());
  map.ingest(direct, sim::SimTime::zero());
  const net::Graph graph = map.delay_graph();
  EXPECT_EQ(net::dijkstra(graph, NodeId{20}).path_to(NodeId{21}),
            (std::vector<NodeId>{NodeId{20}, NodeId{10}, NodeId{1},
                                 NodeId{2}, NodeId{21}}));
}

// Two reports with no source (ProbeReport's default src, kInvalidNode)
// reach host 0 through s10 and host 3 through s11. Nothing joins s10 and
// s11 but that missing source, which names no device, so no path may run
// through it: every ranking path must rank host 3 unreachable from host 0.
TEST(ZeroDelayUplinkTest, ReportsWithoutASourceJoinNothing) {
  const sim::SimDuration five = sim::SimDuration::milliseconds(5);
  telemetry::ProbeReport to_host0;  // ? -> s10 -> host 0
  to_host0.dst = NodeId{0};
  to_host0.entries = {hop(NodeId{10}, 0, 1, five)};
  to_host0.final_link_latency = five;
  telemetry::ProbeReport to_host3;  // ? -> s11 -> host 3
  to_host3.dst = NodeId{3};
  to_host3.entries = {hop(NodeId{11}, 0, 1, five)};
  to_host3.final_link_latency = five;
  ASSERT_EQ(to_host0.src, core::kInvalidNode);
  const ServerRank want =
      expect_every_path_agrees({to_host0, to_host3}, NodeId{0}, NodeId{3});
  EXPECT_EQ(want.delay_estimate, sim::SimDuration::max());
}

}  // namespace
}  // namespace intsched::serve
