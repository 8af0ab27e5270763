// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// and the scheduler: event queue churn, per-packet pipeline cost, INT
// probe processing, Dijkstra, and Algorithm-1 ranking.

#include <benchmark/benchmark.h>

#include "intsched/core/ranking.hpp"
#include "intsched/core/sharded_map.hpp"
#include "intsched/exp/fig4.hpp"
#include "intsched/exp/metro.hpp"
#include "intsched/sim/event_queue.hpp"
#include "intsched/sim/rng.hpp"
#include "intsched/sim/strfmt.hpp"
#include "intsched/telemetry/collector.hpp"
#include "intsched/telemetry/int_program.hpp"
#include "intsched/telemetry/probe_agent.hpp"
#include "intsched/transport/host_stack.hpp"
#include "intsched/transport/tcp.hpp"

namespace {

using namespace intsched;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng{1};
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.push(sim::SimTime::nanoseconds(t + rng.uniform_int(0, 1'000'000)),
             [] {});
    }
    for (int i = 0; i < 64; ++i) {
      auto [at, cb] = q.pop();
      t = at.ns();
      benchmark::DoNotOptimize(cb);
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_EventQueuePushPop);

/// Timer-heavy workloads (TCP retransmit timers, staleness timeouts) arm
/// events that are almost always cancelled before firing; this measures
/// the slab's tombstone path: push + cancel churn with a live heap.
void BM_EventQueueCancelChurn(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng{1};
  std::int64_t t = 0;
  std::vector<sim::EventId> armed;
  for (auto _ : state) {
    armed.clear();
    for (int i = 0; i < 64; ++i) {
      armed.push_back(q.push(
          sim::SimTime::nanoseconds(t + 1 + rng.uniform_int(0, 1'000'000)),
          [] {}));
    }
    // Cancel three quarters of them (the timer-churn pattern), fire the
    // rest so the heap drains its tombstones.
    for (std::size_t i = 0; i < armed.size(); ++i) {
      if (i % 4 != 0) q.cancel(armed[i]);
    }
    for (int i = 0; i < 16; ++i) {
      auto [at, cb] = q.pop();
      t = at.ns();
      benchmark::DoNotOptimize(cb);
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_RngU64(benchmark::State& state) {
  sim::Rng rng{1};
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngU64);

void BM_DijkstraFig4(benchmark::State& state) {
  sim::Simulator sim;
  exp::Fig4Network network{sim, exp::Fig4Config{}};
  const net::Graph& g = network.topology().graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::dijkstra(g, core::NodeId{0}));
  }
}
BENCHMARK(BM_DijkstraFig4);

/// One Dijkstra from a host over one region's delay graph of e2ebench's
/// 48-pod metro (38 nodes: 6 spines, 16 leaves, 16 hosts): the work of
/// filling one region memo on a context build.
void BM_DijkstraMetroRegion(benchmark::State& state) {
  net::MetroConfig cfg;
  cfg.seed = 1;
  cfg.pods = 48;
  cfg.pod.spines = 6;
  cfg.pod.leaves = 16;
  cfg.pod.hosts_per_leaf = 1;
  cfg.pod.edge_servers_per_pod = 4;
  cfg.ring_chords = 2;
  const net::GenTopology topo = net::TopologyGen::ring_of_pods(cfg);
  core::ShardedNetworkMap map{core::RegionAssignment::from_topology(topo)};
  exp::MetroTelemetryGen gen{topo, exp::MetroTelemetryConfig{.seed = 1}};
  map.ingest_batch(gen.full_sweep(), sim::SimTime::seconds(1));
  const std::shared_ptr<const core::MetroView> view = map.view();
  const core::RegionId region{0};
  const net::Graph& g = view->region_snapshot(region).delay_graph();
  core::NodeId origin = core::kInvalidNode;
  for (const core::NodeId h : topo.hosts()) {
    if (topo.region_of(h) == region) {
      origin = h;
      break;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::dijkstra(g, origin));
  }
}
BENCHMARK(BM_DijkstraMetroRegion);

/// Cost of pushing one data packet through a P4 switch pipeline
/// (parse + table lookup + enqueue + egress), amortized.
void BM_SwitchPipelinePerPacket(benchmark::State& state) {
  sim::Simulator sim;
  net::Topology topo{sim};
  auto& a = topo.add_node<net::Host>("a");
  auto& b = topo.add_node<net::Host>("b");
  p4::SwitchConfig cfg;
  cfg.proc_delay_mean = sim::SimDuration::microseconds(1);
  cfg.stall_probability = 0.0;
  auto& sw = topo.add_node<p4::P4Switch>("sw", cfg);
  net::LinkConfig link;
  link.prop_delay = sim::SimDuration::microseconds(1);
  topo.connect(a, sw, link);
  topo.connect(b, sw, link);
  topo.install_routes();
  sw.load_program(std::make_unique<telemetry::IntTelemetryProgram>());
  std::int64_t delivered = 0;
  b.set_receiver([&](net::Packet&&) { ++delivered; });
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) {
      net::Packet p;
      p.dst = b.id();
      p.wire_size = 1500;
      a.send(std::move(p));
    }
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_SwitchPipelinePerPacket);

/// Full probe round: host -> 3 switches -> collector, parse included.
void BM_ProbeRoundTrip(benchmark::State& state) {
  sim::Simulator sim;
  net::Topology topo{sim};
  auto& a = topo.add_node<net::Host>("a");
  auto& b = topo.add_node<net::Host>("b");
  p4::SwitchConfig cfg;
  cfg.proc_delay_mean = sim::SimDuration::microseconds(1);
  cfg.stall_probability = 0.0;
  std::vector<p4::P4Switch*> switches;
  for (int i = 0; i < 3; ++i) {
    switches.push_back(&topo.add_node<p4::P4Switch>(sim::cat("s", i), cfg));
  }
  net::LinkConfig link;
  link.prop_delay = sim::SimDuration::microseconds(1);
  topo.connect(a, *switches[0], link);
  topo.connect(*switches[0], *switches[1], link);
  topo.connect(*switches[1], *switches[2], link);
  topo.connect(*switches[2], b, link);
  topo.install_routes();
  for (auto* sw : switches) {
    sw->load_program(std::make_unique<telemetry::IntTelemetryProgram>());
  }
  transport::HostStack stack_b{b};
  telemetry::IntCollector collector{b};
  stack_b.bind_udp(net::kProbePort, [&](const net::Packet& p) {
    collector.handle_packet(p);
  });
  telemetry::ProbeAgent agent{a, b.id()};
  for (auto _ : state) {
    agent.send_probe();
    sim.run();
  }
  benchmark::DoNotOptimize(collector.probes_received());
}
BENCHMARK(BM_ProbeRoundTrip);

/// Ingest + window-max congestion queries against the monotonic
/// max-deque, interleaved the way the scheduler sees them: a burst of
/// probe reports per probing interval, many ranking queries in between.
void BM_WindowMaxQuery(benchmark::State& state) {
  core::NetworkMap map;
  sim::Rng rng{1};
  sim::SimTime now = sim::SimTime::zero();
  const core::NodeId device{3};
  std::int64_t acc = 0;
  for (auto _ : state) {
    now += sim::SimDuration::milliseconds(10);
    telemetry::ProbeReport report;
    report.src = core::NodeId{100};
    report.dst = core::NodeId{101};
    net::IntStackEntry entry;
    entry.device = device;
    entry.ingress_port = 0;
    entry.egress_port = 1;
    entry.max_queue_pkts = rng.uniform_int(0, 64);
    entry.device_max_queue_pkts = entry.max_queue_pkts;
    report.entries.push_back(entry);
    map.ingest(report, now);
    for (int i = 0; i < 32; ++i) {
      acc += map.device_max_queue(device, now);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_WindowMaxQuery);

/// Algorithm 1's scoring over the inferred Fig. 4 map with live
/// telemetry: rank_candidates over one origin's shortest paths, computed
/// once before the loop (BM_DijkstraFig4 times the Dijkstra run).
void BM_RankSevenCandidates(benchmark::State& state) {
  sim::Simulator sim;
  exp::Fig4Network network{sim, exp::Fig4Config{}};
  const core::NodeId scheduler_id = network.scheduler_host().id();
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  transport::HostStack* scheduler_stack = nullptr;
  for (net::Host* h : network.hosts()) {
    stacks.push_back(std::make_unique<transport::HostStack>(*h));
    if (h->id() == scheduler_id) scheduler_stack = stacks.back().get();
  }
  telemetry::IntCollector collector{network.scheduler_host()};
  core::NetworkMap map;
  scheduler_stack->bind_udp(net::kProbePort, [&](const net::Packet& p) {
    collector.handle_packet(p);
  });
  collector.set_handler([&](const telemetry::ProbeReport& r) {
    map.ingest(r, sim.now());
  });
  std::vector<std::unique_ptr<telemetry::ProbeAgent>> agents;
  for (net::Host* h : network.hosts()) {
    if (h->id() == scheduler_id) continue;
    agents.push_back(
        std::make_unique<telemetry::ProbeAgent>(*h, scheduler_id));
    agents.back()->start();
  }
  sim.run_until(sim::SimTime::seconds(1));
  const core::RankerConfig cfg;
  const net::Graph graph = map.delay_graph();
  const net::ShortestPaths sp = net::dijkstra(graph, core::NodeId{0});
  const std::vector<core::NodeId> candidates{
      core::NodeId{1}, core::NodeId{2}, core::NodeId{3}, core::NodeId{4},
      core::NodeId{5}, core::NodeId{6}, core::NodeId{7}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rank_candidates(
        map, cfg, sp, candidates, core::RankingMetric::kDelay, sim.now()));
  }
}
BENCHMARK(BM_RankSevenCandidates);

// -- rank_plane: compiled plane kernels ------------------------------------
//
// One warmed metro (8 pods, smoke scale) published by a sharded map;
// every benchmark below cycles origins over the hosts so the per-origin
// memo is warm and the number measured is steady-state per-query cost,
// not the fill. Leaked on purpose (function-local static pointer): shared
// bench state must outlive google-benchmark's teardown in every exit
// path.
struct MetroRankState {
  net::GenTopology topo;
  std::unique_ptr<core::ShardedNetworkMap> compiled;
  std::vector<core::NodeId> servers;
  std::vector<core::NodeId> origins;
  sim::SimTime now = sim::SimTime::seconds(1);

  MetroRankState() {
    net::MetroConfig cfg;
    cfg.seed = 42;
    cfg.pods = 8;
    topo = net::TopologyGen::ring_of_pods(cfg);
    compiled = std::make_unique<core::ShardedNetworkMap>(
        core::RegionAssignment::from_topology(topo));
    exp::MetroTelemetryGen gen{topo, exp::MetroTelemetryConfig{.seed = 42}};
    compiled->ingest_batch(gen.full_sweep(), now);
    servers = topo.edge_servers();
    origins = topo.hosts();
  }
};

MetroRankState& metro_rank_state() {
  static MetroRankState* state = new MetroRankState;
  return *state;
}

void run_metro_rank(benchmark::State& state, core::ShardedNetworkMap& map,
                    std::size_t top_k) {
  MetroRankState& s = metro_rank_state();
  const std::shared_ptr<const core::MetroView> view = map.view();
  core::MetroView::RankScratch scratch;
  std::vector<core::ServerRank> out;
  std::size_t q = 0;
  for (auto _ : state) {
    const core::NodeId origin = s.origins[q % s.origins.size()];
    ++q;
    view->rank_topk_into(origin, s.servers.data(), s.servers.size(),
                         core::RankingMetric::kDelay, s.now, top_k, scratch,
                         out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Full ranking of every edge server from a compiled plane.
void BM_RankPlaneMetroFull(benchmark::State& state) {
  run_metro_rank(state, *metro_rank_state().compiled,
                 metro_rank_state().servers.size());
}
BENCHMARK(BM_RankPlaneMetroFull);

/// Top-8 partial selection from the compiled plane — the serve-frontend
/// multi-result shape (max_results << candidate count).
void BM_RankPlaneMetroTop8(benchmark::State& state) {
  run_metro_rank(state, *metro_rank_state().compiled, 8);
}
BENCHMARK(BM_RankPlaneMetroTop8);

void run_metro_pick(benchmark::State& state, core::ShardedNetworkMap& map) {
  MetroRankState& s = metro_rank_state();
  const std::shared_ptr<const core::MetroView> view = map.view();
  core::MetroView::RankScratch scratch;
  std::size_t q = 0;
  for (auto _ : state) {
    const core::NodeId origin = s.origins[q % s.origins.size()];
    ++q;
    benchmark::DoNotOptimize(
        view->pick_with(origin, s.servers.data(), s.servers.size(),
                        core::RankingMetric::kDelay, s.now, scratch, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Region-pruned best-server pick over the plane's branchless argmin.
void BM_PickPlaneMetro(benchmark::State& state) {
  run_metro_pick(state, *metro_rank_state().compiled);
}
BENCHMARK(BM_PickPlaneMetro);

// -- fresh views: the first picks after a publish --------------------------
//
// An 8-pod map of its own (the entries above keep theirs warm), fed its
// full sweep, and a cycle of pre-generated refresh bursts. Every iteration
// publishes the next burst with timing paused, so each timed pick runs on
// a view no query has touched. The iteration count is fixed: the untimed
// publish costs more than the timed pick, and a count chosen from timed
// time alone would stretch the suite's wall time.
struct FreshViewState {
  static constexpr std::size_t kBursts = 16;
  net::GenTopology topo;
  std::unique_ptr<core::ShardedNetworkMap> map;
  std::vector<std::vector<telemetry::ProbeReport>> bursts;
  std::vector<core::NodeId> servers;
  std::vector<core::NodeId> origins;
  std::size_t published = 0;

  FreshViewState() {
    net::MetroConfig cfg;
    cfg.seed = 42;
    cfg.pods = 8;
    topo = net::TopologyGen::ring_of_pods(cfg);
    map = std::make_unique<core::ShardedNetworkMap>(
        core::RegionAssignment::from_topology(topo));
    exp::MetroTelemetryGen gen{topo, exp::MetroTelemetryConfig{.seed = 42}};
    map->ingest_batch(gen.full_sweep(), sim::SimTime::seconds(1));
    const auto refresh = static_cast<std::int64_t>(topo.links.size()) / 4;
    for (std::size_t b = 0; b < kBursts; ++b) {
      bursts.push_back(gen.refresh(refresh));
    }
    servers = topo.edge_servers();
    origins = topo.hosts();
  }

  /// Publishes the next burst and returns the new view, with its time.
  std::shared_ptr<const core::MetroView> publish(sim::SimTime& now) {
    now = sim::SimTime::seconds(2 + static_cast<std::int64_t>(published));
    map->ingest_batch(bursts[published % kBursts], now);
    ++published;
    return map->view();
  }
};

FreshViewState& fresh_view_state() {
  static FreshViewState* state = new FreshViewState;
  return *state;
}

/// Publishes a burst per iteration, untimed, then times one pick on the
/// new view, after an untimed pick from another origin when
/// `untimed_first` is set. Origins cycle over the hosts.
void run_fresh_view_pick(benchmark::State& state, bool untimed_first) {
  FreshViewState& s = fresh_view_state();
  core::MetroView::RankScratch scratch;
  std::size_t q = 0;
  const auto pick = [&s, &scratch, &q](const core::MetroView& view,
                                       sim::SimTime now) {
    const core::NodeId origin = s.origins[q % s.origins.size()];
    ++q;
    return view.pick_with(origin, s.servers.data(), s.servers.size(),
                          core::RankingMetric::kDelay, now, scratch, nullptr);
  };
  for (auto _ : state) {
    state.PauseTiming();
    sim::SimTime now;
    const std::shared_ptr<const core::MetroView> view = s.publish(now);
    if (untimed_first) benchmark::DoNotOptimize(pick(*view, now));
    state.ResumeTiming();
    benchmark::DoNotOptimize(pick(*view, now));
  }
}

/// A fresh view's first pick: its telemetry catalog fill plus one
/// context build.
void BM_FreshViewFirstPick(benchmark::State& state) {
  run_fresh_view_pick(state, false);
}
BENCHMARK(BM_FreshViewFirstPick)->Iterations(1000);

/// A fresh view's second pick, from another origin: one context build
/// over the catalog the untimed first pick filled.
void BM_FreshViewSecondPick(benchmark::State& state) {
  run_fresh_view_pick(state, true);
}
BENCHMARK(BM_FreshViewSecondPick)->Iterations(1000);

/// End-to-end simulated TCP throughput: wall time per simulated megabyte.
void BM_TcpTransferPerMB(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::Topology topo{sim};
    auto& a = topo.add_node<net::Host>("a");
    auto& b = topo.add_node<net::Host>("b");
    p4::SwitchConfig cfg;
    cfg.stall_probability = 0.0;
    auto& sw = topo.add_node<p4::P4Switch>("sw", cfg);
    topo.connect(a, sw, net::LinkConfig{});
    topo.connect(b, sw, net::LinkConfig{});
    topo.install_routes();
    sw.load_program(std::make_unique<p4::ForwardingProgram>());
    transport::HostStack stack_a{a};
    transport::HostStack stack_b{b};
    transport::TcpListener listener{
        stack_b, net::kTaskPort,
        [](core::NodeId, sim::Bytes, std::shared_ptr<const net::AppMessage>) {
        }};
    transport::TcpSender sender{stack_a, b.id(), net::kTaskPort,
                                1 * sim::kMB};
    sender.start();
    sim.run();
    benchmark::DoNotOptimize(sender.complete());
  }
  state.SetBytesProcessed(state.iterations() * sim::kMB);
}
BENCHMARK(BM_TcpTransferPerMB)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
