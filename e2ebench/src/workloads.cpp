#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "harness.hpp"
#include "intsched/exp/metro.hpp"
#include "intsched/exp/sweep_runner.hpp"
#include "intsched/sim/rng.hpp"

namespace e2ebench {

namespace {

struct WorkloadDef {
  const char* name;
  /// The 48-pod metro, where one client asks for the registry-wide best
  /// server (pick_with); else the 4-pod metro, where two clients ask for
  /// the top 3 of 4 named servers (rank_topk_into).
  bool metro;
  /// A probe burst before every 500 decisions; else set-up warms every
  /// origin and nothing is ingested after it.
  bool live;
  /// An untraced run is this many rounds of a fresh set-up followed by an
  /// equal share of the window, so the set-ups whose median is setup_s
  /// are spread over the run instead of taken in one stretch of it.
  int rounds;
  std::uint64_t prefix;    // requests of each round in the fingerprint
  std::size_t checks;      // requests in the cross-check pass
  std::uint64_t expected;  // decision fingerprint at kDefaultSeed

  [[nodiscard]] bool warm() const { return !live; }
  [[nodiscard]] bool explicit_candidates() const { return !metro; }
  [[nodiscard]] std::size_t clients() const { return metro ? 1 : 2; }
};

// A round keeps going past its share of the window until its
// fingerprinted prefix is complete; the prefixes take a small share of
// a round on a 4-vCPU guest. metro_live's prefix is its first probing
// interval.
constexpr WorkloadDef kWorkloads[] = {
    {"metro_pick", true, false, 3, 20000, 256, 0xdf4df6aae979ce17ULL},
    {"metro_live", true, true, 10, 500, 64, 0x8a1be291de2ff108ULL},
    {"pod_rank", false, false, 30, 200000, 256, 0x1bdadb0e87c08bafULL},
};

/// The paper's probing interval, and the decisions served after each
/// burst: an offered 5,000 decisions per second of sim time.
constexpr sim::SimDuration kInterval = sim::SimDuration::millis(100);
constexpr std::uint64_t kDecisionsPerInterval = 500;
constexpr sim::SimTime kStart = sim::SimTime::seconds(1);
/// Request specs and probe bursts are generated once and cycled.
constexpr std::size_t kRequestPool = std::size_t{1} << 16;
constexpr std::size_t kBurstPool = 16;
/// Query ids of set-up warm-up requests, apart from the window's.
constexpr std::uint64_t kWarmupIds = std::uint64_t{1} << 60;

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

net::MetroConfig metro_config(const WorkloadDef& w, std::uint64_t seed) {
  net::MetroConfig cfg;
  cfg.seed = seed;
  if (w.metro) {
    // 48 x (6 spines + 16 leaves) = 1056 switches, 768 hosts, 192 servers.
    cfg.pods = 48;
    cfg.pod.spines = 6;
    cfg.pod.leaves = 16;
    cfg.pod.hosts_per_leaf = 1;
    cfg.pod.edge_servers_per_pod = 4;
    cfg.ring_chords = 2;
  } else {
    // 4 x (2 spines + 4 leaves) = 24 switches, 32 hosts, 8 servers.
    cfg.pods = 4;
  }
  return cfg;
}

std::vector<Probe> to_probes(
    const std::vector<telemetry::ProbeReport>& reports) {
  std::vector<Probe> out;
  out.reserve(reports.size());
  for (const telemetry::ProbeReport& r : reports) out.push_back(to_probe(r));
  return out;
}

Inputs generate(const WorkloadDef& w, std::uint64_t seed) {
  Inputs in;
  in.topo = net::TopologyGen::ring_of_pods(metro_config(w, seed));
  const std::vector<std::string> problems = in.topo.validate();
  if (!problems.empty()) {
    throw std::runtime_error("generated topology is malformed: " +
                             problems.front());
  }
  in.hosts = in.topo.hosts();
  in.servers = in.topo.edge_servers();
  if (in.hosts.empty() || in.servers.size() < 4) {
    throw std::runtime_error("generated topology has too few hosts");
  }

  exp::MetroTelemetryGen telemetry{
      in.topo, exp::MetroTelemetryConfig{.seed = seed}};
  in.sweep = to_probes(telemetry.full_sweep());
  in.max_delivery = in.sweep.size();
  if (w.live) {
    const auto per_burst = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(in.topo.links.size()) / 8);
    for (std::size_t b = 0; b < kBurstPool; ++b) {
      in.bursts.push_back(to_probes(telemetry.refresh(per_burst)));
      in.max_delivery = std::max(in.max_delivery, in.bursts.back().size());
    }
  }

  sim::Rng rng = sim::Rng::derive(seed, "e2ebench.requests");
  const auto draw = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.index(static_cast<std::int64_t>(n)));
  };
  in.requests.resize(kRequestPool);
  std::vector<core::NodeId> pool = in.servers;
  for (std::size_t i = 0; i < kRequestPool; ++i) {
    RequestSpec& r = in.requests[i];
    r.origin = in.hosts[draw(in.hosts.size())];
    if (w.explicit_candidates()) {
      // Metric alternates in pairs of ids, so each of two clients taking
      // every other id alternates request by request.
      r.metric = ((i >> 1) & 1) == 0 ? core::RankingMetric::kDelay
                                     : core::RankingMetric::kBandwidth;
      r.max_results = 3;
      r.candidate_count = static_cast<std::uint8_t>(r.candidates.size());
      for (std::size_t k = 0; k < r.candidates.size(); ++k) {
        std::swap(pool[k], pool[k + draw(pool.size() - k)]);
        r.candidates[k] = pool[k];
      }
    }
  }
  return in;
}

/// One set-up: the serving system and its warmed clients.
struct SetUp {
  std::unique_ptr<System> sys;
  std::vector<std::unique_ptr<Client>> clients;
  std::int64_t ns = 0;  ///< wall time of the whole set-up
  double rss_ingest_mb = 0.0;
  double rss_warm_mb = 0.0;
};

/// Map construction, the initial full sweep through the probe path,
/// server registration and warm-up: everything up to the first timed
/// request. With a tracer, every call is spanned and counted.
std::unique_ptr<SetUp> set_up(const WorkloadDef& w, Inputs& in,
                              Tracer* tracer) {
  auto s = std::make_unique<SetUp>();
  const std::int64_t begin = now_ns();
  s->sys = std::make_unique<System>(in, kStart, tracer);
  s->rss_ingest_mb = rss_mb();
  for (std::size_t t = 0; t < w.clients(); ++t) {
    s->clients.push_back(std::make_unique<Client>());
  }
  if (w.warm()) {
    std::uint64_t id = kWarmupIds;
    for (auto& c : s->clients) {
      c->tracer = tracer;
      c->count_all = true;
      RequestSpec spec = in.requests.front();
      for (const core::NodeId origin : in.hosts) {
        spec.origin = origin;
        spec.metric = core::RankingMetric::kDelay;
        answer(*c, *s->sys, spec, id++, kStart, false);
        if (w.explicit_candidates()) {
          spec.metric = core::RankingMetric::kBandwidth;
          answer(*c, *s->sys, spec, id++, kStart, false);
        }
      }
      c->tracer = nullptr;
      c->count_all = false;
    }
  }
  s->ns = now_ns() - begin;
  s->rss_warm_mb = rss_mb();
  return s;
}

/// What a run's timed windows and its cross-check pass found.
struct Phase {
  // intsched-lint: allow(raw-unit): wall-clock ns, not sim time
  std::int64_t window_ns = 0;
  std::int64_t decisions = 0;
  ExactSamples latency_ns;
  /// Per round, the fingerprint of its prefix.
  std::vector<DecisionFingerprint> fingerprints;
  ExactSamples publish_ns{0};
  /// Deliveries made while fingerprinted requests were being answered.
  std::vector<Delivery> counted;
  /// Every delivery, the set-ups' initial sweeps included.
  std::vector<Delivery> deliveries;
  /// Sim time of the newest view, which the cross-check pass reads.
  sim::SimTime last_now = kStart;
  std::size_t checks = 0;
  std::size_t check_failures = 0;
  /// Decisions per second in each whole slice of a window (static
  /// workloads) or each probing interval (metro_live).
  std::vector<double> rates;
};

double per_second(std::int64_t count, std::int64_t ns) {
  return ns > 0 ? static_cast<double>(count) * 1e9 / static_cast<double>(ns)
                : 0.0;
}

/// Decisions per second: the median over the windows' slices (probing
/// intervals in metro_live), so a stretch of the run the host slowed
/// down moves it less than it moves the mean. Windows shorter than one
/// slice fall back to the mean.
double decision_rate(const Phase& p) {
  return p.rates.empty() ? per_second(p.decisions, p.window_ns)
                         : nearest_rank_of(p.rates, 1, 2);
}

/// Closed loop: client t sends ids t, t + n, t + 2n, ... back to back
/// until the window has passed and its share of the prefix is done.
std::int64_t client_loop(const WorkloadDef& w, const Inputs& in, System& sys,
                         Client& c, std::size_t t, std::int64_t start,
                         std::int64_t deadline) {
  c.window_start_ns = start;
  while (now_ns() < start) {
  }
  std::int64_t last = start;
  const sim::SimTime now = sys.initial_time();
  const std::uint64_t stride = w.clients();
  for (std::uint64_t id = t;; id += stride) {
    if (last >= deadline && id >= w.prefix) break;
    last = answer(c, sys, in.requests[id % in.requests.size()], id, now,
                  id < w.prefix);
  }
  return last;
}

/// One timed window of `seconds` on set-up `s`, added to `p`. Every
/// window starts at request id 0 (and metro_live at the first burst),
/// so each round's fingerprinted prefix is the same work.
void run_window(const WorkloadDef& w, double seconds, Inputs& in, SetUp& s,
                std::vector<Tracer>* tracers, Phase& p) {
  System& sys = *s.sys;
  std::int64_t warmup = 0;
  for (std::size_t t = 0; t < s.clients.size(); ++t) {
    Client& c = *s.clients[t];
    c.tracer = tracers != nullptr ? &(*tracers)[t] : nullptr;
    c.timed = true;
    warmup += c.attempted;
  }
  const auto window = static_cast<std::int64_t>(seconds * 1e9);
  p.deliveries.push_back(sys.initial());
  p.last_now = sys.initial_time();

  if (w.live) {
    Client& c = *s.clients.front();
    const std::int64_t start = now_ns();
    c.window_start_ns = start;
    std::int64_t last = start;
    std::uint64_t id = 0;
    for (std::size_t i = 0;; ++i) {
      // Intervals are whole, so the round ends at the interval boundary
      // nearest its share of the window (once its prefix is done).
      const std::int64_t elapsed = last - start;
      if (id >= w.prefix && i > 0 &&
          elapsed + elapsed / static_cast<std::int64_t>(2 * i) >= window) {
        break;
      }
      const sim::SimTime now =
          kStart + kInterval * static_cast<std::int64_t>(i + 1);
      const std::int64_t interval_begin = now_ns();
      const Delivery d =
          sys.deliver(in.bursts[i % in.bursts.size()], now, c.tracer);
      p.publish_ns.add(d.publish_ns);
      p.deliveries.push_back(d);
      if (id < w.prefix) p.counted.push_back(d);
      for (std::uint64_t k = 0; k < kDecisionsPerInterval; ++k, ++id) {
        last = answer(c, sys, in.requests[id % in.requests.size()], id, now,
                      id < w.prefix);
      }
      p.last_now = now;
      p.rates.push_back(per_second(kDecisionsPerInterval,
                                   last - interval_begin));
    }
    p.window_ns += last - start;
  } else {
    p.counted.push_back(sys.initial());
    // Every client starts at one instant 2 ms ahead, after the runner's
    // workers are up.
    const std::int64_t start = now_ns() + 2000000;
    const std::int64_t deadline = start + window;
    const exp::SweepRunner runner{static_cast<int>(s.clients.size())};
    const std::vector<std::int64_t> ends = runner.map<std::int64_t>(
        s.clients.size(), [&](std::size_t t) {
          return client_loop(w, in, sys, *s.clients[t], t, start, deadline);
        });
    p.window_ns += *std::max_element(ends.begin(), ends.end()) - start;
    // Whole slices inside the window; requests a client completed after
    // the deadline (finishing its prefix share) fall outside them.
    std::vector<std::int64_t> slices(
        static_cast<std::size_t>(window / kSliceNs), 0);
    for (auto& c : s.clients) {
      const std::size_t n = std::min(slices.size(), c->slice_counts.size());
      for (std::size_t i = 0; i < n; ++i) slices[i] += c->slice_counts[i];
    }
    for (const std::int64_t n : slices) {
      p.rates.push_back(per_second(n, kSliceNs));
    }
  }

  DecisionFingerprint round;
  for (auto& c : s.clients) {
    c->timed = false;
    p.decisions += c->attempted;
    p.latency_ns.merge(c->latency_ns);
    round.merge(c->fingerprint);
  }
  p.decisions -= warmup;
  p.fingerprints.push_back(round);
}

/// The cross-check pass after a window, on the same set-up: the first
/// requests of the stream, each checked by cross_check.
void run_checks(const WorkloadDef& w, const Inputs& in, SetUp& s, Phase& p) {
  Client& c = *s.clients.front();
  for (std::size_t k = 0; k < w.checks; ++k) {
    ++p.checks;
    if (!cross_check(c, *s.sys, in.requests[k], k, p.last_now, w.metro)) {
      ++p.check_failures;
    }
  }
  for (auto& cl : s.clients) cl->tracer = nullptr;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex;
  os.width(16);
  os.fill('0');
  os << v;
  return os.str();
}

/// Requests, failures and frontend counters of the run's set-ups, folded
/// in before each set-up is torn down.
struct Totals {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t frontend_seen = 0;  ///< ServeContext served + malformed
  std::int64_t malformed_probes = 0;
  std::int64_t undeliverable = 0;

  void absorb(const SetUp& s) {
    for (const auto& c : s.clients) {
      attempted += c->attempted;
      failed += c->failed;
      frontend_seen += c->ctx.served + c->ctx.malformed;
    }
    malformed_probes += s.sys->malformed();
    undeliverable += s.sys->undeliverable();
  }
};

/// Checks every run makes, whatever its mode.
void check_run(const WorkloadDef& w, const Options& o, const Totals& t,
               const Phase& p, Result& r) {
  r.attempted = t.attempted;
  r.failed = t.failed;
  if (t.failed != 0) {
    r.problems.push_back(std::to_string(t.failed) + " of " +
                         std::to_string(t.attempted) + " requests failed");
  }
  if (t.frontend_seen != t.attempted) {
    r.problems.push_back("the frontend counted " +
                         std::to_string(t.frontend_seen) + " requests, the "
                         "clients sent " + std::to_string(t.attempted));
  }
  if (t.malformed_probes != 0 || t.undeliverable != 0) {
    r.problems.push_back("probe path: " + std::to_string(t.malformed_probes) +
                         " malformed, " + std::to_string(t.undeliverable) +
                         " undeliverable");
  }
  if (p.check_failures != 0) {
    r.problems.push_back("cross-checks failed on " +
                         std::to_string(p.check_failures) + " of " +
                         std::to_string(p.checks) + " requests");
  }
  for (const Delivery& d : p.deliveries) {
    if (d.batches != 1) {
      r.problems.push_back("a probe delivery emitted " +
                           std::to_string(d.batches) +
                           " batches instead of 1");
      break;
    }
  }
  const DecisionFingerprint& first = p.fingerprints.front();
  for (const DecisionFingerprint& f : p.fingerprints) {
    if (f.count() != static_cast<std::int64_t>(w.prefix)) {
      r.problems.push_back("a fingerprint covers " +
                           std::to_string(f.count()) + " requests, not " +
                           std::to_string(w.prefix));
      break;
    }
    if (f.value() != first.value()) {
      r.problems.push_back("round fingerprints differ: " +
                           hex64(first.value()) + " and " +
                           hex64(f.value()));
      break;
    }
  }
  std::string line = "fingerprint " + hex64(first.value()) +
                     " over the first " + std::to_string(w.prefix) +
                     " requests of each of " +
                     std::to_string(p.fingerprints.size()) + " round(s)";
  if (o.seed == kDefaultSeed) {
    const bool match = first.value() == w.expected;
    line += match ? " (matches the committed value)"
                  : " (committed value " + hex64(w.expected) + ")";
    if (!match) {
      r.problems.push_back("decision fingerprint " + hex64(first.value()) +
                           " differs from the committed " + hex64(w.expected));
    }
  }
  r.notes.push_back(line);
}

Result run_e2e(const WorkloadDef& w, const Options& o, Inputs& in) {
  Result r;
  Totals totals;
  ExactSamples setup_ns{0};
  std::vector<double> setup_s;
  Phase p;
  for (int round = 0; round < w.rounds; ++round) {
    // One system at a time: the previous round's is gone, so the peak
    // resident set is one round's.
    const std::unique_ptr<SetUp> s = set_up(w, in, nullptr);
    setup_ns.add(s->ns);
    setup_s.push_back(static_cast<double>(s->ns) / 1e9);
    run_window(w, o.seconds / w.rounds, in, *s, nullptr, p);
    if (round + 1 == w.rounds) run_checks(w, in, *s, p);
    totals.absorb(*s);
  }
  check_run(w, o, totals, p, r);

  const std::int64_t samples = p.latency_ns.count();
  r.notes.push_back(
      std::to_string(w.rounds) + " rounds; windows: " +
      std::to_string(static_cast<double>(p.window_ns) / 1e9) + " s, " +
      std::to_string(p.decisions) + " decisions, " + std::to_string(samples) +
      " latency samples" +
      (w.live ? ", " + std::to_string(p.publish_ns.count()) + " publishes"
              : std::string{}));
  r.notes.push_back(
      "set-up s: first round " + std::to_string(setup_s.front()) + ", min " +
      std::to_string(*std::min_element(setup_s.begin(), setup_s.end())) +
      ", max " +
      std::to_string(*std::max_element(setup_s.begin(), setup_s.end())));
  if (!p.rates.empty()) {
    r.notes.push_back(
        "decisions/s per slice: min " +
        std::to_string(*std::min_element(p.rates.begin(), p.rates.end())) +
        ", median " + std::to_string(nearest_rank_of(p.rates, 1, 2)) +
        ", max " +
        std::to_string(*std::max_element(p.rates.begin(), p.rates.end())) +
        " over " + std::to_string(p.rates.size()) + " slices");
  }
  r.metrics = {
      {"decisions_per_s", decision_rate(p), "1/s"},
      {"decision_p50_us",
       static_cast<double>(p.latency_ns.nearest_rank(1, 2)) / 1e3, "us"},
      {"decision_p99_us",
       static_cast<double>(p.latency_ns.nearest_rank(99, 100)) / 1e3, "us"},
  };
  if (w.live) {
    r.metrics.push_back({"publish_p50_ms",
                         static_cast<double>(p.publish_ns.median()) / 1e6,
                         "ms"});
  }
  r.metrics.push_back(
      {"setup_s", static_cast<double>(setup_ns.median()) / 1e9, "s"});
  r.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  r.metrics.push_back(
      {"failed_frac",
       totals.attempted > 0 ? static_cast<double>(totals.failed) /
                                  static_cast<double>(totals.attempted)
                            : 0.0,
       "fraction"});
  return r;
}

Result run_traced(const WorkloadDef& w, const Options& o, Inputs& in) {
  Result r;
  Totals totals;
  // One traced and one untraced round share the run's time. The traced
  // one goes first, so its resident-set readings see a fresh process.
  const double half = o.seconds / 2;

  Tracer setup_tr;
  std::vector<Tracer> window_trs(w.clients());
  std::unique_ptr<SetUp> traced = set_up(w, in, &setup_tr);
  Phase tp;
  run_window(w, half, in, *traced, &window_trs, tp);
  run_checks(w, in, *traced, tp);
  core::PickStats picks;
  std::int64_t pick_calls = 0;
  std::int64_t cold_queries = 0;
  std::vector<std::int64_t> epochs;
  for (const auto& c : traced->clients) {
    picks.regions_considered += c->picks.regions_considered;
    picks.regions_pruned += c->picks.regions_pruned;
    picks.candidates_scored += c->picks.candidates_scored;
    pick_calls += c->pick_calls;
    cold_queries += c->cold_queries;
    epochs.insert(epochs.end(), c->epochs_seen.begin(), c->epochs_seen.end());
  }
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  const double rss_ingest = traced->rss_ingest_mb;
  const double rss_warm = traced->rss_warm_mb;
  totals.absorb(*traced);
  traced.reset();

  std::unique_ptr<SetUp> plain = set_up(w, in, nullptr);
  Phase up;
  run_window(w, half, in, *plain, nullptr, up);
  run_checks(w, in, *plain, up);
  totals.absorb(*plain);
  plain.reset();

  check_run(w, o, totals, up, r);
  if (tp.check_failures != 0) {
    r.problems.push_back("traced cross-checks failed on " +
                         std::to_string(tp.check_failures));
  }
  for (const Delivery& d : tp.deliveries) {
    if (d.batches != 1) {
      r.problems.push_back("a traced probe delivery emitted " +
                           std::to_string(d.batches) +
                           " batches instead of 1");
      break;
    }
  }
  const std::uint64_t traced_fp = tp.fingerprints.front().value();
  const std::uint64_t plain_fp = up.fingerprints.front().value();
  if (traced_fp != plain_fp) {
    r.problems.push_back("traced fingerprint " + hex64(traced_fp) +
                         " differs from the untraced " + hex64(plain_fp));
  }

  const double traced_rate = decision_rate(tp);
  const double plain_rate = decision_rate(up);
  r.notes.push_back("traced " + std::to_string(traced_rate) +
                    " decisions/s, untraced " + std::to_string(plain_rate) +
                    " decisions/s; traced fingerprint " + hex64(traced_fp));

  Tracer window;
  for (const Tracer& t : window_trs) window.merge(t);
  // A layer's calls are timed in the window when the workload makes them
  // there, otherwise in the traced set-up (initial ingest, warm-up).
  const auto chosen = [&](SpanName n) -> Tracer& {
    return window.calls(n).count() > 0 ? window : setup_tr;
  };
  const auto median = [&](SpanName n, double scale) {
    return static_cast<double>(chosen(n).calls(n).median()) / scale;
  };
  ExactSamples cold{std::int64_t{1} << 14};
  {
    Tracer& t = window.calls(kPickCold).count() +
                            window.calls(kRankTopkCold).count() >
                        0
                    ? window
                    : setup_tr;
    cold.merge(t.calls(kPickCold));
    cold.merge(t.calls(kRankTopkCold));
  }
  Tracer& codec = chosen(kClientCodec);

  const std::vector<Delivery>& counted = tp.counted;
  const auto per_delivery = [&](std::int64_t Delivery::*field) {
    std::int64_t sum = 0;
    for (const Delivery& d : counted) sum += d.*field;
    return counted.empty() ? 0.0
                           : static_cast<double>(sum) /
                                 static_cast<double>(counted.size());
  };
  const auto per_pick = [&](std::int64_t v) {
    return pick_calls > 0
               ? static_cast<double>(v) / static_cast<double>(pick_calls)
               : 0.0;
  };

  r.metrics = {
      {"serve.client_codec_ns",
       static_cast<double>(codec.per_group(kClientCodec).median()), "ns"},
      {"serve.decode_ns", median(kDecode, 1.0), "ns"},
      {"serve.validate_ns", median(kValidate, 1.0), "ns"},
      {"serve.encode_ns", median(kEncode, 1.0), "ns"},
      {"serve.requests", static_cast<double>(totals.frontend_seen), "count"},
      {"serve.errors", static_cast<double>(totals.failed), "count"},
      {"core.view_ns", median(kView, 1.0), "ns"},
      {"core.pick_us", median(kPick, 1e3), "us"},
      {"core.rank_topk_us", median(kRankTopk, 1e3), "us"},
      {"core.regions_considered", per_pick(picks.regions_considered),
       "count"},
      {"core.regions_pruned", per_pick(picks.regions_pruned), "count"},
      {"core.candidates_scored", per_pick(picks.candidates_scored), "count"},
      {"core.cold_pick_ms", static_cast<double>(cold.median()) / 1e6, "ms"},
      {"core.region_fill_ms", median(kRegionFill, 1e6), "ms"},
      {"core.cold_picks",
       epochs.empty() ? 0.0
                      : static_cast<double>(cold_queries) /
                            static_cast<double>(epochs.size()),
       "count"},
      {"core.ingest_ms", median(kIngest, 1e6), "ms"},
      {"core.region_rebuilds", per_delivery(&Delivery::region_rebuilds),
       "count"},
      {"core.reports", per_delivery(&Delivery::reports), "count"},
      {"telemetry.collect_ns", median(kCollect, 1.0), "ns"},
      {"telemetry.batches", per_delivery(&Delivery::batches), "count"},
      {"telemetry.malformed", static_cast<double>(totals.malformed_probes),
       "count"},
      {"mem.rss_ingest_mb", rss_ingest, "MB"},
      {"mem.rss_warm_mb", rss_warm, "MB"},
      {"trace.overhead_frac",
       plain_rate > 0.0 ? traced_rate / plain_rate - 1.0 : 0.0, "fraction"},
  };

  std::ofstream os{o.trace_file};
  setup_tr.write(os, "setup");
  window.write(os, "window");
  r.notes.push_back(os ? "spans written to " + o.trace_file
                       : "could not write " + o.trace_file);
  return r;
}

}  // namespace

bool known_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadDef& w : kWorkloads) out.emplace_back(w.name);
  return out;
}

Result run_workload(const Options& opts) {
  const WorkloadDef* w = find_workload(opts.workload);
  if (w == nullptr) throw std::invalid_argument("unknown workload");
  Inputs in = generate(*w, opts.seed);
  Result r = opts.trace ? run_traced(*w, opts, in) : run_e2e(*w, opts, in);
  r.notes.insert(
      r.notes.begin(),
      std::string{w->name} + ": " + std::to_string(in.topo.switch_count()) +
          " switches, " + std::to_string(in.hosts.size()) + " hosts, " +
          std::to_string(in.servers.size()) + " servers, " +
          std::to_string(in.topo.links.size()) + " links; " +
          std::to_string(in.sweep.size()) + " sweep probes, " +
          std::to_string(in.bursts.empty() ? 0 : in.bursts.front().size()) +
          " probes per burst; " + std::to_string(w->clients()) +
          " client thread(s)");
  return r;
}

}  // namespace e2ebench
