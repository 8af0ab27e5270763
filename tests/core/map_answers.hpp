#pragma once

// Every public query a NetworkMap answers, as one comparable list: two
// maps that give equal lists are indistinguishable to the rankers. Shared
// by the flat-store copy test and the sharded map's ingest test.

#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "intsched/core/network_map.hpp"

namespace intsched::core::map_answers {

/// One query answer: (query kind, first id, second id, time index, value).
using Answer = std::tuple<int, std::int32_t, std::int32_t, std::size_t,
                          std::int64_t>;

inline std::int64_t bits(double v) { return std::bit_cast<std::int64_t>(v); }

/// The graph's edges, in edge order: (to, port) and (to, cost).
inline std::vector<Answer> edges(const net::Graph& g) {
  std::vector<Answer> out;
  for (std::uint32_t i = 0; i < g.node_count(); ++i) {
    const std::int32_t from = g.nodes()[i].value();
    for (const net::Graph::Edge& e : g.out_edges(i)) {
      const std::int32_t to = g.nodes()[e.to].value();
      out.emplace_back(9, from, to, 0, e.out_port);
      out.emplace_back(10, from, to, 0, e.cost.ns());
    }
  }
  return out;
}

/// Every public query of `map` over `nodes` (singly and in pairs) at
/// `times`, plus the delay graph's edges and the map's counters.
inline std::vector<Answer> answers(const NetworkMap& map,
                                   const std::vector<NodeId>& nodes,
                                   const std::vector<sim::SimTime>& times) {
  std::vector<Answer> out;
  for (const NodeId a : nodes) {
    out.emplace_back(0, a.value(), 0, 0, map.knows_node(a) ? 1 : 0);
    for (std::size_t t = 0; t < times.size(); ++t) {
      out.emplace_back(1, a.value(), 0, t, map.device_max_queue(a, times[t]));
      out.emplace_back(2, a.value(), 0, t,
                       bits(map.device_avg_queue(a, times[t])));
      out.emplace_back(3, a.value(), 0, t,
                       map.device_hop_latency(a, times[t]).ns());
    }
    for (const NodeId b : nodes) {
      out.emplace_back(4, a.value(), b.value(), 0, map.link_delay(a, b).ns());
      out.emplace_back(5, a.value(), b.value(), 0, map.link_jitter(a, b).ns());
      out.emplace_back(6, a.value(), b.value(), 0, map.egress_port(a, b));
      for (std::size_t t = 0; t < times.size(); ++t) {
        out.emplace_back(7, a.value(), b.value(), t,
                         map.link_max_queue(a, b, times[t]));
        out.emplace_back(8, a.value(), b.value(), t,
                         map.link_stale(a, b, times[t]) ? 1 : 0);
      }
    }
  }
  const std::vector<Answer> graph = edges(map.delay_graph());
  out.insert(out.end(), graph.begin(), graph.end());
  out.emplace_back(11, 0, 0, 0, map.known_link_count());
  out.emplace_back(12, 0, 0, 0, map.reports_ingested());
  out.emplace_back(13, 0, 0, 0, map.rejected_entries());
  return out;
}

/// Reports the first differing answer rather than two ~10k-entry dumps.
inline void expect_same(const std::vector<Answer>& got,
                        const std::vector<Answer>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& [kind, a, b, t, value] = want[i];
    ASSERT_EQ(got[i], want[i])
        << what << ": query kind " << kind << " (" << a << ", " << b
        << ") at time " << t << " wants " << value << ", reads "
        << std::get<4>(got[i]);
  }
}

}  // namespace intsched::core::map_answers
