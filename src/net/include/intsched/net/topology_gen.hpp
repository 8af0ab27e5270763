#pragma once

// Parametric metro-scale topology generators (fat-tree/Clos pods and a
// ring-of-pods metro), producing graph-level topologies for the scheduler
// layers: thousands of switches and hundreds of edge servers, far beyond
// what the packet-level net::Topology is meant to simulate. A GenTopology
// carries nodes, undirected links with base delays, and a region (pod)
// label per node — the unit the region-sharded scheduler state
// (core::ShardedNetworkMap) shards by.
//
// Determinism contract: generation is a pure function of the config.
// Per-link delay jitter (which makes shortest paths almost surely unique,
// so two-level ranking agrees exactly with flat ranking) is drawn from a
// named sim::Rng stream in link-creation order; two calls with equal
// configs produce byte-identical topologies (fingerprint()).

#include <cstdint>
#include <string>
#include <vector>

#include "intsched/core/types.hpp"
#include "intsched/net/node.hpp"
#include "intsched/net/routing.hpp"
#include "intsched/sim/rng.hpp"
#include "intsched/sim/time.hpp"

namespace intsched::net {

struct GenNode {
  core::NodeId id = core::kInvalidNode;  ///< == index into GenTopology::nodes
  NodeKind kind = NodeKind::kSwitch;
  core::RegionId region = core::kNoRegion;
  bool edge_server = false;  ///< hosts only
  std::string name;
};

/// Undirected link with its base one-way delay (assumed symmetric).
struct GenLink {
  core::NodeId a = core::kInvalidNode;
  core::NodeId b = core::kInvalidNode;
  sim::SimDuration delay = sim::SimDuration::zero();
};

/// One pod: `leaves` x `spines` full-bipartite Clos fabric with
/// `hosts_per_leaf` hosts per leaf; the first `edge_servers_per_pod`
/// hosts of the pod are flagged as candidate edge servers.
struct PodShape {
  std::int32_t spines = 2;
  std::int32_t leaves = 4;
  std::int32_t hosts_per_leaf = 2;
  std::int32_t edge_servers_per_pod = 2;
  sim::SimDuration host_link_delay = sim::SimDuration::millis(2);
  sim::SimDuration fabric_link_delay = sim::SimDuration::millis(5);
};

/// Ring-of-pods metro: `pods` identical Clos pods whose first
/// `gateways_per_pod` spines carry inter-pod ring links. The ring delay
/// defaults to well above any intra-pod path so regions are
/// delay-isolated — the regime where two-level (region, then server)
/// selection is exact (DESIGN.md §11).
struct MetroConfig {
  std::uint64_t seed = 42;
  std::int32_t pods = 2;
  PodShape pod{};
  std::int32_t gateways_per_pod = 1;
  sim::SimDuration ring_link_delay = sim::SimDuration::millis(20);
  /// Extra gateway links from pod i to the pod halfway around the ring
  /// (requires >= 4 pods); shortens metro diameter without breaking
  /// delay isolation.
  std::int32_t ring_chords = 0;
  /// Multiplicative uniform jitter (+-frac) applied per link to the base
  /// delay. Non-zero makes shortest paths almost surely unique.
  double delay_jitter_frac = 0.05;
};

/// A generated topology: nodes (id == index), undirected links in
/// generation order, and the region count. Purely data — instantiate the
/// Graph view with graph() for routing/ranking layers.
struct GenTopology {
  std::vector<GenNode> nodes;
  std::vector<GenLink> links;
  core::RegionId regions{0};

  [[nodiscard]] core::RegionId region_of(core::NodeId n) const {
    if (!n.valid() || n.index() >= nodes.size()) {
      return core::kNoRegion;
    }
    return nodes[n.index()].region;
  }

  [[nodiscard]] std::int64_t switch_count() const;
  [[nodiscard]] std::vector<core::NodeId> hosts() const;
  [[nodiscard]] std::vector<core::NodeId> edge_servers() const;
  /// Links whose endpoints lie in different regions (the ring/chord
  /// links) — the summary graph's edge set.
  [[nodiscard]] std::vector<GenLink> border_links() const;

  /// Directed graph view with both directions per link. Egress ports are
  /// assigned per node in link-creation order (deterministic), so every
  /// (node, neighbour) pair has a stable port number.
  [[nodiscard]] Graph graph() const;

  /// Well-formedness violations, empty when the topology is sound:
  /// dense ids, valid regions, no self-loops or duplicate links,
  /// positive delays, connectivity, hosts of degree exactly 1, and (when
  /// `max_switch_degree` > 0) the switch degree bound.
  [[nodiscard]] std::vector<std::string> validate(
      std::int32_t max_switch_degree = 0) const;

  /// Canonical serialization of every field — byte-identical iff the
  /// topologies are identical. The seed-determinism property tests
  /// compare these.
  [[nodiscard]] std::string fingerprint() const;
};

/// The generators. Both are pure functions of their arguments.
class TopologyGen {
 public:
  /// Single Clos pod (region 0), optionally with per-link delay jitter
  /// drawn from `seed`.
  [[nodiscard]] static GenTopology clos_pod(const PodShape& shape,
                                            std::uint64_t seed,
                                            double delay_jitter_frac = 0.0);

  /// Ring-of-pods metro; region = pod index.
  [[nodiscard]] static GenTopology ring_of_pods(const MetroConfig& cfg);
};

}  // namespace intsched::net
