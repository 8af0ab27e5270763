#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "intsched/core/contracts.hpp"
#include "intsched/net/packet.hpp"
#include "intsched/net/queue.hpp"
#include "intsched/sim/rng.hpp"
#include "intsched/sim/simulator.hpp"
#include "intsched/sim/units.hpp"

namespace intsched::net {

class FaultPlan;
class Node;

/// Per-direction link parameters. A Topology::connect call creates one Port
/// on each endpoint, both using the same config (full-duplex, symmetric).
struct LinkConfig {
  sim::DataRate rate = sim::DataRate::megabits_per_second(100.0);
  sim::SimDuration prop_delay = sim::SimDuration::millis(10);
  /// Uniform extra propagation jitter in [0, jitter]; arrivals stay
  /// monotonic per channel (no reordering on a link).
  sim::SimDuration jitter = sim::SimDuration::zero();
  std::int64_t queue_capacity_pkts = 512;
};

/// One attachment point of a node: an egress queue plus a transmitter
/// feeding a directed channel to a peer port. Ingress needs no state — the
/// peer's transmitter delivers straight into Node::receive.
class Port {
 public:
  Port(Node& owner, std::int32_t index, LinkConfig cfg);

  /// Queues the packet for transmission, starting the transmitter if idle.
  /// Returns false when the drop-tail queue rejected it.
  bool send(Packet&& p);

  void connect_to(Node& peer, std::int32_t peer_port);

  [[nodiscard]] std::int32_t index() const { return index_; }
  [[nodiscard]] Node& owner() const { return owner_; }
  [[nodiscard]] Node* peer() const { return peer_; }
  [[nodiscard]] std::int32_t peer_port() const { return peer_port_; }
  [[nodiscard]] const LinkConfig& config() const { return cfg_; }

  [[nodiscard]] DropTailQueue& queue() { return queue_; }
  [[nodiscard]] const DropTailQueue& queue() const { return queue_; }

  [[nodiscard]] std::int64_t tx_packets() const { return tx_packets_; }
  [[nodiscard]] sim::Bytes tx_bytes() const { return tx_bytes_; }

  /// Busy fraction accumulator: total time the transmitter was serving
  /// packets. utilization = busy_time / elapsed.
  [[nodiscard]] sim::SimDuration busy_time() const { return busy_time_; }

  /// Opts this port into fault injection: the transmitter consults the
  /// plan's link state before putting bits on the wire. Null (the default)
  /// means no fault checks at all.
  void set_fault_plan(FaultPlan* plan) { faults_ = plan; }

 private:
  void try_transmit();

  Node& owner_;
  std::int32_t index_;
  LinkConfig cfg_;
  DropTailQueue queue_;
  Node* peer_ = nullptr;
  std::int32_t peer_port_ = -1;
  FaultPlan* faults_ = nullptr;
  bool transmitting_ = false;
  sim::SimTime last_arrival_ = sim::SimTime::zero();
  std::int64_t tx_packets_ = 0;
  sim::Bytes tx_bytes_ = 0;
  sim::SimDuration busy_time_ = sim::SimDuration::zero();
};

enum class NodeKind { kHost, kSwitch };

/// Base class for anything attached to the network. Subclasses implement
/// receive() (what to do with an arriving packet) and may hook the egress
/// path (on_egress) and add per-packet service latency
/// (egress_service_delay) — the latter is how the BMv2 software-switch
/// processing bottleneck is modelled.
class Node {
 public:
  Node(sim::Simulator& sim, core::NodeId id, std::string name, NodeKind kind);
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] core::NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] NodeKind kind() const { return kind_; }
  [[nodiscard]] sim::Simulator& simulator() const { return sim_; }

  Port& add_port(LinkConfig cfg);
  [[nodiscard]] Port& port(std::int32_t index);
  [[nodiscard]] const Port& port(std::int32_t index) const;
  [[nodiscard]] std::int32_t port_count() const {
    return static_cast<std::int32_t>(ports_.size());
  }

  /// Handles a packet arriving on `ingress_port`.
  virtual void receive(Packet&& p, std::int32_t ingress_port) = 0;

  /// Called by a Port as a packet leaves its queue, before serialization.
  /// The INT program's egress stage (probe timestamping, register
  /// collection) hooks in here.
  virtual void on_egress(Packet& p, Port& out) { (void)p; (void)out; }

  /// Extra per-packet service time charged by this node's data plane on the
  /// given egress port (0 for plain hosts; BMv2-like processing delay for
  /// P4 switches).
  [[nodiscard]] INTSCHED_HOTPATH virtual sim::SimDuration egress_service_delay(
      const Packet& p, const Port& out) {
    (void)p; (void)out;
    return sim::SimDuration::zero();
  }

  /// Routing hook: remembers which port reaches `dst`. The base class
  /// stores the mapping; subclasses decide whether to consult it.
  virtual void set_route(core::NodeId dst, std::int32_t port_index);
  [[nodiscard]] std::int32_t route_to(core::NodeId dst) const;

  /// Crash-fault state. An offline node loses every packet that arrives
  /// (counted in rx_dropped_offline); subclasses hook on_online_changed to
  /// model state loss across a restart (a P4 switch clears its INT
  /// registers). Nodes start online; only fault injection takes them down.
  [[nodiscard]] bool online() const { return online_; }
  void set_online(bool online) {
    if (online == online_) return;
    online_ = online;
    on_online_changed();
  }
  [[nodiscard]] std::int64_t rx_dropped_offline() const {
    return rx_dropped_offline_;
  }

  /// Local clock with optional skew, for timestamping telemetry the way an
  /// (imperfectly) NTP-synced device would.
  [[nodiscard]] sim::SimTime local_time() const {
    return sim_.now() + clock_skew_;
  }
  void set_clock_skew(sim::SimDuration skew) { clock_skew_ = skew; }
  [[nodiscard]] sim::SimDuration clock_skew() const { return clock_skew_; }

  [[nodiscard]] std::int64_t rx_packets() const { return rx_packets_; }
  [[nodiscard]] sim::Bytes rx_bytes() const { return rx_bytes_; }

 protected:
  friend class Port;
  void note_rx(const Packet& p) {
    ++rx_packets_;
    rx_bytes_ += p.wire_size;
  }
  void note_offline_drop() { ++rx_dropped_offline_; }

  /// Called after online() flips (both directions).
  virtual void on_online_changed() {}

 private:
  sim::Simulator& sim_;
  core::NodeId id_;
  std::string name_;
  NodeKind kind_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::unordered_map<core::NodeId, std::int32_t> routes_;
  sim::SimDuration clock_skew_ = sim::SimDuration::zero();
  bool online_ = true;
  std::int64_t rx_packets_ = 0;
  sim::Bytes rx_bytes_ = 0;
  std::int64_t rx_dropped_offline_ = 0;
};

/// A plain end host: single-homed, delivers arriving packets to a
/// registered receiver callback (the transport layer). Outbound traffic
/// goes through port 0 unconditionally.
class Host : public Node {
 public:
  using Receiver = std::function<void(Packet&&)>;

  Host(sim::Simulator& sim, core::NodeId id, std::string name)
      : Node(sim, id, std::move(name), NodeKind::kHost) {}

  void set_receiver(Receiver r) { receiver_ = std::move(r); }

  void receive(Packet&& p, std::int32_t ingress_port) override;

  /// Sends via port 0; assigns the packet uid. Returns false on local
  /// queue drop.
  bool send(Packet&& p);

 private:
  Receiver receiver_;
  std::uint64_t next_uid_ = 1;
};

}  // namespace intsched::net
