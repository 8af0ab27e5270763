#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "intsched/core/types.hpp"
#include "intsched/sim/time.hpp"
#include "intsched/sim/units.hpp"

namespace intsched::net {

/// Transport port number for application demultiplexing on hosts.
using PortNumber = std::uint16_t;

enum class IpProtocol : std::uint8_t { kUdp, kTcp };

/// Well-known ports used by the system (values are arbitrary but fixed).
inline constexpr PortNumber kProbePort = 5001;      ///< INT probe sink
inline constexpr PortNumber kSchedulerPort = 5002;  ///< scheduler service
inline constexpr PortNumber kTaskPort = 5003;       ///< edge-server task intake
inline constexpr PortNumber kTaskDonePort = 5004;   ///< completion notices
inline constexpr PortNumber kIperfPort = 5201;      ///< background traffic
inline constexpr PortNumber kPingPort = 7;          ///< echo

struct UdpHeader {
  PortNumber src_port = 0;
  PortNumber dst_port = 0;
};

enum class TcpFlag : std::uint8_t {
  kNone = 0,
  kSyn = 1u << 0,
  kAck = 1u << 1,
  kFin = 1u << 2,
};

[[nodiscard]] constexpr TcpFlag operator|(TcpFlag a, TcpFlag b) {
  return static_cast<TcpFlag>(static_cast<std::uint8_t>(a) |
                              static_cast<std::uint8_t>(b));
}
[[nodiscard]] constexpr bool has_flag(TcpFlag flags, TcpFlag f) {
  return (static_cast<std::uint8_t>(flags) & static_cast<std::uint8_t>(f)) !=
         0;
}

struct TcpHeader {
  PortNumber src_port = 0;
  PortNumber dst_port = 0;
  std::int64_t seq = 0;  ///< first payload byte carried (byte index)
  std::int64_t ack = 0;  ///< next byte expected by the sender of this seg
  TcpFlag flags = TcpFlag::kNone;
};

/// Geneve-style tunnel option used to mark INT probe packets so the data
/// plane can distinguish them from production traffic (paper §III-A: "UDP
/// with certain IP header fields set (aka Geneve option)").
struct GeneveOption {
  std::uint16_t option_class = 0x0103;  ///< experimental class
  std::uint8_t type = 0;
};
inline constexpr std::uint8_t kIntProbeOptionType = 0x42;

/// One hop's worth of telemetry appended to a probe packet by the INT data
/// plane program. Entries appear in traversal order, which is what lets the
/// scheduler reconstruct the topology (paper §III-B).
struct IntStackEntry {
  /// Switch that appended this entry.
  core::NodeId device = core::kInvalidNode;
  std::int32_t ingress_port = -1;  ///< port the probe arrived on
  std::int32_t egress_port = -1;   ///< port the probe left through
  /// Max egress-queue occupancy (packets) observed on the probe's egress
  /// port since the previous probe collected (and reset) the register.
  std::int64_t max_queue_pkts = 0;
  /// Max occupancy across all of the device's ports since last collection.
  std::int64_t device_max_queue_pkts = 0;
  /// Mean occupancy observed by packets since last collection, in
  /// hundredths of a packet (fixed point). The paper evaluates this
  /// statistic and finds it "inconclusive" — it stays near zero even at
  /// full load; carried so the ablation can reproduce that finding.
  std::int64_t device_avg_queue_x100 = 0;
  /// Link latency of the hop the probe arrived over, measured by egress
  /// timestamping at the upstream device and ingress extraction here
  /// (kInvalid for the first hop, which has no upstream switch timestamp).
  sim::SimDuration ingress_link_latency = sim::SimDuration::nanos(-1);
  /// Device-local time when the probe left this device (egress stage).
  sim::SimTime egress_timestamp = sim::SimTime::zero();
  /// Maximum in-device dwell time (queueing) measured directly by the
  /// data plane since the last collection — what a full INT deployment
  /// reports as "hop latency". The paper approximates this with
  /// k * max_queue because its registers only store occupancy; the
  /// direct measurement feeds the kMeasuredHopLatency ranking ablation.
  sim::SimDuration max_hop_latency = sim::SimDuration::zero();
};
inline constexpr sim::Bytes kIntStackEntryWireBytes = 32;

/// Base class for structured application payloads carried by control-plane
/// datagrams (scheduler requests/responses, task submissions). Data-plane
/// bulk bytes are modelled by packet sizes alone and carry no message.
struct AppMessage {
  virtual ~AppMessage() = default;
};

/// A simulated network packet. Header fields are plain data; wire_size
/// accounts for everything (headers + payload + INT stack) and is what the
/// links and queues charge for.
struct Packet {
  // -- L3 --
  core::NodeId src = core::kInvalidNode;
  core::NodeId dst = core::kInvalidNode;
  IpProtocol protocol = IpProtocol::kUdp;
  std::int32_t ttl = 64;

  // -- L4 --
  std::variant<UdpHeader, TcpHeader> l4 = UdpHeader{};

  // -- Options / telemetry --
  std::optional<GeneveOption> geneve;
  std::vector<IntStackEntry> int_stack;
  /// Loose source route for probe packets (probe-route optimization, the
  /// paper's §III-A future work): remaining waypoint node ids, visited in
  /// order before heading to dst. Empty for normal traffic.
  std::vector<core::NodeId> source_route;
  /// Scratch field used by the INT program's link-latency measurement: the
  /// upstream device's egress timestamp, overwritten at every hop.
  sim::SimTime last_egress_timestamp = sim::SimTime::nanoseconds(-1);
  /// P4 standard_metadata survival between the ingress and egress stages of
  /// the device currently holding the packet: the port it arrived on and
  /// the link latency its ingress stage measured (probe packets only).
  std::int32_t meta_ingress_port = -1;
  sim::SimDuration meta_link_latency = sim::SimDuration::nanos(-1);
  /// P4 standard_metadata.ingress_global_timestamp: when this device's
  /// ingress stage saw the packet (device-local clock).
  sim::SimTime meta_ingress_timestamp = sim::SimTime::nanoseconds(-1);

  // -- Payload --
  sim::Bytes wire_size = 0;
  std::shared_ptr<const AppMessage> app;

  /// Monotonic id for tracing/debugging; assigned by the sender.
  std::uint64_t uid = 0;

  [[nodiscard]] const UdpHeader* udp() const {
    return std::get_if<UdpHeader>(&l4);
  }
  [[nodiscard]] const TcpHeader* tcp() const {
    return std::get_if<TcpHeader>(&l4);
  }
  [[nodiscard]] bool is_int_probe() const {
    return geneve.has_value() && geneve->type == kIntProbeOptionType;
  }
};

/// Conventional header overhead charged to every packet (Ethernet + IP +
/// UDP/TCP, rounded).
inline constexpr sim::Bytes kHeaderBytes = 54;
/// Maximum transport payload per packet, chosen so a full segment plus
/// headers matches the paper's 1.5 KB packets.
inline constexpr sim::Bytes kMss = 1446;

[[nodiscard]] std::string to_string(const Packet& p);

}  // namespace intsched::net
