#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "intsched/net/node.hpp"
#include "intsched/p4/program.hpp"
#include "intsched/p4/register_array.hpp"
#include "intsched/p4/table.hpp"
#include "intsched/sim/rng.hpp"

namespace intsched::p4 {

/// Models the BMv2 software switch's dominant performance trait: packet
/// processing, not link speed, is the bottleneck (paper footnote 3 — the
/// 20 Mbps ceiling "is solely because of BMv2"). Each forwarded packet
/// occupies the egress port for an extra service time drawn uniformly from
/// mean * [1-jitter, 1+jitter].
struct SwitchConfig {
  /// 480 us + ~120 us serialization at 100 Mbps gives ~1670 pkt/s for
  /// 1.5 KB packets — the paper's observed ~20 Mbps effective capacity.
  sim::SimDuration proc_delay_mean = sim::SimDuration::micros(480);
  /// Service time is uniform in mean * [1-f, 1+f]. Software switches are
  /// highly variable; the large default is what produces the paper's
  /// Fig.-3 queue build-up already at moderate utilization.
  double proc_jitter_frac = 0.8;
  /// Occasional long stalls (OS scheduling of the BMv2 process): each
  /// packet stalls with this probability for stall_min..stall_max extra.
  double stall_probability = 0.004;
  sim::SimDuration stall_min = sim::SimDuration::millis(5);
  sim::SimDuration stall_max = sim::SimDuration::millis(25);
  std::uint64_t seed = 1;
};

/// A P4-programmable switch node. Arriving packets run the loaded
/// program's parser + ingress stages, are enqueued on the chosen egress
/// port, and run egress + deparser as they leave the queue.
class P4Switch : public net::Node {
 public:
  P4Switch(sim::Simulator& sim, core::NodeId id, std::string name,
           const SwitchConfig& config = {});

  /// Loads a data-plane program. Must be called after all ports exist
  /// (i.e. after topology wiring) so on_attach can instrument the queues.
  void load_program(std::unique_ptr<P4Program> program);
  [[nodiscard]] P4Program* program() const { return program_.get(); }

  /// The L3 forwarding match-action table (dst node -> egress port).
  /// Populated automatically from route installation.
  [[nodiscard]] ExactMatchTable<core::NodeId, std::int32_t>&
  forwarding_table() {
    return forwarding_table_;
  }

  /// Allocates (or fetches) a named register array of the given size.
  RegisterArray& register_array(const std::string& name, std::int64_t size);
  [[nodiscard]] RegisterArray* find_register_array(const std::string& name);

  // -- Node interface --
  void receive(net::Packet&& p, std::int32_t ingress_port) override;
  void on_egress(net::Packet& p, net::Port& out) override;
  [[nodiscard]] INTSCHED_HOTPATH sim::SimDuration egress_service_delay(
      const net::Packet& p, const net::Port& out) override;
  void set_route(core::NodeId dst, std::int32_t port_index) override;

  [[nodiscard]] std::int64_t processed_packets() const { return processed_; }
  [[nodiscard]] std::int64_t pipeline_drops() const { return pipeline_drops_; }
  [[nodiscard]] std::int64_t queue_drops() const;

 protected:
  /// Crash-restart semantics: register state does not survive a power
  /// cycle, so coming back online resets every register array to its
  /// initial value (the scheduler must cope with the telemetry gap).
  void on_online_changed() override;

 private:
  SwitchConfig config_;
  sim::Rng rng_;
  std::unique_ptr<P4Program> program_;
  ExactMatchTable<core::NodeId, std::int32_t> forwarding_table_;
  std::unordered_map<std::string, std::unique_ptr<RegisterArray>> registers_;
  std::int64_t processed_ = 0;
  std::int64_t pipeline_drops_ = 0;
};

}  // namespace intsched::p4
