#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "intsched/telemetry/collector.hpp"

namespace intsched::telemetry {

/// Collector-side probe-burst coalescer. INT probes arrive as a burst once
/// per probing interval (every agent fires on the same cadence), but the
/// IntCollector hands reports over one at a time; feeding each one to a
/// concurrent map means one writer critical section — and one view
/// publication — per probe. ReportBatcher sits between the collector and
/// the map: it buffers reports and emits them as one batch, sized for
/// ShardedNetworkMap::ingest_batch, so a burst of N probes costs one
/// publish instead of N.
///
/// Flush policy: automatically when the buffer reaches `max_batch`
/// reports, and explicitly via flush() — callers flush at the probing
/// interval boundary (or on telemetry-loss timeout) so a partial burst
/// never lingers. Reports are emitted in arrival order; batching is pure
/// plumbing and must not reorder or drop anything.
///
/// Threading: thread-confined like the IntCollector that feeds it (the
/// simulator is single-threaded by contract); only the batch handler's
/// target (e.g. ShardedNetworkMap) is thread-safe.
class ReportBatcher {
 public:
  using BatchHandler = std::function<void(const std::vector<ProbeReport>&)>;

  explicit ReportBatcher(BatchHandler handler, std::size_t max_batch = 32);

  /// Buffers one report; flushes the batch when it reaches max_batch.
  void add(const ProbeReport& report);

  /// Emits buffered reports (no-op when empty). Call at the probing
  /// interval boundary.
  void flush();

  [[nodiscard]] std::size_t pending() const { return buffer_.size(); }
  [[nodiscard]] std::size_t max_batch() const { return max_batch_; }
  [[nodiscard]] std::int64_t reports_batched() const { return reports_; }
  [[nodiscard]] std::int64_t batches_emitted() const { return batches_; }

 private:
  BatchHandler handler_;
  std::size_t max_batch_;
  std::vector<ProbeReport> buffer_;
  std::int64_t reports_ = 0;
  std::int64_t batches_ = 0;
};

}  // namespace intsched::telemetry
