#pragma once

// The benchmark's three workloads (metro_pick, metro_live, pod_rank) and
// the metrics each run reports. BENCHMARK.md in this directory says why
// each workload exists and defines every metric.

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// The seed the committed decision fingerprints were taken at.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its retained spans (JSON lines).
  std::string trace_file;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  /// Why the run is not correct; empty when every check passed.
  std::vector<std::string> problems;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Every metric the run measured: the end-to-end ones (untraced run)
  /// or the per-layer ones (traced run). run.py puts the ones
  /// BENCHMARK.json names on the result line.
  std::vector<Metric> metrics;
  /// Human-readable report lines printed before the metrics.
  std::vector<std::string> notes;
};

[[nodiscard]] bool known_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();
[[nodiscard]] Result run_workload(const Options& opts);

}  // namespace e2ebench
