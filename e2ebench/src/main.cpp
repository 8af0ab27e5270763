// e2e_bench: one workload of the end-to-end decision-path benchmark.
//
//   e2e_bench --workload <metro_pick|metro_live|pod_rank> --seed <n>
//             --seconds <s> --trace 0
//   e2e_bench ... --trace 1 --trace-file <path>
//
// Prints a human-readable report, one "name value unit" line per
// metric, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 0 when every correctness check passed, 1 when one failed, and 2
// on a usage error or when the run could not be made.

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

/// A measured value with every digit it has (no rounding to a fixed
/// number of decimals), as JSON accepts it.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

int usage(const std::string& why) {
  std::cerr << "e2e_bench: " << why << "\nusage: e2e_bench --workload <";
  const auto names = e2ebench::workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cerr << (i > 0 ? "|" : "") << names[i];
  }
  std::cerr << "> --seed <n> --seconds <s> --trace <0 | 1 --trace-file "
               "<path>>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options opts;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (flag == "--trace-file") {
        opts.trace_file = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("bad number");
  }
  if (!e2ebench::known_workload(opts.workload)) {
    return usage("unknown workload '" + opts.workload + "'");
  }
  if (opts.trace == opts.trace_file.empty()) {
    return usage("--trace-file is given exactly when --trace is 1");
  }
  if (!(opts.seconds > 0.0) || opts.seconds > 600.0) {
    return usage("--seconds must be in (0, 600]");
  }

  e2ebench::Result r;
  try {
    r = e2ebench::run_workload(opts);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }

  std::cout << "e2e_bench " << opts.workload << " seed " << opts.seed
            << ", " << opts.seconds << " s, trace " << opts.trace << "\n";
  for (const std::string& n : r.notes) std::cout << n << "\n";
  for (const std::string& p : r.problems) std::cout << "FAILED: " << p << "\n";
  for (const e2ebench::Metric& m : r.metrics) {
    std::cout << m.name << " " << number(m.value) << " " << m.unit << "\n";
  }
  const bool correct = r.problems.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const e2ebench::Metric& m = r.metrics[i];
    std::cout << (i > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
