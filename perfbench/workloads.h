// The benchmark's workloads (see README.md for what each one measures).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;   // serve-write or bulk.
  std::uint64_t seed = 1;
  double seconds = 10.0;  // Length of the timed window.
  bool trace = false;     // The traced run: per-layer metrics only.
  std::string trace_out;  // Where the traced run writes its spans.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One line per failed operation kind (printed to stderr).
  std::vector<std::string> problems;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// True for the four workload names above.
bool KnownWorkload(const std::string& name);

/// Runs one workload. Never throws; a failed operation is counted in the
/// report, a wrong result also clears `correct`.
RunReport RunWorkload(const RunConfig& config);

/// The checker's own test: corrupts served and bulk results (one row
/// dropped, one value changed) and confirms each is counted as failed
/// while the uncorrupted ones pass. Returns the number of broken checks.
int SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
