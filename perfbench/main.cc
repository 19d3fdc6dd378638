// perfbench — the end-to-end benchmark program (run through run.py).
//
//   perfbench --workload serve-write --seed 1 --seconds 10 --trace 0
//   perfbench --selftest
//
// Prints one line per metric (name, value, unit), then, as the last line
// of standard output, one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans go to --trace-out.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-write|bulk "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n"
               "       perfbench --selftest\n");
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return perfbench::SelfTest() == 0 ? 0 : 1;
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    double number = 0;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = perfbench::KnownWorkload(config.workload);
    } else if (arg == "--seed" && ParseNumber(value, &number) && number >= 0) {
      config.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (arg == "--seconds" && ParseNumber(value, &number) && number > 0) {
      config.seconds = number;
    } else if (arg == "--trace" && (std::string(value) == "0" || std::string(value) == "1")) {
      config.trace = std::string(value) == "1";
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || !have_seed) {
    Usage();
    return 2;
  }

  const perfbench::RunReport report = perfbench::RunWorkload(config);
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(), problem.c_str());
  }
  std::printf("workload %s seed %llu trace %d: attempted %llu failed %llu correct %s\n",
              config.workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.trace ? 1 : 0, static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct ? "true" : "false");
  for (const auto& m : report.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
