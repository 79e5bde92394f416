// The benchmark's three workloads. Each runs its set-up several times, a
// warm-up, and one timed window with tracing off (the end-to-end metrics);
// a traced run adds a second window with spans around every layer call and
// the per-layer micro-measurements (the per-layer metrics).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string server_bin;  ///< resest_server, spawned by wire workloads.
  std::string work_dir;    ///< Working space: models, WAL dirs, span files.
  size_t nproc = 1;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;  ///< Rows sent (warm-up and window).
  uint64_t failed = 0;     ///< Rows in failed, refused or mismatched calls.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Run context and diagnostics, printed and logged with every run.
  std::vector<std::pair<std::string, std::string>> context;
  std::vector<std::string> problems;
};

/// Runs one workload; false when `config.workload` is unknown.
bool RunWorkload(const RunConfig& config, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
