// perfbench: the repository benchmark program (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --server-bin <path to resest_server> --work-dir <dir>
//             [--git-sha <sha>]
//
// Prints a human-readable report, one {"context": ...} line, and as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Every run is also appended to <work-dir>/runs.jsonl.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "src/ml/compiled_forest.h"
#include "src/server/json.h"
#include "workloads.h"

#ifndef RESEST_PERFBENCH_BUILD_TYPE
#define RESEST_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunResult;

std::string CpuModel() {
  FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 2;
        while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    resest::AppendJsonString(metrics[i].name, &out);
    out += ": {\"value\": ";
    resest::AppendJsonNumber(metrics[i].value, &out);
    out += ", \"unit\": ";
    resest::AppendJsonString(metrics[i].unit, &out);
    out += "}";
  }
  return out + "}";
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --server-bin <path> --work-dir <dir> "
               "[--git-sha <sha>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      config.trace = std::atoi(value) != 0;
    } else if (flag == "--server-bin") {
      config.server_bin = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || config.workload.empty() || config.seconds < 1 ||
      config.server_bin.empty() || config.work_dir.empty()) {
    return Usage(argv[0]);
  }
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  RunResult result;
  if (!perfbench::RunWorkload(config, &result)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  const std::vector<Metric>& metrics =
      config.trace ? result.per_layer : result.end_to_end;
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  if (metrics.empty()) {
    std::fprintf(stderr, "perfbench: %s produced no metrics\n",
                 config.workload.c_str());
    return 1;
  }

  std::vector<std::pair<std::string, std::string>> context = {
      {"workload", config.workload},
      {"seed", std::to_string(config.seed)},
      {"seconds", std::to_string(config.seconds)},
      {"trace", config.trace ? "1" : "0"},
      {"nproc", std::to_string(config.nproc)},
      {"cpu_model", CpuModel()},
      {"forest_kernel", resest::CompiledForest::ActiveKernelName()},
      {"build_type", RESEST_PERFBENCH_BUILD_TYPE},
      {"git_sha", git_sha},
      {"rows_attempted", std::to_string(result.attempted)},
      {"rows_succeeded", std::to_string(result.attempted - result.failed)},
      {"rows_failed", std::to_string(result.failed)},
  };
  context.insert(context.end(), result.context.begin(), result.context.end());
  for (const std::string& p : result.problems) context.push_back({"problem", p});

  std::printf("== perfbench %s (seed %llu, %d s, trace %d) ==\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const auto& [key, value] : context) {
    std::printf("  %-26s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string context_json = "{";
  for (size_t i = 0; i < context.size(); ++i) {
    if (i > 0) context_json += ", ";
    resest::AppendJsonString(context[i].first, &context_json);
    context_json += ": ";
    resest::AppendJsonString(context[i].second, &context_json);
  }
  context_json += "}";
  const bool correct = result.correct && result.failed == 0 &&
                       result.attempted > 0;
  const std::string line =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";

  // Every run is kept, none dropped: context, both metric sets, result.
  const std::string log_path = config.work_dir + "/runs.jsonl";
  if (FILE* log = std::fopen(log_path.c_str(), "a")) {
    std::fprintf(log,
                 "{\"context\": %s, \"end_to_end\": %s, \"per_layer\": %s, "
                 "\"result\": %s}\n",
                 context_json.c_str(), MetricsJson(result.end_to_end).c_str(),
                 MetricsJson(result.per_layer).c_str(), line.c_str());
    std::fclose(log);
  }
  std::printf("{\"context\": %s}\n", context_json.c_str());
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
