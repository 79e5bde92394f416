// Raw model-inference throughput: the legacy per-tree scalar walk vs. the
// compiled SoA forest, scalar and batched (tree-outer/row-inner), in
// rows/sec on a paper-sized ensemble (~150 trees, <=10 leaves each).
//
// With the async pipeline and estimate cache landed, model inference is the
// dominant cache-miss cost in serving; this bench tracks that hot path and
// emits machine-readable BENCH_inference.json for the perf trajectory.
// Exit code covers correctness only (compiled paths must be bit-identical
// to the legacy walk); timings never fail the run, so tiny CI smoke
// iterations stay meaningful.
//
// The kernel sweep then times the first 4096 of those rows cut into calls
// of 1..256 rows, through Predict (one call per row) and through every
// kernel the host supports (PredictBatchWith), in ns per row per tree. The
// widths around 32 (24, 31, 33, 48, 100) measure the AVX2 kernel's split:
// whole 32-row blocks in vector code, the remainder in the scalar walk.
// Serving calls the forest once per (op, resource) group of a chunk, so
// admission-style traffic lives at widths 1-4: the one-big-batch figure
// above says nothing about them.
//
// Environment knobs:
//   RESEST_INFER_TREES   ensemble size            (default 150)
//   RESEST_INFER_ROWS    rows per pass            (default 100000)
//   RESEST_INFER_PASSES  timed passes per path    (default 3; every figure
//                        is the median pass)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/experiment_common.h"
#include "bench/json_writer.h"
#include "src/common/stats.h"
#include "src/ml/mart.h"

using namespace resest;

namespace {

constexpr size_t kFeatures = 8;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void PrintRow(const char* label, double rows_per_sec, double baseline) {
  std::printf("%-26s %14.0f rows/s %9.2fx\n", label, rows_per_sec,
              rows_per_sec / baseline);
}

constexpr size_t kSweepWidths[] = {1,  2,  4,  8,  15, 16,  17, 24,
                                   31, 32, 33, 48, 64, 100, 256};

/// One column of the kernel sweep: Predict row by row, or PredictBatchWith
/// through one kernel.
struct SweepPath {
  const char* name;
  bool per_row;
  ForestKernel kernel;
};

}  // namespace

int main() {
  const int num_trees = bench::EnvInt("RESEST_INFER_TREES", 150);
  const int num_rows = bench::EnvInt("RESEST_INFER_ROWS", 100000);
  const int num_passes = bench::EnvInt("RESEST_INFER_PASSES", 3);

  std::printf("== inference throughput: %d-tree MART, %d rows, median of %d "
              "passes ==\n\n",
              num_trees, num_rows, num_passes);

  // Paper-sized model: ~150 trees of <=10 leaves over operator-like curves.
  Rng rng(11);
  Dataset train;
  for (int i = 0; i < 4000; ++i) {
    std::vector<double> x(kFeatures);
    for (auto& v : x) v = rng.Uniform(1.0, 10000.0);
    const double y = x[0] * std::log2(x[0]) + 0.01 * x[1] * x[2] +
                     rng.Gaussian(0.0, 10.0);
    train.Add(std::move(x), y);
  }
  MartParams params;
  params.num_trees = num_trees;
  Mart mart(params);
  mart.Fit(train);

  // Row set: contiguous matrix (batched path) + per-row vectors (legacy).
  const size_t n = static_cast<size_t>(num_rows);
  std::vector<double> matrix(n * kFeatures);
  std::vector<std::vector<double>> rows(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double>& x = rows[i];
    x.resize(kFeatures);
    for (size_t j = 0; j < kFeatures; ++j) {
      x[j] = rng.Uniform(1.0, 12000.0);
      matrix[i * kFeatures + j] = x[j];
    }
  }

  std::vector<double> legacy(n), scalar(n), batched(n);
  std::vector<double> legacy_secs, scalar_secs, batched_secs;
  for (int pass = 0; pass < num_passes + 1; ++pass) {
    // Pass 0 is an untimed warm-up; each path reports its median pass.
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) legacy[i] = mart.PredictReference(rows[i]);
    if (pass > 0) legacy_secs.push_back(SecondsSince(start));

    start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) {
      scalar[i] = mart.Predict(matrix.data() + i * kFeatures, kFeatures);
    }
    if (pass > 0) scalar_secs.push_back(SecondsSince(start));

    start = std::chrono::steady_clock::now();
    mart.compiled().PredictBatch(matrix.data(), n, kFeatures, batched.data());
    if (pass > 0) batched_secs.push_back(SecondsSince(start));
  }
  const double legacy_sec = Median(legacy_secs);
  const double scalar_sec = Median(scalar_secs);
  const double batched_sec = Median(batched_secs);

  size_t mismatches = 0;
  for (size_t i = 0; i < n; ++i) {
    if (scalar[i] != legacy[i] || batched[i] != legacy[i]) ++mismatches;
  }

  const double dn = static_cast<double>(n);
  std::printf("%-26s %14s %10s\n", "path", "throughput", "speedup");
  PrintRow("legacy per-tree scalar", dn / legacy_sec, dn / legacy_sec);
  PrintRow("compiled scalar", dn / scalar_sec, dn / legacy_sec);
  PrintRow("compiled batched", dn / batched_sec, dn / legacy_sec);

  // Kernel sweep over call widths. Passes interleave every (width, path)
  // cell, so host drift lands on all of them alike; each cell reports the
  // median pass.
  const CompiledForest& forest = mart.compiled();
  std::vector<SweepPath> paths = {{"predict", true, ForestKernel::kScalar},
                                  {"scalar", false, ForestKernel::kScalar}};
  if (CompiledForest::Avx2Supported()) {
    paths.push_back({"avx2", false, ForestKernel::kAvx2});
  }
  const size_t sweep_rows = std::min<size_t>(n, 4096);
  constexpr size_t kNumWidths = std::size(kSweepWidths);
  std::vector<std::vector<double>> pass_ns(kNumWidths * paths.size());
  std::vector<double> swept(sweep_rows);
  for (int pass = 0; pass < num_passes + 1; ++pass) {
    for (size_t w = 0; w < kNumWidths; ++w) {
      const size_t width = std::min(kSweepWidths[w], sweep_rows);
      const size_t covered = sweep_rows - sweep_rows % width;
      for (size_t p = 0; p < paths.size(); ++p) {
        const auto start = std::chrono::steady_clock::now();
        for (size_t r = 0; r < covered; r += width) {
          const double* x = matrix.data() + r * kFeatures;
          if (paths[p].per_row) {
            for (size_t k = 0; k < width; ++k) {
              swept[r + k] = forest.Predict(x + k * kFeatures, kFeatures);
            }
          } else {
            forest.PredictBatchWith(paths[p].kernel, x, width, kFeatures,
                                    swept.data() + r);
          }
        }
        const double sec = SecondsSince(start);
        for (size_t i = 0; i < covered; ++i) {
          if (swept[i] != legacy[i]) ++mismatches;
        }
        if (pass > 0) {
          pass_ns[w * paths.size() + p].push_back(
              sec * 1e9 / (static_cast<double>(covered) * num_trees));
        }
      }
    }
  }

  std::printf("\nkernel sweep: ns per row per tree, %zu rows, median of %d "
              "passes\n%-6s",
              sweep_rows, num_passes, "rows");
  for (const SweepPath& path : paths) std::printf(" %9s", path.name);
  std::printf("\n");
  for (size_t w = 0; w < kNumWidths; ++w) {
    std::printf("%-6zu", kSweepWidths[w]);
    for (size_t p = 0; p < paths.size(); ++p) {
      std::printf(" %9.2f", Median(pass_ns[w * paths.size() + p]));
    }
    std::printf("\n");
  }
  std::printf("\nbit-identical to legacy: %s (%zu mismatches)\n",
              mismatches == 0 ? "yes" : "NO", mismatches);

  bench::JsonWriter json;
  json.Str("bench", "inference_throughput");
  json.Int("num_trees", num_trees);
  json.Int("rows", num_rows);
  json.Int("passes", num_passes);
  json.Number("legacy_rows_per_sec", dn / legacy_sec);
  json.Number("compiled_scalar_rows_per_sec", dn / scalar_sec);
  json.Number("compiled_batched_rows_per_sec", dn / batched_sec);
  json.Number("batched_speedup_vs_legacy", legacy_sec / batched_sec);
  json.Str("forest_kernel", CompiledForest::ActiveKernelName());
  json.Int("sweep_rows", static_cast<long long>(sweep_rows));
  std::string widths_csv, paths_csv;
  for (const size_t width : kSweepWidths) {
    widths_csv += (widths_csv.empty() ? "" : ",") + std::to_string(width);
  }
  for (const SweepPath& path : paths) {
    paths_csv += (paths_csv.empty() ? "" : ",") + std::string(path.name);
  }
  json.Str("sweep_widths", widths_csv);
  json.Str("sweep_paths", paths_csv);
  for (size_t w = 0; w < kNumWidths; ++w) {
    for (size_t p = 0; p < paths.size(); ++p) {
      json.Number("ns_per_row_tree_w" + std::to_string(kSweepWidths[w]) +
                      "_" + paths[p].name,
                  Median(pass_ns[w * paths.size() + p]));
    }
  }
  json.Bool("bit_identical", mismatches == 0);
  json.WriteFile("BENCH_inference.json");

  return mismatches == 0 ? 0 : 1;
}
