// Admission control — the paper's first motivating application (Section 1),
// wired through the priority-scheduled serving subsystem: the SCALING
// estimator is trained offline (per-operator fits fanned across a pool),
// serialized, published into a ModelRegistry, and served concurrently to
// two very different clients (the paper's Figure 5 deployment under mixed
// load):
//   * a background *re-optimization scan* — the optimizer re-costing its
//     whole candidate-plan corpus after a data change — submitted as
//     TaskPriority::kBulk batches, and
//   * the admission queue's per-query probes, each a small latency-critical
//     TaskPriority::kUrgent request with a deadline.
// Each urgent probe is a one-request batch, estimated on the admission
// thread itself instead of queueing behind the bulk work on the pool, so
// admission decisions stay fast while the scan grinds on; any probe that
// misses its deadline falls back to the adjusted-optimizer estimate instead
// of blocking the admission loop.
//
// A server with a CPU budget per scheduling window must decide, before
// executing each submitted query, whether to admit it now or defer it.
// Good resource estimates keep the window full without overload. We compare
// the decisions made with SCALING estimates against (a) an oracle that knows
// the true cost and (b) the adjusted-optimizer baseline (OPT).
//
// The example closes the loop afterwards (execute -> observe -> refit ->
// republish): every executed queue query streams into the incremental
// trainer's observation logs as it runs, and once the window is decided the
// slots whose logs crossed the refit policy are retrained on the same pool
// at kBulk and delta-published — untouched operators keep their exact
// models (and their cache entries, were the cache enabled), while the
// production database's measurements sharpen the refitted ones.
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <vector>

#include "src/baselines/harness.h"
#include "src/common/thread_pool.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/training/incremental_trainer.h"
#include "src/workload/runner.h"
#include "src/workload/schemas.h"
#include "src/workload/tpch_queries.h"

using namespace resest;

namespace {

struct WindowStats {
  int admitted = 0;
  int deferred = 0;
  int overloads = 0;       ///< Windows whose true load exceeded the budget.
  double utilization = 0;  ///< Mean fraction of the budget actually used.
};

/// Greedy admission: walk the queue, admit while the *estimated* remaining
/// budget allows; overload happens when the true cost of admitted queries
/// exceeds the budget by more than 10%.
WindowStats Simulate(const std::vector<ExecutedQuery>& queue,
                     const std::vector<double>& estimates, double budget) {
  WindowStats stats;
  double est_used = 0, true_used = 0;
  int windows = 1;
  double util_sum = 0;
  for (size_t i = 0; i < queue.size(); ++i) {
    if (est_used + estimates[i] > budget) {
      // Window is (estimated to be) full: start the next one.
      ++stats.deferred;
      if (true_used > 1.1 * budget) ++stats.overloads;
      util_sum += std::min(1.0, true_used / budget);
      est_used = 0;
      true_used = 0;
      ++windows;
      continue;
    }
    ++stats.admitted;
    est_used += estimates[i];
    true_used += queue[i].plan.TotalActualCpu();
  }
  if (true_used > 1.1 * budget) ++stats.overloads;
  util_sum += std::min(1.0, true_used / budget);
  stats.utilization = util_sum / windows;
  return stats;
}

void PrintLane(const ServiceStats& stats, TaskPriority priority) {
  const PriorityLaneStats& lane = stats.ForPriority(priority);
  std::printf("  %-8s %6llu batches %7llu ok %5llu expired  "
              "mean %8.3f ms  p99 <= %8.3f ms  max %8.3f ms\n",
              TaskPriorityName(priority),
              static_cast<unsigned long long>(lane.batches),
              static_cast<unsigned long long>(lane.requests),
              static_cast<unsigned long long>(lane.expired),
              lane.MeanLatencyMs(), lane.ApproxLatencyPercentileMs(0.99),
              lane.max_latency_ms);
}

}  // namespace

int main() {
  std::printf("== admission control with learned resource estimates ==\n\n");

  // Train on one database, admit queries on a larger one (the realistic
  // "data grew since training" setting).
  auto train_db = GenerateDatabase(TpchSchema(), 1.0, 1.5, 42);
  auto prod_db = GenerateDatabase(TpchSchema(), 3.0, 1.5, 43);
  Rng rng(7);
  const auto train = RunWorkload(
      train_db.get(), GenerateTpchWorkload(250, &rng, train_db.get()));

  // Offline: seed the incremental trainer with the training workload and
  // fit SCALING (per-operator fits fanned across the pool at kBulk —
  // byte-identical to ResourceEstimator::Train), then publish the baseline.
  ThreadPool pool(4);
  TrainOptions scaling_options;
  scaling_options.mode = FeatureMode::kEstimated;
  IncrementalTrainer trainer(scaling_options, RefitPolicy{}, &pool);
  trainer.SeedAndTrain(train);
  ModelRegistry registry;
  const uint64_t version = trainer.PublishBaseline(&registry, "admission");
  if (version == 0) {
    std::printf("model publish failed\n");
    return 1;
  }

  // The admission queue executes on the production database; the runner's
  // execution observer streams every executed query straight into the
  // trainer's observation logs (the feedback edge of the loop).
  const auto queue = RunWorkload(
      prod_db.get(), GenerateTpchWorkload(120, &rng, prod_db.get()), 55,
      [&trainer](const ExecutedQuery& eq) { trainer.Observe(eq); });
  ServiceOptions service_options;
  service_options.model_name = "admission";
  // The cache would collapse the repeated scan passes into lookups; real
  // re-optimization re-costs *new* candidate plans each pass, so keep the
  // bulk load honest by disabling memoization for this demo.
  service_options.enable_cache = false;
  EstimationService service(&registry, &pool, service_options);

  // Background kBulk load: three full passes over the training corpus, both
  // resources per plan — the re-optimization scan the admission probes must
  // overtake.
  std::vector<EstimateRequest> scan;
  for (const auto& eq : train) {
    scan.push_back({&eq.plan, eq.database, Resource::kCpu});
    scan.push_back({&eq.plan, eq.database, Resource::kIo});
  }
  // Each pass is a callback SubmitBatch, so the scan runs on the pool while
  // this thread goes on to the probes.
  SubmitOptions bulk;
  bulk.priority = TaskPriority::kBulk;
  std::vector<std::future<std::vector<EstimateResult>>> scan_futures;
  for (int pass = 0; pass < 3; ++pass) {
    auto done = std::make_shared<std::promise<std::vector<EstimateResult>>>();
    scan_futures.push_back(done->get_future());
    service.SubmitBatch(
        scan,
        [done](std::vector<EstimateResult> results) {
          done->set_value(std::move(results));
        },
        bulk);
  }

  // Admission probes: one kUrgent request per queued query, each with a
  // deadline. With FIFO scheduling these would queue behind ~1500 scan
  // requests; a one-request batch instead runs to completion on this thread
  // (see kInlineBatchMaxItems) and never waits for the pool the scan holds.
  std::vector<EstimateRequest> probes;
  for (const auto& eq : queue) {
    probes.push_back({&eq.plan, eq.database, Resource::kCpu});
  }
  if (probes.empty()) {
    std::printf("no executable queries in the admission queue\n");
    return 1;
  }
  SubmitOptions urgent;
  urgent.priority = TaskPriority::kUrgent;
  urgent.deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::vector<EstimateResult> probe_results;
  probe_results.reserve(probes.size());
  for (const auto& probe : probes) {
    probe_results.push_back(service.EstimateBatch({probe}, urgent)[0]);
  }

  // The probes are answered; train the OPT baseline while the pool works
  // through the scan, then read the probes and (later) the scan.
  const auto opt = TrainTechnique("OPT", train, FeatureMode::kEstimated);

  std::vector<double> scaling_est, opt_est, oracle_est;
  double total_cpu = 0;
  size_t expired_probes = 0;
  for (size_t i = 0; i < queue.size(); ++i) {
    const EstimateResult& result = probe_results[i];
    opt_est.push_back(opt->Estimate(queue[i], Resource::kCpu));
    if (result.status == EstimateStatus::kDeadlineExceeded) {
      // Deadline policy: never stall admission on a late estimate — degrade
      // to the optimizer baseline for this query.
      ++expired_probes;
      scaling_est.push_back(opt_est.back());
    } else if (!result.ok()) {
      std::printf("probe %zu failed: %s\n", i,
                  EstimateStatusName(result.status));
      return 1;
    } else {
      scaling_est.push_back(result.value);
    }
    oracle_est.push_back(queue[i].plan.TotalActualCpu());
    total_cpu += queue[i].plan.TotalActualCpu();
  }
  for (auto& f : scan_futures) {
    for (const auto& r : f.get()) {
      if (!r.ok()) {
        std::printf("bulk scan request failed: %s\n",
                    EstimateStatusName(r.status));
        return 1;
      }
    }
  }

  const double budget = total_cpu / 8.0;  // ~8 scheduling windows
  const ServiceStats stats = service.stats();
  std::printf("served %llu estimates from model v%llu on %zu workers: "
              "%zu urgent probes (%zu past deadline) over %zu-request "
              "bulk scan batches\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(version), pool.num_threads(),
              probes.size(), expired_probes, scan.size());
  std::printf("per-priority serving stats:\n");
  PrintLane(stats, TaskPriority::kUrgent);
  PrintLane(stats, TaskPriority::kBulk);
  std::printf("\nqueue: %zu queries, CPU budget per window: %.0f ms\n\n",
              queue.size(), budget);

  std::printf("%-10s %10s %10s %12s %12s\n", "policy", "admitted", "deferred",
              "overloads", "utilization");
  const WindowStats oracle = Simulate(queue, oracle_est, budget);
  const WindowStats with_scaling = Simulate(queue, scaling_est, budget);
  const WindowStats with_opt = Simulate(queue, opt_est, budget);
  std::printf("%-10s %10d %10d %12d %11.0f%%\n", "oracle", oracle.admitted,
              oracle.deferred, oracle.overloads, 100 * oracle.utilization);
  std::printf("%-10s %10d %10d %12d %11.0f%%\n", "SCALING",
              with_scaling.admitted, with_scaling.deferred,
              with_scaling.overloads, 100 * with_scaling.utilization);
  std::printf("%-10s %10d %10d %12d %11.0f%%\n", "OPT", with_opt.admitted,
              with_opt.deferred, with_opt.overloads,
              100 * with_opt.utilization);

  std::printf("\n(SCALING should track the oracle's admissions closely; OPT "
              "misjudges query weights and either overloads windows or "
              "under-utilizes them)\n");

  // --- Close the loop: refit the drifted slots, delta-publish, re-probe. ---
  // The executed queue streamed into the observation logs as it ran; now
  // retrain only the (operator, resource) slots whose logs crossed the
  // policy — on this same pool at kBulk, under whatever traffic is live —
  // and hot-swap the delta. Only the refitted slots get a new version, so
  // only their cache entries stop matching (the cache is disabled here).
  std::printf(
      "\n== feedback loop: refit drifted operators, delta-publish ==\n");
  std::printf("pending observations: %zu rows across the per-operator logs\n",
              trainer.TotalPendingRows());
  const auto refit = trainer.RefitAndPublish(&registry, "admission");
  if (!refit) {
    std::printf("no slot crossed the refit policy; nothing republished\n");
    return 0;
  }
  std::printf("refitted %zu/%zu model slots -> delta-published v%llu "
              "(untouched operators share v%llu's exact models):\n",
              refit.refitted.size(), kNumModelSlots,
              static_cast<unsigned long long>(refit.version),
              static_cast<unsigned long long>(version));
  for (const auto& [op, resource] : refit.refitted) {
    std::printf("  %s/%s", OpTypeName(op), ResourceName(resource));
  }
  std::printf("\n");

  // Re-probe the queue through the service (now serving the delta): the
  // production measurements folded in should tighten the admission quality
  // toward the oracle.
  std::vector<double> refit_est;
  refit_est.reserve(queue.size());
  for (const auto& eq : queue) {
    const EstimateRequest probe{&eq.plan, eq.database, Resource::kCpu};
    const EstimateResult r = service.EstimateBatch({probe})[0];
    if (!r.ok() || r.model_version != refit.version) {
      std::printf("post-refit probe failed: %s\n",
                  EstimateStatusName(r.status));
      return 1;
    }
    refit_est.push_back(r.value);
  }
  const WindowStats with_refit = Simulate(queue, refit_est, budget);
  std::printf("\n%-12s %10s %10s %12s %12s\n", "policy", "admitted",
              "deferred", "overloads", "utilization");
  std::printf("%-12s %10d %10d %12d %11.0f%%\n", "oracle", oracle.admitted,
              oracle.deferred, oracle.overloads, 100 * oracle.utilization);
  std::printf("%-12s %10d %10d %12d %11.0f%%\n", "SCALING",
              with_scaling.admitted, with_scaling.deferred,
              with_scaling.overloads, 100 * with_scaling.utilization);
  std::printf("%-12s %10d %10d %12d %11.0f%%\n", "SCALING+refit",
              with_refit.admitted, with_refit.deferred, with_refit.overloads,
              100 * with_refit.utilization);
  return 0;
}
