// Serving throughput: single-thread serial estimation loop vs. the batched
// EstimationService fanning the same requests across a worker pool — with
// and without the cross-request operator-estimate cache — plus a
// latency-under-load scenario: the p99 of small urgent probes while bulk
// scan batches saturate the pool, with FIFO scheduling (probes share the
// bulk lane) vs. priority lanes (probes ride TaskPriority::kUrgent).
//
// The repeated-plan scenario models the paper's deployment inside a query
// optimizer: the same (operator, feature-vector) pairs recur across the
// candidate plans of one optimization session, so the version-keyed cache
// turns most operator inferences into lookups. The latency scenario models
// the admission-control deployment: per-query probes must not queue behind
// the optimizer's bulk re-optimization scans.
//
// Also verifies the serving contract end-to-end: batched results — cached
// or not, prioritized or not — must be bit-identical to the serial
// ResourceEstimator output.
//
// A refit-under-load scenario rounds out the living-system story: while a
// background incremental refit retrains drifted model slots on the same
// pool (at TaskPriority::kBulk) and delta-publishes the result, the bench
// keeps bulk scans and urgent probes flowing and reports the throughput and
// urgent p99 the swap costs — every response still bit-identical to one of
// the two published versions.
//
// Environment knobs:
//   RESEST_SERVING_THREADS   worker pool size          (default 8)
//   RESEST_SERVING_REQUESTS  requests per measurement  (default 2000)
//   RESEST_SERVING_PLANS     distinct plans in the repeated stream
//                            (default 25; lower = more cache hits)
//   RESEST_SERVING_PROBES    urgent probes per latency scenario (default 80)
//   RESEST_SERVING_REFIT_QUERIES  feedback queries folded into the logs
//                                 before the refit scenario (default 60)
//   RESEST_SERVING_HTTP_BATCHES   operator batches per client per side of
//                                 the HTTP loopback scenario (default 100;
//                                 long enough that one scheduler hiccup
//                                 cannot flip the http/in-process ratio)
//   RESEST_SERVING_HTTP_CLIENTS   concurrent keep-alive clients in the
//                                 loopback scenario (default 8)
//
// A server-loopback scenario prices the HTTP front end (src/server/): the
// same operator-feature batches are estimated in-process and over a
// loopback resest_server round trip (JSON parse, coalesce, batch pipeline,
// JSON format, socket both ways) with N concurrent keep-alive clients on
// each side, reporting qps and p99 batch latency for both sides — and
// checking the wire's %.17g doubles land bit-identical.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/experiment_common.h"
#include "bench/json_writer.h"
#include "src/common/thread_pool.h"
#include "src/ml/compiled_forest.h"
#include "src/server/http_client.h"
#include "src/server/http_server.h"
#include "src/server/json.h"
#include "src/server/serving_frontend.h"
#include "src/server/wire_api.h"
#include "src/serving/batch_coalescer.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/serving/tenant_manager.h"
#include "src/training/incremental_trainer.h"
#include "src/workload/runner.h"
#include "src/workload/schemas.h"
#include "src/workload/tpch_queries.h"

using namespace resest;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct Measurement {
  double seconds = 0.0;
  size_t mismatches = 0;
};

Measurement MeasureBatch(const EstimationService& service,
                         const std::vector<EstimateRequest>& requests,
                         const std::vector<double>& serial) {
  service.EstimateBatch(requests);  // warm-up (threads running, pages hot)
  const auto start = std::chrono::steady_clock::now();
  const auto results = service.EstimateBatch(requests);
  Measurement m;
  m.seconds = SecondsSince(start);
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!results[i].ok() || results[i].value != serial[i]) ++m.mismatches;
  }
  return m;
}

void PrintRow(const char* label, double seconds, size_t n, double baseline) {
  std::printf("%-28s %10.3f %11.0f q/s %9.2fx\n", label, seconds,
              static_cast<double>(n) / seconds, baseline / seconds);
}

struct LatencySummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  size_t mismatches = 0;
};

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

/// Urgent-probe latency while bulk scans keep the pool saturated. Probes
/// are submitted at `probe_priority`: kBulk puts them on the same lane as
/// the scans — FIFO, each probe waits for every scan request ahead of it —
/// while kUrgent lets the chunk scheduler serve them next.
LatencySummary MeasureProbeLatencyUnderBulk(
    const ModelRegistry& registry, ThreadPool& pool,
    const std::vector<EstimateRequest>& bulk_requests,
    const std::vector<EstimateRequest>& probe_requests,
    const std::vector<double>& probe_serial, TaskPriority probe_priority,
    int num_probes) {
  ServiceOptions options;
  // Uncached: a warm cache would turn the bulk scans into no-ops and
  // nothing would contend with the probes.
  options.enable_cache = false;
  options.max_batch_size = bulk_requests.size();
  EstimationService service(&registry, &pool, options);

  // Bulk load: a few blocking callers resubmitting the full scan until the
  // probes are done (blocking callers drain their own batches, so this also
  // keeps pool helpers busy without unbounded queue growth).
  std::atomic<bool> stop{false};
  SubmitOptions bulk;
  bulk.priority = TaskPriority::kBulk;
  std::vector<std::thread> bulk_callers;
  for (int t = 0; t < 2; ++t) {
    bulk_callers.emplace_back([&service, &bulk_requests, &bulk, &stop]() {
      while (!stop.load(std::memory_order_relaxed)) {
        service.EstimateBatch(bulk_requests, bulk);
      }
    });
  }
  // Let the bulk load reach a steady state before probing.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  SubmitOptions probe_options;
  probe_options.priority = probe_priority;
  // Warm the probe lane untimed: the first submissions on a lane pay
  // one-off costs (queue allocation, branch/cache warmup) that used to make
  // the measured p99 flap between runs.
  constexpr int kWarmupProbes = 16;
  for (int i = 0; i < kWarmupProbes; ++i) {
    const size_t slot = static_cast<size_t>(i) % probe_requests.size();
    (void)service.SubmitEstimate(probe_requests[slot], probe_options).get();
  }
  LatencySummary summary;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<size_t>(num_probes));
  for (int i = 0; i < num_probes; ++i) {
    const size_t slot = static_cast<size_t>(i) % probe_requests.size();
    const auto start = std::chrono::steady_clock::now();
    const EstimateResult result =
        service.SubmitEstimate(probe_requests[slot], probe_options).get();
    latencies_ms.push_back(1000.0 * SecondsSince(start));
    if (!result.ok() || result.value != probe_serial[slot]) {
      ++summary.mismatches;
    }
  }
  stop.store(true);
  for (auto& caller : bulk_callers) caller.join();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  summary.p50_ms = Percentile(latencies_ms, 0.50);
  summary.p99_ms = Percentile(latencies_ms, 0.99);
  summary.max_ms = latencies_ms.empty() ? 0.0 : latencies_ms.back();
  return summary;
}

struct RefitScenario {
  double refit_seconds = 0.0;
  double bulk_qps = 0.0;        ///< Estimate throughput while refitting.
  LatencySummary probes;        ///< Urgent probe latency while refitting.
  size_t refitted_slots = 0;
  uint64_t base_version = 0;
  uint64_t delta_version = 0;
  size_t mismatches = 0;
  size_t probes_served = 0;
};

/// Estimate throughput and urgent p99 while a background refit retrains the
/// drifted slots at kBulk on the same pool and delta-publishes. Every probe
/// must be bit-identical to the published version that served it.
RefitScenario MeasureRefitUnderLoad(
    ModelRegistry& registry, ThreadPool& pool, IncrementalTrainer& trainer,
    const std::vector<ExecutedQuery>& feedback,
    const std::vector<EstimateRequest>& bulk_requests,
    const std::vector<EstimateRequest>& probe_requests,
    const std::vector<double>& probe_serial_v1) {
  RefitScenario scenario;
  scenario.base_version = trainer.base_version();

  ServiceOptions options;
  options.enable_cache = false;  // keep the load honest, as above
  options.max_batch_size = bulk_requests.size();
  EstimationService service(&registry, &pool, options);

  // The feedback stream crosses the refit policy for every operator it
  // touches — the refit ahead is a real multi-slot retrain, not a toy.
  trainer.ObserveAll(feedback);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bulk_served{0};
  SubmitOptions bulk;
  bulk.priority = TaskPriority::kBulk;
  std::vector<std::thread> bulk_callers;
  for (int t = 0; t < 2; ++t) {
    bulk_callers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        service.EstimateBatch(bulk_requests, bulk);
        bulk_served.fetch_add(bulk_requests.size(),
                              std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  IncrementalTrainer::RefitResult delta;
  std::atomic<bool> refit_done{false};
  const auto refit_start = std::chrono::steady_clock::now();
  const uint64_t bulk_at_start = bulk_served.load();
  std::thread refitter([&]() {
    delta = trainer.RefitAndPublish(&registry, "default", &service);
    refit_done.store(true, std::memory_order_release);
  });

  // Urgent probes for as long as the refit runs; versions recorded so each
  // response can be checked against the model that actually served it.
  struct Probe {
    size_t slot;
    uint64_t version;
    double value;
    bool ok;
  };
  std::vector<Probe> probes;
  std::vector<double> latencies_ms;
  SubmitOptions urgent;
  urgent.priority = TaskPriority::kUrgent;
  size_t i = 0;
  while (!refit_done.load(std::memory_order_acquire)) {
    const size_t slot = i++ % probe_requests.size();
    const auto start = std::chrono::steady_clock::now();
    const EstimateResult result =
        service.SubmitEstimate(probe_requests[slot], urgent).get();
    latencies_ms.push_back(1000.0 * SecondsSince(start));
    probes.push_back({slot, result.model_version, result.value, result.ok()});
  }
  refitter.join();
  scenario.refit_seconds = SecondsSince(refit_start);
  const uint64_t bulk_in_window = bulk_served.load() - bulk_at_start;
  stop.store(true);
  for (auto& caller : bulk_callers) caller.join();

  scenario.bulk_qps =
      static_cast<double>(bulk_in_window) / scenario.refit_seconds;
  scenario.probes_served = probes.size();
  scenario.refitted_slots = delta ? delta.refitted.size() : 0;
  scenario.delta_version = delta.version;

  // Bit-identity: each probe matches the serial answer of the version that
  // served it — v1 before the swap, the delta after.
  std::vector<double> probe_serial_v2(probe_requests.size(), 0.0);
  if (delta) {
    for (size_t p = 0; p < probe_requests.size(); ++p) {
      probe_serial_v2[p] = delta.estimator->EstimateQuery(
          *probe_requests[p].plan, *probe_requests[p].database,
          probe_requests[p].resource);
    }
  }
  for (const Probe& probe : probes) {
    const double expected = probe.version == scenario.base_version
                                ? probe_serial_v1[probe.slot]
                                : probe_serial_v2[probe.slot];
    if (!probe.ok || probe.value != expected) ++scenario.mismatches;
  }
  if (!delta) ++scenario.mismatches;  // the refit must actually publish

  std::sort(latencies_ms.begin(), latencies_ms.end());
  scenario.probes.p50_ms = Percentile(latencies_ms, 0.50);
  scenario.probes.p99_ms = Percentile(latencies_ms, 0.99);
  scenario.probes.max_ms = latencies_ms.empty() ? 0.0 : latencies_ms.back();
  return scenario;
}

struct LoopbackScenario {
  double inproc_qps = 0.0;
  double inproc_p99_ms = 0.0;
  double http_qps = 0.0;
  double http_p99_ms = 0.0;
  double coalesced_rows_per_batch = 0.0;
  uint64_t coalesced_batches = 0;
  size_t requests = 0;
  size_t checked_responses = 0;  ///< All passes, both sides.
  size_t mismatches = 0;
  bool ran = false;
};

/// The same operator-feature batches, in-process vs over loopback HTTP
/// through the event-loop front end with cross-request coalescing — N
/// concurrent clients on each side, every HTTP client reusing one
/// keep-alive connection. Equal concurrency on both sides makes the ratio
/// a pure wire-overhead number: JSON parse, coalesce/demux, response
/// format, and the socket crossings.
LoopbackScenario MeasureServerLoopback(const ModelRegistry& registry,
                                       ThreadPool& pool, int num_batches,
                                       int batch_size, int num_clients) {
  // Both sides run kPasses timed passes and keep the fastest: the two
  // sides are measured back to back on a timeshared host, so any single
  // pass can eat an unrelated scheduling hiccup and flip the ratio. The
  // bit-identity check still covers every response of every pass.
  constexpr int kPasses = 3;
  LoopbackScenario scenario;
  EstimationService service(&registry, &pool);
  ServingFrontend frontend(&service, &registry, "default");
  BatchCoalescer coalescer(&service, {});  // default max-rows
  frontend.set_coalescer(&coalescer);
  HttpServer server(
      [&frontend](const HttpRequest& r, HttpResponseSender respond) {
        frontend.HandleAsync(r, std::move(respond));
      });
  std::string error;
  if (!server.Start(&error)) {
    std::printf("WARNING: loopback server failed to start: %s\n",
                error.c_str());
    return scenario;
  }

  // Synthetic operator batches (the wire API ships features, not plans);
  // distinct per (client, batch) so nothing is one memoized batch replayed.
  const size_t nc = static_cast<size_t>(num_clients);
  std::vector<std::vector<std::vector<EstimateRequest>>> batches(nc);
  std::vector<std::vector<std::string>> bodies(nc);
  for (size_t c = 0; c < nc; ++c) {
    for (int b = 0; b < num_batches; ++b) {
      std::vector<EstimateRequest> requests;
      std::string body = "{\"requests\":[";
      for (int i = 0; i < batch_size; ++i) {
        const int salt =
            (static_cast<int>(c) * num_batches + b) * batch_size + i;
        FeatureVector features{};
        for (int f = 0; f < kNumFeatures; ++f) {
          features[static_cast<size_t>(f)] =
              1.0 + static_cast<double>(salt % 97) * 3.7 +
              static_cast<double>(f) * 0.91;
        }
        const OpType op = static_cast<OpType>(salt % kNumOpTypes);
        const Resource resource = i % 2 == 0 ? Resource::kCpu : Resource::kIo;
        requests.push_back(
            EstimateRequest::ForOperator(op, features, resource));
        if (i > 0) body += ',';
        body += "{\"op\":\"";
        body += OpTypeName(op);
        body += "\",\"resource\":\"";
        body += ResourceName(resource);
        body += "\",\"features\":[";
        for (int f = 0; f < kNumFeatures; ++f) {
          if (f > 0) body += ',';
          AppendJsonNumber(features[static_cast<size_t>(f)], &body);
        }
        body += "]}";
      }
      body += "]}";
      batches[c].push_back(std::move(requests));
      bodies[c].push_back(std::move(body));
    }
  }
  scenario.requests = nc * static_cast<size_t>(num_batches) *
                      static_cast<size_t>(batch_size);
  scenario.checked_responses = 2 * static_cast<size_t>(kPasses) *
                               scenario.requests;

  // Warm the cache so both timed sides serve the steady state, and record
  // the expected (serial-path) values for the bit-identity check.
  std::vector<std::vector<std::vector<EstimateResult>>> expected(nc);
  for (size_t c = 0; c < nc; ++c) {
    for (const auto& batch : batches[c]) {
      expected[c].push_back(service.EstimateBatch(batch));
    }
  }

  std::atomic<size_t> mismatches{0};

  // In-process side at the same concurrency: num_clients threads, each
  // submitting its own batch stream.
  std::vector<double> inproc_ms;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::vector<std::vector<double>> ms_per(nc);
    std::vector<std::thread> workers;
    const auto inproc_start = std::chrono::steady_clock::now();
    for (size_t c = 0; c < nc; ++c) {
      workers.emplace_back([&, c]() {
        for (size_t b = 0; b < batches[c].size(); ++b) {
          const auto start = std::chrono::steady_clock::now();
          const auto results = service.EstimateBatch(batches[c][b]);
          ms_per[c].push_back(1000.0 * SecondsSince(start));
          for (size_t i = 0; i < results.size(); ++i) {
            if (!results[i].ok() ||
                results[i].value != expected[c][b][i].value) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    const double inproc_sec = SecondsSince(inproc_start);
    const double qps = static_cast<double>(scenario.requests) / inproc_sec;
    if (qps > scenario.inproc_qps) {
      scenario.inproc_qps = qps;
      inproc_ms.clear();
      for (auto& v : ms_per) {
        inproc_ms.insert(inproc_ms.end(), v.begin(), v.end());
      }
    }
  }

  // HTTP side: each client thread connects once and keeps the connection
  // alive for its whole stream, so the server's keep-alive reuse and the
  // coalescer see the traffic shape of a real client fleet.
  const uint64_t coalesced_before = coalescer.stats().batches;
  std::vector<double> http_ms;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::vector<std::vector<double>> ms_per(nc);
    // Response bodies are kept and verified *after* the timed window: the
    // verification tree-parse costs about as much as the server's own
    // request parse, and on a timeshared host running it inside the loop
    // would charge the client's checking work to the server's throughput.
    std::vector<std::vector<std::string>> responses(nc);
    std::vector<std::thread> workers;
    const auto http_start = std::chrono::steady_clock::now();
    for (size_t c = 0; c < nc; ++c) {
      responses[c].resize(bodies[c].size());
      workers.emplace_back([&, c]() {
        HttpClient client;
        std::string cerror;
        if (!client.Connect("127.0.0.1", server.port(), &cerror)) {
          mismatches.fetch_add(batches[c].size() *
                                   static_cast<size_t>(batch_size),
                               std::memory_order_relaxed);
          return;
        }
        for (size_t b = 0; b < bodies[c].size(); ++b) {
          const auto start = std::chrono::steady_clock::now();
          HttpClientResponse response;
          if (!client.Post("/v1/estimate", bodies[c][b], &response,
                           &cerror) ||
              response.status != 200) {
            mismatches.fetch_add(batches[c][b].size(),
                                 std::memory_order_relaxed);
            continue;
          }
          ms_per[c].push_back(1000.0 * SecondsSince(start));
          responses[c][b] = std::move(response.body);
        }
      });
    }
    for (auto& w : workers) w.join();
    const double http_sec = SecondsSince(http_start);
    for (size_t c = 0; c < nc; ++c) {
      for (size_t b = 0; b < responses[c].size(); ++b) {
        if (responses[c][b].empty()) continue;  // already counted above
        JsonValue parsed;
        std::string json_error;
        const JsonValue* results =
            JsonValue::Parse(responses[c][b], &parsed, &json_error)
                ? parsed.Find("results")
                : nullptr;
        if (results == nullptr ||
            results->items().size() != batches[c][b].size()) {
          mismatches.fetch_add(batches[c][b].size(),
                               std::memory_order_relaxed);
          continue;
        }
        for (size_t i = 0; i < results->items().size(); ++i) {
          const JsonValue* value = results->items()[i].Find("value");
          const double got = value != nullptr ? value->as_number() : 0.0;
          if (std::memcmp(&got, &expected[c][b][i].value,
                          sizeof(double)) != 0) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
    const double qps = static_cast<double>(scenario.requests) / http_sec;
    if (qps > scenario.http_qps) {
      scenario.http_qps = qps;
      http_ms.clear();
      for (auto& v : ms_per) {
        http_ms.insert(http_ms.end(), v.begin(), v.end());
      }
    }
  }
  server.Stop();

  const CoalescerStats cstats = coalescer.stats();
  scenario.coalesced_batches = cstats.batches - coalesced_before;
  scenario.coalesced_rows_per_batch = cstats.MeanRowsPerBatch();
  scenario.mismatches = mismatches.load();

  std::sort(inproc_ms.begin(), inproc_ms.end());
  std::sort(http_ms.begin(), http_ms.end());
  scenario.inproc_p99_ms = Percentile(inproc_ms, 0.99);
  scenario.http_p99_ms = Percentile(http_ms, 0.99);
  scenario.ran = true;
  return scenario;
}

struct TenantScenario {
  double solo_p99_ms = 0.0;   ///< Victim urgent p99, no load anywhere.
  double self_p99_ms = 0.0;   ///< ... while the victim floods itself.
  double cross_p99_ms = 0.0;  ///< ... while the *other* tenant floods.
  double isolation_ratio = 0.0;  ///< cross / max(solo, self).
  double solo_hit_rate = 0.0;
  double cross_hit_rate = 0.0;
  double bulk_tenant_qps = 0.0;    ///< Aggressor qps over the cross window.
  double victim_tenant_qps = 0.0;  ///< Victim qps over the same window.
  size_t probes = 0;
  size_t mismatches = 0;
};

/// Two tenants behind one TenantManager on the shared pool: "svc-b" serves
/// small urgent probes from a warm cache while "bulk-a" floods its own
/// cache region with distinct bulk scans. Isolation claim under test: the
/// aggressor's flood must not evict the victim's cache entries (disjoint
/// regions + disjoint slot-version key spaces), so the victim's urgent p99
/// under cross-tenant load stays within 2x of the worse of its no-load and
/// self-inflicted-load baselines. On a single-core host "within 2x of solo"
/// alone is unattainable — any concurrent load timeslices the probe thread —
/// which is why the self-loaded run (same CPU pressure, victim's own cache
/// flooded) is the fairness baseline; what the gate isolates is the *cache*
/// damage, visible as the cross-load hit rate staying near the solo one.
TenantScenario MeasureTenantIsolation(ModelRegistry& registry,
                                      ThreadPool& pool,
                                      const ResourceEstimator& estimator,
                                      int num_probes) {
  TenantScenario scenario;
  scenario.probes = static_cast<size_t>(3 * num_probes);

  TenantOptions topts;
  topts.service.model_name = "default";
  topts.service.cache_capacity = 4096;  // bulk flood (2x this) must evict
  topts.service.max_batch_size = 8192;
  topts.enable_coalescing = false;
  topts.heartbeat_interval_ms = 0;  // every Heartbeat() call ticks
  TenantManager tenants(&registry, &pool, topts);
  TenantManager::Tenant* bulk_tenant = tenants.AddTenant("bulk-a");
  TenantManager::Tenant* victim = tenants.AddTenant("svc-b");
  if (bulk_tenant == nullptr || victim == nullptr) {
    scenario.mismatches = scenario.probes;
    return scenario;
  }
  // Non-owning alias: the bench's estimator outlives the manager.
  tenants.PublishToAll(std::shared_ptr<const ResourceEstimator>(
      std::shared_ptr<void>(), &estimator));

  // Probe and flood sets over *trained* slots only (untrained slots
  // estimate to a constant and bypass the cache, so they would neither
  // occupy nor contest cache space).
  std::vector<std::pair<OpType, Resource>> slots;
  for (int op = 0; op < kNumOpTypes; ++op) {
    for (int r = 0; r < kNumResources; ++r) {
      if (estimator.ModelsFor(static_cast<OpType>(op),
                              static_cast<Resource>(r)) != nullptr) {
        slots.emplace_back(static_cast<OpType>(op), static_cast<Resource>(r));
      }
    }
  }
  if (slots.empty()) {
    scenario.mismatches = scenario.probes;
    return scenario;
  }
  const auto MakeRequest = [&slots](size_t i, double salt) {
    const auto& slot = slots[i % slots.size()];
    FeatureVector features{};
    for (int f = 0; f < kNumFeatures; ++f) {
      features[static_cast<size_t>(f)] =
          salt + static_cast<double>(i) * 1.31 + static_cast<double>(f) * 0.7;
    }
    return EstimateRequest::ForOperator(slot.first, features, slot.second);
  };
  std::vector<EstimateRequest> probe_requests;
  std::vector<double> probe_serial;
  for (size_t i = 0; i < 64; ++i) {
    probe_requests.push_back(MakeRequest(i, /*salt=*/1.0e6));
    probe_serial.push_back(estimator.EstimateFromFeatures(
        probe_requests.back().op, probe_requests.back().features,
        probe_requests.back().resource));
  }
  std::vector<EstimateRequest> flood_requests;  // 2x cache capacity
  for (size_t i = 0; i < 8192; ++i) {
    flood_requests.push_back(MakeRequest(i, /*salt=*/5.0e7));
  }

  // Warm the victim's cache with the probe working set, then warm the
  // urgent lane itself (first submissions pay one-off queue costs).
  SubmitOptions urgent;
  urgent.priority = TaskPriority::kUrgent;
  urgent.tenant = "svc-b";
  victim->service->EstimateBatch(probe_requests);
  for (int i = 0; i < 16; ++i) {
    const size_t slot = static_cast<size_t>(i) % probe_requests.size();
    (void)victim->service->SubmitEstimate(probe_requests[slot], urgent).get();
  }

  const auto RunProbePhase = [&](double* hit_rate) {
    const ServiceStats before = victim->service->stats();
    std::vector<double> latencies_ms;
    latencies_ms.reserve(static_cast<size_t>(num_probes));
    for (int i = 0; i < num_probes; ++i) {
      const size_t slot = static_cast<size_t>(i) % probe_requests.size();
      const auto start = std::chrono::steady_clock::now();
      const EstimateResult result =
          victim->service->SubmitEstimate(probe_requests[slot], urgent).get();
      latencies_ms.push_back(1000.0 * SecondsSince(start));
      if (!result.ok() || result.value != probe_serial[slot]) {
        ++scenario.mismatches;
      }
    }
    if (hit_rate != nullptr) {
      const ServiceStats after = victim->service->stats();
      const uint64_t hits = after.cache_hits - before.cache_hits;
      const uint64_t misses = after.cache_misses - before.cache_misses;
      *hit_rate = hits + misses > 0
                      ? static_cast<double>(hits) /
                            static_cast<double>(hits + misses)
                      : 0.0;
    }
    std::sort(latencies_ms.begin(), latencies_ms.end());
    return Percentile(latencies_ms, 0.99);
  };
  const auto RunLoadedPhase = [&](TenantManager::Tenant* flooder,
                                  double* hit_rate) {
    std::atomic<bool> stop{false};
    SubmitOptions bulk;
    bulk.priority = TaskPriority::kBulk;
    bulk.tenant = flooder->id;
    std::vector<std::thread> callers;
    for (int t = 0; t < 2; ++t) {
      callers.emplace_back([&]() {
        while (!stop.load(std::memory_order_relaxed)) {
          flooder->service->EstimateBatch(flood_requests, bulk);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double p99 = RunProbePhase(hit_rate);
    stop.store(true);
    for (auto& caller : callers) caller.join();
    return p99;
  };

  scenario.solo_p99_ms = RunProbePhase(&scenario.solo_hit_rate);
  scenario.self_p99_ms = RunLoadedPhase(victim, nullptr);
  // Re-warm: the self-flood evicted the victim's own probe entries — that
  // self-inflicted damage is exactly what the cross phase must NOT show.
  victim->service->EstimateBatch(probe_requests);
  tenants.Heartbeat();  // open the qps window for the cross phase
  scenario.cross_p99_ms = RunLoadedPhase(bulk_tenant, &scenario.cross_hit_rate);
  tenants.Heartbeat();  // close it
  for (const TenantStats& ts : tenants.stats()) {
    if (ts.tenant == "bulk-a") scenario.bulk_tenant_qps = ts.qps;
    if (ts.tenant == "svc-b") scenario.victim_tenant_qps = ts.qps;
  }
  const double baseline = std::max(scenario.solo_p99_ms, scenario.self_p99_ms);
  scenario.isolation_ratio =
      baseline > 0.0 ? scenario.cross_p99_ms / baseline : 0.0;
  return scenario;
}

}  // namespace

int main() {
  const int num_threads = bench::EnvInt("RESEST_SERVING_THREADS", 8);
  const int num_requests = bench::EnvInt("RESEST_SERVING_REQUESTS", 2000);
  const int num_plans = bench::EnvInt("RESEST_SERVING_PLANS", 25);
  const int num_probes = bench::EnvInt("RESEST_SERVING_PROBES", 80);
  const int num_refit_queries =
      bench::EnvInt("RESEST_SERVING_REFIT_QUERIES", 60);
  const int num_http_batches =
      bench::EnvInt("RESEST_SERVING_HTTP_BATCHES", 100);
  const int num_http_clients = bench::EnvInt("RESEST_SERVING_HTTP_CLIENTS", 8);

  std::printf("== serving throughput: serial vs. %d-worker batched, "
              "cache off/on ==\n\n",
              num_threads);
  std::printf("hardware concurrency: %u\n\n",
              std::thread::hardware_concurrency());

  // Train once, serve many: the paper's deployment model. Training runs
  // through the incremental trainer (per-slot fits on the pool at kBulk,
  // byte-identical to ResourceEstimator::Train) so the refit-under-load
  // scenario below can fold feedback into the same observation logs.
  auto db = GenerateDatabase(TpchSchema(), 1.0, 1.5, 42);
  Rng rng(7);
  const auto train =
      RunWorkload(db.get(), GenerateTpchWorkload(150, &rng, db.get()));
  ThreadPool pool(static_cast<size_t>(num_threads));
  TrainOptions options;
  RefitPolicy policy;
  policy.min_new_rows = 1;  // any feedback refits its slot: a meaty retrain
  IncrementalTrainer trainer(options, policy, &pool);
  const auto estimator = trainer.SeedAndTrain(train);

  // Repeated-plan request stream: an optimization session revisits a small
  // set of plans, alternating resources, until we have num_requests.
  const size_t distinct =
      std::min<size_t>(train.size(), static_cast<size_t>(num_plans));
  std::vector<EstimateRequest> requests;
  requests.reserve(static_cast<size_t>(num_requests));
  for (int i = 0; i < num_requests; ++i) {
    const auto& eq = train[static_cast<size_t>(i) % distinct];
    requests.push_back({&eq.plan, eq.database,
                        i % 2 == 0 ? Resource::kCpu : Resource::kIo});
  }
  std::printf("request stream: %d requests over %zu distinct plans\n",
              num_requests, distinct);
  std::printf("compiled-forest kernel: %s (lockstep width %zu)\n\n",
              CompiledForest::ActiveKernelName(),
              CompiledForest::ActiveLockstepWidth());

  // --- Serial baseline: one thread, one request at a time. ---
  std::vector<double> serial(requests.size());
  // Untimed warm-up pass, mirroring the batched paths' warm-ups, so no
  // contender pays first-touch cache/page costs inside the measurement.
  for (size_t i = 0; i < requests.size(); ++i) {
    serial[i] = estimator->EstimateQuery(*requests[i].plan,
                                         *requests[i].database,
                                         requests[i].resource);
  }
  const auto serial_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < requests.size(); ++i) {
    serial[i] = estimator->EstimateQuery(*requests[i].plan,
                                         *requests[i].database,
                                         requests[i].resource);
  }
  const double serial_sec = SecondsSince(serial_start);

  // --- Batched service, cache disabled: pure fan-out. ---
  ModelRegistry registry;
  trainer.PublishBaseline(&registry, "default");
  ServiceOptions uncached_options;
  uncached_options.max_batch_size = requests.size();
  uncached_options.enable_cache = false;
  EstimationService uncached(&registry, &pool, uncached_options);
  const Measurement fanout = MeasureBatch(uncached, requests, serial);

  // --- Batched service, cache enabled (warmed by the warm-up batch). ---
  ServiceOptions cached_options;
  cached_options.max_batch_size = requests.size();
  EstimationService cached(&registry, &pool, cached_options);
  const Measurement memoized = MeasureBatch(cached, requests, serial);
  const ServiceStats stats = cached.stats();

  std::printf("%-28s %10s %15s %10s\n", "path", "time (s)", "throughput",
              "speedup");
  PrintRow("serial loop", serial_sec, requests.size(), serial_sec);
  PrintRow("batched, cache off", fanout.seconds, requests.size(), serial_sec);
  PrintRow("batched, cache on (warm)", memoized.seconds, requests.size(),
           serial_sec);

  std::printf("\ncache: %.1f%% hit rate (%llu hits / %llu misses), "
              "%zu entries, %llu evictions\n",
              100.0 * stats.CacheHitRate(),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              stats.cache_entries,
              static_cast<unsigned long long>(stats.cache_evictions));
  if (memoized.seconds >= fanout.seconds) {
    std::printf("WARNING: cached batch was not faster than uncached\n");
  }

  // --- Latency under load: urgent probes vs. background bulk scans. ---
  // One probe per distinct plan, always kCpu, with precomputed serial
  // values for the bit-identity check.
  std::vector<EstimateRequest> probe_requests;
  std::vector<double> probe_serial;
  for (size_t i = 0; i < distinct; ++i) {
    const auto& eq = train[i];
    probe_requests.push_back({&eq.plan, eq.database, Resource::kCpu});
    probe_serial.push_back(
        estimator->EstimateQuery(eq.plan, *eq.database, Resource::kCpu));
  }
  std::printf("\n-- latency under load: %d urgent probes over continuous "
              "%zu-request bulk scans --\n",
              num_probes, requests.size());
  const LatencySummary fifo = MeasureProbeLatencyUnderBulk(
      registry, pool, requests, probe_requests, probe_serial,
      TaskPriority::kBulk, num_probes);
  const LatencySummary prioritized = MeasureProbeLatencyUnderBulk(
      registry, pool, requests, probe_requests, probe_serial,
      TaskPriority::kUrgent, num_probes);
  std::printf("%-28s %10s %10s %10s\n", "probe scheduling", "p50 (ms)",
              "p99 (ms)", "max (ms)");
  std::printf("%-28s %10.3f %10.3f %10.3f\n", "FIFO (bulk lane)", fifo.p50_ms,
              fifo.p99_ms, fifo.max_ms);
  std::printf("%-28s %10.3f %10.3f %10.3f\n", "priority lanes (urgent)",
              prioritized.p50_ms, prioritized.p99_ms, prioritized.max_ms);
  if (prioritized.p99_ms > 0.0) {
    std::printf("urgent p99 improvement: %.1fx\n",
                fifo.p99_ms / prioritized.p99_ms);
  }
  if (prioritized.p99_ms >= fifo.p99_ms) {
    std::printf("WARNING: priority lanes did not improve urgent p99\n");
  }

  // --- Refit under load: background incremental retrain + delta publish
  // while bulk scans and urgent probes keep flowing. ---
  Rng feedback_rng(99);
  const auto feedback = RunWorkload(
      db.get(),
      GenerateTpchWorkload(num_refit_queries, &feedback_rng, db.get()), 23);
  std::printf("\n-- refit under load: %zu feedback queries folded in, "
              "refit + delta publish racing bulk scans and urgent probes --\n",
              feedback.size());
  const RefitScenario refit = MeasureRefitUnderLoad(
      registry, pool, trainer, feedback, requests, probe_requests,
      probe_serial);
  std::printf("refit: %zu slots retrained in %.3f s (v%llu -> v%llu)\n",
              refit.refitted_slots, refit.refit_seconds,
              static_cast<unsigned long long>(refit.base_version),
              static_cast<unsigned long long>(refit.delta_version));
  std::printf("during refit: %11.0f q/s bulk estimate throughput, "
              "%zu urgent probes p50 %.3f ms  p99 %.3f ms  max %.3f ms\n",
              refit.bulk_qps, refit.probes_served, refit.probes.p50_ms,
              refit.probes.p99_ms, refit.probes.max_ms);
  if (refit.mismatches != 0) {
    std::printf("WARNING: %zu refit-scenario responses matched neither "
                "published version\n",
                refit.mismatches);
  }

  // --- Bounded observation logs: sustained ingestion under a hard memory
  // cap. The footprint must stay at or under the cap no matter how much
  // traffic flows, and a capped refit must stay deterministic (two trainers
  // fed the same stream refit to byte-identical models). ---
  LogBounds capped_bounds;
  capped_bounds.window_rows = 2048;
  capped_bounds.reservoir_rows = 256;
  capped_bounds.memory_cap_bytes = 2u << 20;  // 2 MiB across all slots
  RefitPolicy capped_policy;
  capped_policy.min_new_rows = 1;
  IncrementalTrainer capped(options, capped_policy, &pool, capped_bounds);
  IncrementalTrainer capped_twin(options, capped_policy, &pool, capped_bounds);
  {
    std::vector<ExecutedQuery> empty;
    capped.SeedAndTrain(empty);
    capped_twin.SeedAndTrain(empty);
  }
  // Keep observing the training stream until enough rows flowed that an
  // unbounded log would have blown well past the cap (3x), bounded by a
  // pass limit for tiny workloads.
  const auto IngestedRows = [](const IncrementalTrainer& t) {
    uint64_t rows = 0;
    for (int op = 0; op < kNumOpTypes; ++op) {
      for (int r = 0; r < kNumResources; ++r) {
        rows += t.LogStats(static_cast<OpType>(op), static_cast<Resource>(r))
                    .rows;
      }
    }
    return rows;
  };
  int ingest_passes = 0;
  while (ingest_passes < 256 &&
         IngestedRows(capped) * kObservationRowBytes <
             3 * capped_bounds.memory_cap_bytes) {
    capped.ObserveAll(train);
    capped_twin.ObserveAll(train);
    ++ingest_passes;
  }
  const uint64_t ingested_rows = IngestedRows(capped);
  const DurabilityStats obslog = capped.durability_stats();
  const auto capped_refit = capped.RefitAll();
  const auto twin_refit = capped_twin.RefitAll();
  const bool capped_deterministic =
      capped_refit && twin_refit &&
      capped_refit.estimator->Serialize() == twin_refit.estimator->Serialize();
  // A single append may transiently overshoot by one row before the cap
  // enforcement evicts — anything beyond that is a real leak.
  const bool memory_bounded =
      obslog.memory_bytes <= capped_bounds.memory_cap_bytes &&
      obslog.memory_peak_bytes <=
          capped_bounds.memory_cap_bytes + kObservationRowBytes;
  std::printf("\n-- bounded observation logs: %llu rows ingested over %d "
              "passes under a %zu KiB cap --\n",
              static_cast<unsigned long long>(ingested_rows), ingest_passes,
              capped_bounds.memory_cap_bytes >> 10);
  std::printf("footprint: %zu KiB live, %zu KiB peak, %llu rows spilled to "
              "reservoirs\n",
              obslog.memory_bytes >> 10, obslog.memory_peak_bytes >> 10,
              static_cast<unsigned long long>(obslog.spilled_rows));
  std::printf("capped refit deterministic across identical streams: %s\n",
              capped_deterministic ? "yes" : "NO");
  if (!memory_bounded) {
    std::printf("WARNING: observation-log footprint exceeded the cap\n");
  }

  // --- Server loopback: the same batches in-process vs over HTTP at equal
  // concurrency, so the wire overhead of the serving front end is a
  // measured number. ---
  std::printf("\n-- server loopback: %d keep-alive clients x %d batches of "
              "64 operator estimates, in-process vs HTTP round trip --\n",
              num_http_clients, num_http_batches);
  const LoopbackScenario loopback =
      MeasureServerLoopback(registry, pool, num_http_batches,
                            /*batch_size=*/64, num_http_clients);
  if (loopback.ran) {
    std::printf("%-28s %11.0f q/s  p99 %.3f ms/batch\n", "in-process",
                loopback.inproc_qps, loopback.inproc_p99_ms);
    std::printf("%-28s %11.0f q/s  p99 %.3f ms/batch\n", "HTTP loopback",
                loopback.http_qps, loopback.http_p99_ms);
    std::printf("HTTP vs in-process throughput ratio: %.3f\n",
                loopback.inproc_qps > 0.0
                    ? loopback.http_qps / loopback.inproc_qps
                    : 0.0);
    std::printf("coalescer: %llu merged submissions, %.1f rows/batch mean\n",
                static_cast<unsigned long long>(loopback.coalesced_batches),
                loopback.coalesced_rows_per_batch);
    if (loopback.mismatches != 0) {
      std::printf("WARNING: %zu HTTP responses were not bit-identical to "
                  "the in-process results\n",
                  loopback.mismatches);
    }
  }

  // --- Tenant isolation: victim urgent probes vs a cross-tenant bulk
  // flood, through the TenantManager's per-tenant cache regions. ---
  std::printf("\n-- tenant isolation: svc-b urgent probes (solo / "
              "self-loaded / cross-loaded by bulk-a's 8192-row floods) --\n");
  const TenantScenario tenant_iso =
      MeasureTenantIsolation(registry, pool, *estimator, num_probes);
  std::printf("%-28s %10s %10s\n", "victim probe phase", "p99 (ms)",
              "hit rate");
  std::printf("%-28s %10.3f %9.1f%%\n", "solo (no load)",
              tenant_iso.solo_p99_ms, 100.0 * tenant_iso.solo_hit_rate);
  std::printf("%-28s %10.3f %10s\n", "self-loaded (own flood)",
              tenant_iso.self_p99_ms, "-");
  std::printf("%-28s %10.3f %9.1f%%\n", "cross-loaded (bulk-a flood)",
              tenant_iso.cross_p99_ms, 100.0 * tenant_iso.cross_hit_rate);
  std::printf("cross-load p99 vs max(solo, self): %.3fx\n",
              tenant_iso.isolation_ratio);
  std::printf("per-tenant qps over the cross window: bulk-a %.0f, "
              "svc-b %.0f\n",
              tenant_iso.bulk_tenant_qps, tenant_iso.victim_tenant_qps);
  if (tenant_iso.cross_hit_rate < tenant_iso.solo_hit_rate * 0.5) {
    std::printf("WARNING: cross-tenant load degraded the victim's cache "
                "hit rate\n");
  }

  const size_t mismatches = fanout.mismatches + memoized.mismatches +
                            fifo.mismatches + prioritized.mismatches +
                            refit.mismatches + loopback.mismatches +
                            tenant_iso.mismatches;
  const size_t checks = 2 * requests.size() +
                        2 * static_cast<size_t>(num_probes) +
                        refit.probes_served + loopback.checked_responses +
                        tenant_iso.probes;
  std::printf("\nbit-identical to serial: %s (%zu/%zu mismatches)\n",
              mismatches == 0 ? "yes" : "NO", mismatches, checks);

  const double dn = static_cast<double>(requests.size());
  bench::JsonWriter json;
  json.Str("bench", "serving_throughput");
  json.Int("threads", num_threads);
  json.Int("requests", num_requests);
  json.Int("distinct_plans", static_cast<long long>(distinct));
  json.Number("serial_qps", dn / serial_sec);
  json.Number("batched_uncached_qps", dn / fanout.seconds);
  json.Number("batched_cached_qps", dn / memoized.seconds);
  json.Number("batched_uncached_speedup", serial_sec / fanout.seconds);
  // Inference-path configuration behind the numbers above: which compiled-
  // forest kernel ran (avx512 / avx2 / scalar), its lockstep width,
  // and the chunk size the adaptive policy picked for this batch shape —
  // so a regression in the JSON can be attributed to a dispatch or sizing
  // change, not just "got slower".
  json.Str("simd_kernel", CompiledForest::ActiveKernelName());
  json.Int("lockstep_width",
           static_cast<long long>(CompiledForest::ActiveLockstepWidth()));
  json.Int("chunk_size_effective",
           static_cast<long long>(uncached.EffectiveChunkSize(
               requests.size(), TaskPriority::kNormal)));
  json.Number("cache_hit_rate", stats.CacheHitRate());
  json.Int("latency_probes", num_probes);
  json.Number("urgent_p50_ms_fifo", fifo.p50_ms);
  json.Number("urgent_p99_ms_fifo", fifo.p99_ms);
  json.Number("urgent_p50_ms_priority", prioritized.p50_ms);
  json.Number("urgent_p99_ms_priority", prioritized.p99_ms);
  // Ratio (FIFO p99 / priority-lane p99), not a boolean: CI gates on a
  // threshold with margin instead of flapping when the two are close.
  json.Number("urgent_p99_ratio",
              prioritized.p99_ms > 0.0 ? fifo.p99_ms / prioritized.p99_ms
                                       : 0.0);
  json.Int("refit_feedback_queries", static_cast<long long>(feedback.size()));
  json.Int("refit_slots", static_cast<long long>(refit.refitted_slots));
  json.Number("refit_seconds", refit.refit_seconds);
  json.Number("refit_bulk_qps", refit.bulk_qps);
  json.Int("refit_probes", static_cast<long long>(refit.probes_served));
  json.Number("refit_urgent_p50_ms", refit.probes.p50_ms);
  json.Number("refit_urgent_p99_ms", refit.probes.p99_ms);
  json.Int("obslog_ingested_rows", static_cast<long long>(ingested_rows));
  json.Int("obslog_bytes", static_cast<long long>(obslog.memory_bytes));
  json.Int("obslog_peak_bytes",
           static_cast<long long>(obslog.memory_peak_bytes));
  json.Int("obslog_cap_bytes",
           static_cast<long long>(capped_bounds.memory_cap_bytes));
  json.Int("obslog_spilled_rows",
           static_cast<long long>(obslog.spilled_rows));
  json.Bool("obslog_memory_bounded", memory_bounded);
  json.Bool("obslog_refit_deterministic", capped_deterministic);
  json.Int("http_batches", num_http_batches);
  json.Int("http_clients", num_http_clients);
  json.Number("server_inprocess_qps", loopback.inproc_qps);
  json.Number("server_inprocess_p99_ms", loopback.inproc_p99_ms);
  json.Number("server_http_qps", loopback.http_qps);
  json.Number("server_http_p99_ms", loopback.http_p99_ms);
  json.Number("server_http_vs_inprocess_ratio",
              loopback.inproc_qps > 0.0
                  ? loopback.http_qps / loopback.inproc_qps
                  : 0.0);
  json.Number("coalesced_rows_per_batch", loopback.coalesced_rows_per_batch);
  json.Int("coalesced_batches",
           static_cast<long long>(loopback.coalesced_batches));
  json.Number("tenant_solo_urgent_p99_ms", tenant_iso.solo_p99_ms);
  json.Number("tenant_self_urgent_p99_ms", tenant_iso.self_p99_ms);
  json.Number("tenant_cross_urgent_p99_ms", tenant_iso.cross_p99_ms);
  // Cross-tenant p99 over the worse of the no-load and self-loaded runs;
  // CI gates this <= 2.0 (see docs/multi_tenant.md for why solo alone is
  // not a fair baseline on a small host).
  json.Number("tenant_isolation_ratio", tenant_iso.isolation_ratio);
  json.Number("tenant_solo_hit_rate", tenant_iso.solo_hit_rate);
  json.Number("tenant_cross_hit_rate", tenant_iso.cross_hit_rate);
  json.Number("tenant_bulk_qps", tenant_iso.bulk_tenant_qps);
  json.Number("tenant_victim_qps", tenant_iso.victim_tenant_qps);
  json.Bool("bit_identical", mismatches == 0);
  json.WriteFile("BENCH_serving.json");

  return mismatches == 0 && memory_bounded && capped_deterministic ? 0 : 1;
}
