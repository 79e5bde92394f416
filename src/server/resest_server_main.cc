// resest_server: the network front end of the estimation service.
//
// Serves the wire endpoints over dependency-free HTTP/1.1 (see
// docs/wire_api.md):
//   POST /v1/estimate   batched operator estimates with priority/deadline
//   POST /v1/observe    labeled feedback rows (requires --data-dir)
//   GET  /v1/tenants    per-tenant load/pressure snapshots
//   GET  /healthz       liveness + active model version
//   GET  /metrics       Prometheus text exposition
//
// Model source: --model=<path> loads a persisted model store
// (ResourceEstimator::SaveToFile / ModelRegistry::SaveActive format);
// without it the server trains a small demo model on a generated TPC-H
// workload at startup (--train-queries / --trees control its size), so the
// walkthroughs and CI smoke test need no model artifact.
//
// Multi-tenancy: --tenants=a,b,c registers named tenants next to the
// always-present default tenant. Each tenant gets its own estimation
// service + cache region, coalescer, and (with --data-dir) WAL-backed
// observation log under <data-dir>/<tenant>/; requests pick their tenant
// via the X-Resest-Tenant header or the body's "tenant" field. See
// docs/multi_tenant.md.
//
// Durability: --data-dir=PATH turns the feedback loop on — POST /v1/observe
// ingests labeled rows into per-tenant WAL-backed IncrementalTrainers
// (recovered rows are replayed at startup and reported), --obslog-cap-mb /
// --tenant-obslog-cap-mb bound the in-memory log footprint, and
// --refit-interval-ms runs a background refit-and-publish loop over every
// durable tenant. See docs/durability.md.
//
// Shutdown: SIGTERM or SIGINT starts a graceful drain — stop accepting,
// answer every in-flight request, checkpoint and seal every tenant's WAL,
// flush a final stats line — then exits 0.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/shutdown.h"
#include "src/common/thread_pool.h"
#include "src/server/http_server.h"
#include "src/server/serving_frontend.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/serving/tenant_manager.h"
#include "src/training/incremental_trainer.h"
#include "src/workload/runner.h"
#include "src/workload/schemas.h"
#include "src/workload/tpch_queries.h"

using namespace resest;

namespace {

struct Flags {
  std::string address = "127.0.0.1";
  int port = 8080;  ///< 0 = ephemeral (the bound port is printed).
  int threads = 0;  ///< 0 = hardware concurrency.
  std::string model_path;  ///< Empty = train a demo model at startup.
  std::string model_name = "default";
  int train_queries = 40;  ///< Demo-model workload size.
  int trees = 30;          ///< Demo-model trees per MART.
  std::string data_dir;    ///< Empty = no durability / no /v1/observe.
  int obslog_cap_mb = 0;   ///< 0 = unbounded observation-log memory.
  int refit_interval_ms = 0;  ///< 0 = no background refit loop.
  int io_threads = 0;         ///< 0 = auto (half the cores, clamped [1,4]).
  int coalesce_max_rows = 1024;  ///< 0 disables coalescing.
  std::string tenants;     ///< Comma-separated named tenants (may be empty).
  int tenant_cache_mb = 0;    ///< 0 = keep the service default capacity.
  int tenant_obslog_cap_mb = -1;  ///< <= 0 = inherit --obslog-cap-mb.
};

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--address=IP] [--port=N] [--threads=N]\n"
      "          [--io-threads=N] [--coalesce-max-rows=N]\n"
      "          [--model=PATH] [--model-name=NAME]\n"
      "          [--train-queries=N] [--trees=N]\n"
      "          [--data-dir=PATH] [--obslog-cap-mb=N]\n"
      "          [--refit-interval-ms=N]\n"
      "          [--tenants=A,B,...] [--tenant-cache-mb=N]\n"
      "          [--tenant-obslog-cap-mb=N]\n"
      "\n"
      "  --address=IP       bind address (default 127.0.0.1)\n"
      "  --port=N           listen port; 0 picks an ephemeral port\n"
      "                     (default 8080). The bound port is printed as\n"
      "                     'resest_server listening on <addr>:<port>'.\n"
      "  --threads=N        thread-pool size for estimation batch fan-out\n"
      "                     (default: hardware concurrency)\n"
      "  --io-threads=N     event-loop threads for the HTTP front end\n"
      "                     (default 0 = half the cores, clamped to [1,4])\n"
      "  --coalesce-max-rows=N  cap on a coalesced /v1/estimate batch.\n"
      "                     Batching is work-conserving: the requests an\n"
      "                     I/O loop pass reads for an idle lane run as\n"
      "                     one batch when the pass ends, and requests\n"
      "                     arriving while a batch runs merge into the\n"
      "                     next one\n"
      "                     (default 1024; 0 disables coalescing)\n"
      "  --coalesce-window-us=0  deprecated alias for\n"
      "                     --coalesce-max-rows=0; other values are rejected\n"
      "  --model=PATH       load a persisted model store instead of\n"
      "                     training the demo model\n"
      "  --model-name=NAME  registry base name to publish/serve (default\n"
      "                     'default'; tenant t serves NAME@t)\n"
      "  --train-queries=N  demo model: TPC-H training workload size\n"
      "  --trees=N          demo model: MART trees per model slot\n"
      "  --data-dir=PATH    durable observation logs: WAL + segments live\n"
      "                     here (tenant t under PATH/t), POST /v1/observe\n"
      "                     is enabled, and rows from a previous run are\n"
      "                     recovered at startup\n"
      "  --obslog-cap-mb=N  cap the default tenant's in-memory\n"
      "                     observation-log footprint (0 = unbounded;\n"
      "                     oldest rows spill into per-slot reservoirs)\n"
      "  --refit-interval-ms=N  refit-and-publish crossed model slots of\n"
      "                     every durable tenant every N ms (0 = off)\n"
      "  --tenants=A,B,...  register named tenants next to the default\n"
      "                     tenant (ids: 1-64 chars, alphanumeric plus\n"
      "                     '.', '_', '-', starting alphanumeric)\n"
      "  --tenant-cache-mb=N  per-tenant estimate-cache budget in MiB\n"
      "                     (approx %zu bytes/entry; 0 = service default)\n"
      "  --tenant-obslog-cap-mb=N  per-named-tenant observation-log cap\n"
      "                     (default: inherit --obslog-cap-mb)\n",
      argv0, kApproxCacheEntryBytes);
}

bool ParseIntFlag(const char* arg, const char* name, int* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(arg + len + 1, &end, 10);
  if (end == arg + len + 1 || *end != '\0' || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "resest_server: bad integer in %s\n", arg);
    std::exit(2);
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseStringFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage(argv[0]);
      std::exit(0);
    }
    int window_us = 0;
    if (ParseIntFlag(arg, "--coalesce-window-us", &window_us)) {
      if (window_us != 0) {
        std::fprintf(stderr,
                     "resest_server: --coalesce-window-us is gone: batching "
                     "is now work-conserving (only =0, an alias for "
                     "--coalesce-max-rows=0, is accepted)\n");
        std::exit(2);
      }
      flags.coalesce_max_rows = 0;
      continue;
    }
    if (ParseStringFlag(arg, "--address", &flags.address) ||
        ParseIntFlag(arg, "--port", &flags.port) ||
        ParseIntFlag(arg, "--threads", &flags.threads) ||
        ParseStringFlag(arg, "--model", &flags.model_path) ||
        ParseStringFlag(arg, "--model-name", &flags.model_name) ||
        ParseIntFlag(arg, "--train-queries", &flags.train_queries) ||
        ParseIntFlag(arg, "--trees", &flags.trees) ||
        ParseStringFlag(arg, "--data-dir", &flags.data_dir) ||
        ParseIntFlag(arg, "--obslog-cap-mb", &flags.obslog_cap_mb) ||
        ParseIntFlag(arg, "--refit-interval-ms", &flags.refit_interval_ms) ||
        ParseIntFlag(arg, "--io-threads", &flags.io_threads) ||
        ParseIntFlag(arg, "--coalesce-max-rows", &flags.coalesce_max_rows) ||
        ParseStringFlag(arg, "--tenants", &flags.tenants) ||
        ParseIntFlag(arg, "--tenant-cache-mb", &flags.tenant_cache_mb) ||
        ParseIntFlag(arg, "--tenant-obslog-cap-mb",
                     &flags.tenant_obslog_cap_mb)) {
      continue;
    }
    std::fprintf(stderr, "resest_server: unknown flag %s\n", arg);
    PrintUsage(argv[0]);
    std::exit(2);
  }
  if (flags.port < 0 || flags.port > 65535) {
    std::fprintf(stderr, "resest_server: --port must be in [0, 65535]\n");
    std::exit(2);
  }
  if (flags.io_threads < 0 || flags.coalesce_max_rows < 0) {
    std::fprintf(stderr,
                 "resest_server: --io-threads / --coalesce-max-rows must be "
                 ">= 0\n");
    std::exit(2);
  }
  if (flags.obslog_cap_mb < 0 || flags.refit_interval_ms < 0) {
    std::fprintf(stderr,
                 "resest_server: --obslog-cap-mb and --refit-interval-ms "
                 "must be >= 0\n");
    std::exit(2);
  }
  if (flags.tenant_cache_mb < 0) {
    std::fprintf(stderr, "resest_server: --tenant-cache-mb must be >= 0\n");
    std::exit(2);
  }
  if (flags.data_dir.empty() &&
      (flags.obslog_cap_mb > 0 || flags.refit_interval_ms > 0 ||
       flags.tenant_obslog_cap_mb > 0)) {
    std::fprintf(stderr,
                 "resest_server: --obslog-cap-mb / --refit-interval-ms / "
                 "--tenant-obslog-cap-mb require --data-dir\n");
    std::exit(2);
  }
  for (const std::string& id : SplitCommaList(flags.tenants)) {
    if (!IsValidTenantId(id)) {
      std::fprintf(stderr, "resest_server: invalid tenant id \"%s\"\n",
                   id.c_str());
      std::exit(2);
    }
  }
  return flags;
}

/// Trains the small self-contained demo model (generated TPC-H data +
/// workload). Null on failure.
std::shared_ptr<const ResourceEstimator> TrainDemoModel(
    const Flags& flags, size_t train_threads) {
  std::fprintf(stderr,
               "resest_server: no --model given; training demo model "
               "(%d queries, %d trees)...\n",
               flags.train_queries, flags.trees);
  auto db = GenerateDatabase(TpchSchema(), 0.3, 1.0, 42);
  Rng rng(7);
  auto queries = GenerateTpchWorkload(flags.train_queries, &rng, db.get());
  const auto workload = RunWorkload(db.get(), queries);
  TrainOptions options;
  options.mart.num_trees = flags.trees;
  options.train_threads = train_threads;
  return std::make_shared<ResourceEstimator>(
      ResourceEstimator::Train(workload, options));
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  // Install before serving starts so an early signal is never lost — it is
  // latched and the drain below runs immediately after startup.
  ShutdownLatch::Install();

  const size_t threads =
      flags.threads > 0
          ? static_cast<size_t>(flags.threads)
          : std::max(2u, std::thread::hardware_concurrency());
  ThreadPool pool(threads);
  ModelRegistry registry;

  // One tenant universe per registered tenant (the default tenant always
  // exists); each owns its own service + cache region, coalescer, and —
  // with --data-dir — its own WAL-backed observation log.
  TenantOptions tenant_options;
  tenant_options.service.model_name = flags.model_name;
  if (flags.tenant_cache_mb > 0) {
    tenant_options.service.cache_capacity =
        std::max<size_t>(1, static_cast<size_t>(flags.tenant_cache_mb) *
                                (size_t{1} << 20) / kApproxCacheEntryBytes);
  }
  tenant_options.coalescer.max_rows =
      static_cast<size_t>(flags.coalesce_max_rows);
  tenant_options.data_dir = flags.data_dir;
  tenant_options.train.mart.num_trees = flags.trees;
  tenant_options.train.train_threads = threads;
  tenant_options.log_bounds.memory_cap_bytes =
      static_cast<size_t>(flags.obslog_cap_mb) * (size_t{1} << 20);
  if (flags.tenant_obslog_cap_mb > 0) {
    tenant_options.named_obslog_cap_bytes =
        static_cast<size_t>(flags.tenant_obslog_cap_mb) * (size_t{1} << 20);
  }
  TenantManager tenants(&registry, &pool, tenant_options);

  // Durable logs are opened (and recovered) before the model publish so
  // replayed rows are in place when the baseline attaches.
  {
    // One line per tenant; the default tenant's names its directory. A
    // replay that was not clean ends with its reason.
    const auto report_recovery = [&](const std::string& id,
                                     const RecoveryStats& r) {
      if (flags.data_dir.empty()) return;
      const bool named = id != kDefaultTenant;
      const std::string who = named ? "tenant " + id + ": " : "";
      const std::string from = named ? "" : "from " + flags.data_dir + " ";
      const std::string detail = r.clean() ? "" : ": " + r.detail;
      std::fprintf(stderr,
                   "resest_server: %srecovered %llu observation rows %s"
                   "(%llu segments, %llu records dropped%s)\n",
                   who.c_str(),
                   static_cast<unsigned long long>(r.rows_recovered),
                   from.c_str(),
                   static_cast<unsigned long long>(r.segments_replayed),
                   static_cast<unsigned long long>(r.records_dropped),
                   detail.c_str());
    };
    std::string error;
    RecoveryStats recovery;
    if (tenants.AddTenant(kDefaultTenant, &error, &recovery) == nullptr) {
      std::fprintf(stderr, "resest_server: %s\n", error.c_str());
      return 1;
    }
    std::vector<std::string> named = SplitCommaList(flags.tenants);
    for (const std::string& id : named) {
      RecoveryStats tenant_recovery;
      if (tenants.AddTenant(id, &error, &tenant_recovery) == nullptr) {
        std::fprintf(stderr, "resest_server: %s\n", error.c_str());
        return 1;
      }
      report_recovery(id, tenant_recovery);
    }
    report_recovery(kDefaultTenant, recovery);
  }

  // The model is loaded/trained once and published under every tenant's
  // name — each publish gets its own globally unique version, so tenants'
  // slot-version cache keys never collide.
  std::shared_ptr<const ResourceEstimator> estimator;
  if (!flags.model_path.empty()) {
    auto loaded = std::make_shared<ResourceEstimator>();
    if (!loaded->LoadFromFile(flags.model_path)) {
      std::fprintf(stderr, "resest_server: failed to load model from %s\n",
                   flags.model_path.c_str());
      return 1;
    }
    estimator = std::move(loaded);
  } else {
    estimator = TrainDemoModel(flags, threads);
    if (estimator == nullptr) {
      std::fprintf(stderr, "resest_server: demo model training failed\n");
      return 1;
    }
  }
  const uint64_t version = tenants.PublishToAll(std::move(estimator));
  if (version == 0) {
    std::fprintf(stderr, "resest_server: model publish failed\n");
    return 1;
  }

  TenantManager::Tenant* default_tenant = tenants.Resolve(kDefaultTenant);
  ServingFrontend frontend(default_tenant->service.get(), &registry,
                           default_tenant->model_name);
  frontend.set_tenant_manager(&tenants);

  // Background refit loop: a dedicated thread (not the shared pool — a
  // refit blocks on pool futures) that periodically retrains and publishes
  // whatever slots crossed the policy, per tenant, stopping at drain.
  std::thread refit_thread;
  std::mutex refit_stop_mu;
  std::condition_variable refit_stop_cv;
  bool refit_stop = false;
  if (!flags.data_dir.empty() && flags.refit_interval_ms > 0) {
    refit_thread = std::thread([&]() {
      const auto interval =
          std::chrono::milliseconds(flags.refit_interval_ms);
      std::unique_lock<std::mutex> lock(refit_stop_mu);
      while (!refit_stop_cv.wait_for(lock, interval,
                                     [&]() { return refit_stop; })) {
        lock.unlock();
        const size_t published = tenants.RefitTenants();
        if (published > 0) {
          std::fprintf(stderr,
                       "resest_server: refit published %zu tenant(s)\n",
                       published);
        }
        lock.lock();
      }
    });
  }

  HttpServerOptions server_options;
  server_options.bind_address = flags.address;
  server_options.port = static_cast<uint16_t>(flags.port);
  server_options.io_threads = static_cast<size_t>(flags.io_threads);
  // The heartbeat/aging sweep rides the event loop's idle timer: loop 0
  // calls this at least every poll interval; the manager rate-limits.
  server_options.on_sweep = [&tenants]() { tenants.Heartbeat(); };
  HttpServer server(
      [&frontend](const HttpRequest& r, HttpResponseSender respond) {
        frontend.HandleAsync(r, std::move(respond));
      },
      server_options);
  frontend.set_http_server(&server);

  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "resest_server: %s\n", error.c_str());
    return 1;
  }

  // The test harness and CI smoke script parse this exact line for the
  // bound (possibly ephemeral) port; keep it first on stdout.
  std::printf(
      "resest_server listening on %s:%u (model %s v%llu, %zu threads, "
      "%zu tenants)\n",
      flags.address.c_str(), server.port(), flags.model_name.c_str(),
      static_cast<unsigned long long>(version), threads,
      tenants.tenant_count());
  std::fflush(stdout);

  ShutdownLatch::Wait();
  std::fprintf(stderr, "resest_server: draining...\n");
  server.Stop();  // Stops accepting; blocks until in-flight answered.

  if (refit_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(refit_stop_mu);
      refit_stop = true;
    }
    refit_stop_cv.notify_one();
    refit_thread.join();
  }
  if (!flags.data_dir.empty()) {
    // Every answered /v1/observe row is in its tenant's WAL already
    // (append-before-memory under the log mutex); the drain makes it all
    // immutable: save the models, then append one coverage marker, fsync
    // and seal the active files.
    const bool drained = tenants.DrainAll();
    if (!drained) {
      std::fprintf(stderr, "resest_server: drain checkpoint failed\n");
    }
    for (const std::string& id : tenants.TenantIds()) {
      const TenantManager::Tenant* tenant = tenants.Resolve(id);
      if (tenant->trainer == nullptr) continue;
      const DurabilityStats d = tenant->trainer->durability_stats();
      // The default tenant keeps the pre-tenancy line format — the drain
      // test and CI smoke script scan for "resest_server: wal".
      const std::string who = id == kDefaultTenant ? "" : "tenant " + id + " ";
      std::printf(
          "resest_server: %swal %s (%llu records, %llu segments, "
          "%llu append failures)\n",
          who.c_str(), drained ? "sealed" : "seal FAILED",
          static_cast<unsigned long long>(d.wal.records_appended),
          static_cast<unsigned long long>(d.wal.segments_sealed),
          static_cast<unsigned long long>(d.wal.append_failures));
    }
  }

  uint64_t total_estimates = 0;
  uint64_t total_batches = 0;
  uint64_t total_expired = 0;
  uint64_t total_hits = 0;
  uint64_t total_misses = 0;
  for (const std::string& id : tenants.TenantIds()) {
    const ServiceStats stats = tenants.Resolve(id)->service->stats();
    total_estimates += stats.requests;
    total_batches += stats.batches;
    total_expired += stats.deadline_expired;
    total_hits += stats.cache_hits;
    total_misses += stats.cache_misses;
  }
  std::printf(
      "resest_server: drained; served %llu http requests, %llu estimates "
      "(%llu batches, %llu expired, cache hit rate %.3f)\n",
      static_cast<unsigned long long>(server.requests_served()),
      static_cast<unsigned long long>(total_estimates),
      static_cast<unsigned long long>(total_batches),
      static_cast<unsigned long long>(total_expired),
      CacheHitRate(total_hits, total_misses));
  std::fflush(stdout);
  return 0;
}
