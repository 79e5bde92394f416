// Serving walkthrough: train a small model, publish it, start the HTTP
// front end in-process, and act as a network client — health check, a
// batch estimate over the wire API, and a /metrics scrape. The same wire
// contract `resest_server` speaks; see docs/wire_api.md.
#include <cstdio>
#include <memory>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/core/estimator.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/server/http_client.h"
#include "src/server/http_server.h"
#include "src/server/serving_frontend.h"
#include "src/storage/catalog.h"
#include "src/workload/runner.h"
#include "src/workload/schemas.h"
#include "src/workload/tpch_queries.h"

using namespace resest;

int main() {
  std::printf("== resest serving walkthrough ==\n\n");

  // 1. Train and publish a model, exactly as an offline pipeline would.
  std::printf("[1/4] training a demo model (SF=0.3, 40 queries)...\n");
  auto db = GenerateDatabase(TpchSchema(), /*sf=*/0.3, /*skew=*/1.0,
                             /*seed=*/42);
  Rng rng(7);
  const auto workload =
      RunWorkload(db.get(), GenerateTpchWorkload(40, &rng, db.get()));
  TrainOptions options;
  options.mart.num_trees = 20;
  ThreadPool pool(2);
  ModelRegistry registry;
  const uint64_t version = registry.Publish(
      "demo", std::make_shared<const ResourceEstimator>(
                  ResourceEstimator::Train(workload, options)));
  std::printf("      published model v%llu\n",
              static_cast<unsigned long long>(version));

  // 2. Bring up the serving front end on an ephemeral loopback port.
  std::printf("\n[2/4] starting the HTTP front end...\n");
  ServiceOptions service_options;
  service_options.model_name = "demo";
  EstimationService service(&registry, &pool, service_options);
  ServingFrontend frontend(&service, &registry, "demo");
  HttpServer server(
      [&frontend](const HttpRequest& request, HttpResponseSender respond) {
        frontend.HandleAsync(request, std::move(respond));
      });
  std::string error;
  if (!server.Start(&error)) {
    std::printf("      failed to start: %s\n", error.c_str());
    return 1;
  }
  std::printf("      listening on 127.0.0.1:%u\n", server.port());

  // 3. Speak the wire API as a client would.
  HttpClient client;
  HttpClientResponse response;
  if (!client.Connect("127.0.0.1", server.port(), &error)) {
    std::printf("      connect failed: %s\n", error.c_str());
    return 1;
  }

  client.Get("/healthz", &response, &error);
  std::printf("\n[3/4] GET /healthz -> %d\n      %s\n", response.status,
              response.body.c_str());

  // An urgent two-operator batch with a 50 ms deadline. Features are the
  // kNumFeatures operator-level inputs (cardinalities, widths, ...); any
  // omitted trailing features default to 0.
  const std::string body =
      "{\"priority\":\"urgent\",\"deadline_ms\":50,\"requests\":["
      "{\"op\":\"TableScan\",\"resource\":\"CPU\",\"features\":[120000,8]},"
      "{\"op\":\"HashJoin\",\"resource\":\"IO\",\"features\":[40000,20000]}"
      "]}";
  client.Post("/v1/estimate", body, &response, &error);
  std::printf("\n      POST /v1/estimate -> %d\n      %s\n", response.status,
              response.body.c_str());

  // 4. Scrape the Prometheus endpoint; show the request-level series.
  client.Get("/metrics", &response, &error);
  std::printf("\n[4/4] GET /metrics -> %d (%zu bytes); selected series:\n",
              response.status, response.body.size());
  size_t pos = 0;
  while (pos < response.body.size()) {
    size_t eol = response.body.find('\n', pos);
    if (eol == std::string::npos) eol = response.body.size();
    const std::string line = response.body.substr(pos, eol - pos);
    if (line.compare(0, 21, "resest_requests_total") == 0 ||
        line.compare(0, 23, "resest_cache_hits_total") == 0 ||
        line.compare(0, 20, "resest_model_version") == 0 ||
        line.compare(0, 26, "resest_http_requests_total") == 0) {
      std::printf("      %s\n", line.c_str());
    }
    pos = eol + 1;
  }

  client.Close();
  server.Stop();
  std::printf("\ndone: server drained cleanly.\n");
  return 0;
}
