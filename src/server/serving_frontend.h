// The request router of resest_server: maps the wire endpoints onto the
// estimation service. Transport-free (HandleAsync is the body of an
// HttpAsyncHandler), so the integration tests can drive it directly as well
// as over a socket.
//
//   POST /v1/estimate  JSON batch -> EstimateBatch (priority/deadline map
//                      onto SubmitOptions; per-result status in the body;
//                      whole-batch failures map onto the status's stable
//                      HTTP code, e.g. kDeadlineExceeded -> 504).
//   POST /v1/observe   JSON batch of labeled rows -> IncrementalTrainer::
//                      Append (WAL-backed when the server runs with
//                      --data-dir); 503 when no trainer is attached.
//   GET  /healthz      200 {"status":"ok",...} iff a model snapshot is
//                      active, 503 otherwise.
//   GET  /metrics      Prometheus text exposition of ServiceStats, the
//                      estimate cache (per shard), model/slot versions,
//                      WAL/recovery/observation-log durability counters,
//                      the HTTP front end's own counters, and the
//                      per-tenant resest_tenant_* families.
//   GET  /v1/tenants   JSON snapshot of every tenant's TenantStats (qps,
//                      cache pressure, obslog bytes, per-lane latency) —
//                      the admin surface a capacity supervisor polls.
//
// Tenancy: every estimate/observe request belongs to a tenant, named by
// the X-Resest-Tenant header or the body's "tenant" field (both present
// must agree; neither means the default tenant). With a TenantManager
// attached the request is routed to that tenant's own service, coalescer
// and trainer; unknown tenants get 404. Without one (single-tenant tests
// and embedders) only the default tenant exists.
//
// Malformed JSON and unknown routes are answered without touching the
// service; oversized bodies never reach the handler at all (the server
// rejects them with 400 first).
#ifndef RESEST_SERVER_SERVING_FRONTEND_H_
#define RESEST_SERVER_SERVING_FRONTEND_H_

#include <functional>
#include <string>

#include "src/server/http_server.h"
#include "src/serving/batch_coalescer.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/serving/tenant_manager.h"
#include "src/training/incremental_trainer.h"

namespace resest {

class ServingFrontend {
 public:
  /// `service` and `registry` must outlive the frontend. The model name is
  /// used for /healthz and the model-version metrics (it should match
  /// the service's ServiceOptions::model_name).
  ServingFrontend(const EstimationService* service,
                  const ModelRegistry* registry, std::string model_name);

  /// Routes one request synchronously (an estimate blocks on
  /// EstimateBatch): the reference body HandleAsync's responses are
  /// byte-identical to.
  HttpResponse Handle(const HttpRequest& request) const;

  /// The body of the HttpServer handler
  /// ([&](const HttpRequest& r, HttpResponseSender respond) {
  ///   frontend.HandleAsync(r, std::move(respond)); }).
  /// /v1/estimate goes through the coalescer (when attached) or the
  /// service's asynchronous SubmitBatch, so the calling I/O thread never
  /// waits on another thread's estimation; a small batch (at most
  /// kInlineBatchMaxItems work items) is estimated on the I/O thread itself
  /// — before this returns without a coalescer, at the end of the loop's
  /// pass with one, when the pass read no other request. `respond` is
  /// invoked exactly once, possibly from another thread. Every other route
  /// is answered inline via Handle(). The response bytes are identical to
  /// Handle()'s for the same request.
  void HandleAsync(const HttpRequest& request,
                   std::function<void(HttpResponse)> respond) const;

  /// Optional: lets /metrics include the server's own request/connection
  /// counters. Call after constructing the server; null to detach.
  void set_http_server(const HttpServer* server) { http_server_ = server; }

  /// Optional: routes HandleAsync estimate submissions through `coalescer`
  /// (which must wrap the same service and outlive the frontend) and adds
  /// the coalescing families to /metrics. Null to detach. Applies to the
  /// default tenant only; a TenantManager's tenants carry their own.
  void set_coalescer(BatchCoalescer* coalescer) { coalescer_ = coalescer; }

  /// Optional: enables POST /v1/observe and the durability metrics. The
  /// trainer must outlive the frontend; null (the default) answers observe
  /// requests with 503. Applies to the default tenant only.
  void set_trainer(IncrementalTrainer* trainer) { trainer_ = trainer; }

  /// Optional: multi-tenant routing. When set, every estimate/observe/
  /// healthz request resolves its tenant against `manager` (404 for
  /// unknown ids) and the constructor-provided service plus the
  /// set_coalescer/set_trainer seams are ignored in favor of each tenant's
  /// own. The manager must outlive the frontend; null to detach.
  void set_tenant_manager(TenantManager* manager) { tenants_ = manager; }

 private:
  /// One request's resolved tenant universe (pointers into the manager's
  /// Tenant, or the frontend's single-tenant members).
  struct RoutedTenant {
    std::string id;
    std::string model_name;
    const EstimationService* service = nullptr;
    BatchCoalescer* coalescer = nullptr;
    IncrementalTrainer* trainer = nullptr;
  };

  /// Resolves the request's tenant from the X-Resest-Tenant header and the
  /// body's "tenant" field (`body_tenant`, empty when absent). False =>
  /// *error_response holds the 400/404 to return.
  bool RouteTenant(const HttpRequest& request, const std::string& body_tenant,
                   RoutedTenant* out, HttpResponse* error_response) const;

  HttpResponse HandleEstimate(const HttpRequest& request) const;
  HttpResponse HandleObserve(const HttpRequest& request) const;
  HttpResponse HandleHealthz(const HttpRequest& request) const;
  HttpResponse HandleMetrics() const;
  HttpResponse HandleTenants() const;
  /// The tenant snapshots /metrics and /v1/tenants render: the manager's,
  /// or a synthesized default-tenant entry in single-tenant mode.
  std::vector<TenantStats> TenantSnapshots() const;

  const EstimationService* service_;
  const ModelRegistry* registry_;
  std::string model_name_;
  const HttpServer* http_server_ = nullptr;
  BatchCoalescer* coalescer_ = nullptr;
  IncrementalTrainer* trainer_ = nullptr;
  TenantManager* tenants_ = nullptr;
};

}  // namespace resest

#endif  // RESEST_SERVER_SERVING_FRONTEND_H_
