// JSON <-> service translation for POST /v1/estimate: parses a wire batch
// into EstimateRequests plus SubmitOptions, and formats EstimateResults
// back into the response body. Kept free of socket code so the tests can
// exercise the wire contract without a server.
//
// Request body (docs/wire_api.md has the full contract):
//
//   {
//     "priority": "urgent" | "normal" | "bulk",   // optional, default normal
//     "deadline_ms": 250,                          // optional, > 0
//     "tenant": "analytics",                       // optional, default tenant
//     "requests": [
//       {"op": "TableScan", "resource": "CPU", "features": [1e4, 8.0, ...]},
//       ...
//     ]
//   }
//
// `features` is an array of at most kNumFeatures numbers; omitted trailing
// positions are zero (matching a default-constructed FeatureVector).
// Parsing is strict: `requests` must be non-empty and unknown fields are
// rejected rather than silently ignored, so client typos fail loudly.
//
// Response body:
//
//   {
//     "model_version": 3,                          // of the first result
//     "results": [
//       {"status": "OK", "value": 123.5, "model_version": 3},
//       ...
//     ]
//   }
//
// Values are printed in shortest round-trip form (std::to_chars), so a
// client parsing them with strtod recovers bit-identical doubles — the HTTP
// surface keeps the service's bit-identity contract.
#ifndef RESEST_SERVER_WIRE_API_H_
#define RESEST_SERVER_WIRE_API_H_

#include <string>
#include <vector>

#include "src/server/json.h"
#include "src/serving/estimation_service.h"
#include "src/training/incremental_trainer.h"

namespace resest {

/// Parses a raw POST /v1/estimate body in one strict pass on the JSON
/// lexer (JsonCursor), with no JsonValue tree. On success fills *requests
/// (every entry operator-based), *options and, when non-null, *tenant (the
/// optional "tenant" field, cleared when absent; routing and validation are
/// the caller's job). On failure returns false with a client-actionable
/// message in *error and leaves the outputs unspecified:
///  - a body that is not valid JSON reports "malformed JSON: " plus the
///    lexer's byte-offset message, whatever else is wrong with it;
///  - otherwise the first contract error in document order is reported.
/// A duplicate key means the last one wins. A `deadline_ms` is converted to
/// an absolute steady-clock deadline at parse time, so queueing delay
/// counts against it — same as an in-process caller computing the deadline
/// before submitting. One past the clock's range clamps to its latest
/// instant.
bool ParseEstimateWireRequest(const std::string& body,
                              std::vector<EstimateRequest>* requests,
                              SubmitOptions* options, std::string* tenant,
                              std::string* error);

/// Formats the response body for a completed batch (one result per request,
/// in request order).
std::string FormatEstimateWireResponse(
    const std::vector<EstimateResult>& results);

/// The HTTP status for a completed batch: 200 when any result is OK (the
/// body carries per-result statuses), otherwise the mapped code of the
/// failure — which is uniform for whole-batch failures (oversized,
/// no model, expired at submit). An empty batch is 200.
int EstimateWireHttpStatus(const std::vector<EstimateResult>& results);

/// Formats the error body `{"error": "..."}` used for 4xx responses.
std::string FormatWireError(const std::string& message);

/// One observation row from POST /v1/observe — the feedback edge over HTTP.
/// Body shape (same strictness rules as /v1/estimate, including the
/// optional top-level "tenant" field):
///
///   {
///     "tenant": "analytics",                       // optional
///     "observations": [
///       {"op": "TableScan", "resource": "CPU",
///        "features": [1e4, 8.0, ...], "label": 1234.5},
///       ...
///     ]
///   }
/// A decoded row is the trainer's own row type, so a batch reaches
/// IncrementalTrainer::Append without a copy.
using ObserveWireRow = ObservationRow;

/// Parses the body of POST /v1/observe. On failure returns false with a
/// client-actionable message in *error; *rows is unspecified then. When
/// `tenant` is non-null it receives the optional "tenant" field (cleared
/// when absent).
bool ParseObserveWireBatch(const JsonValue& body,
                           std::vector<ObserveWireRow>* rows,
                           std::string* error,
                           std::string* tenant = nullptr);

/// Formats the response body `{"accepted": N, "model_version": V}`.
std::string FormatObserveWireResponse(size_t accepted, uint64_t model_version);

}  // namespace resest

#endif  // RESEST_SERVER_WIRE_API_H_
