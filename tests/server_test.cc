// Tests for src/server: the JSON round-trip layer, the wire-stable status
// taxonomy, the Prometheus exposition, the HTTP server's parse/limit/drain
// contracts, and the loopback integration of resest_server's front end —
// including the core promise that estimates served over HTTP are
// bit-identical to calling EstimationService::EstimateBatch directly, and
// that SIGTERM drains the real binary with zero dropped responses.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "gtest/gtest.h"
#include "src/common/shutdown.h"
#include "src/common/thread_pool.h"
#include "src/server/http_client.h"
#include "src/server/http_server.h"
#include "src/server/json.h"
#include "src/server/prometheus_writer.h"
#include "src/server/serving_frontend.h"
#include "src/server/wire_api.h"
#include "src/serving/batch_coalescer.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/storage/recovery.h"
#include "src/storage/wal.h"
#include "src/workload/runner.h"
#include "src/workload/schemas.h"
#include "src/workload/tpch_queries.h"

namespace resest {
namespace {

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

JsonValue MustParse(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(JsonValue::Parse(text, &v, &error)) << error;
  return v;
}

TEST(JsonTest, ParsesPrimitivesAndContainers) {
  const JsonValue v = MustParse(
      " {\"a\": [1, -2.5e2, true, false, null], \"b\": {\"c\": \"hi\"}} ");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items().size(), 5u);
  EXPECT_EQ(a->items()[0].as_number(), 1.0);
  EXPECT_EQ(a->items()[1].as_number(), -250.0);
  EXPECT_TRUE(a->items()[2].as_bool());
  EXPECT_FALSE(a->items()[3].as_bool());
  EXPECT_TRUE(a->items()[4].is_null());
  const JsonValue* b = v.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_object());
  EXPECT_EQ(b->Find("c")->as_string(), "hi");
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonTest, DuplicateKeysResolveToLastOccurrence) {
  const JsonValue v = MustParse("{\"k\": 1, \"k\": 2}");
  EXPECT_EQ(v.Find("k")->as_number(), 2.0);
}

TEST(JsonTest, DecodesEscapesIncludingSurrogatePairs) {
  const JsonValue v =
      MustParse("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\\ud83d\\ude00\"");
  // \u0041 = 'A', \u00e9 = é (2 UTF-8 bytes), surrogate pair = 😀 (4 bytes).
  EXPECT_EQ(v.as_string(), std::string("a\"b\\c\n\tA\xc3\xa9\xf0\x9f\x98\x80"));
}

TEST(JsonTest, RejectsMalformedInputWithPositionTaggedError) {
  JsonValue v;
  std::string error;
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "01", "1.", "\"\\x\"",
        "\"unterminated", "{\"a\":1} trailing", "[1 2]", "nan"}) {
    EXPECT_FALSE(JsonValue::Parse(bad, &v, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonTest, RejectsExcessiveNestingDepth) {
  std::string deep(kMaxJsonDepth + 1, '[');
  deep += std::string(kMaxJsonDepth + 1, ']');
  JsonValue v;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(deep, &v, &error));
  // One level under the cap parses.
  std::string ok(kMaxJsonDepth, '[');
  ok += std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(JsonValue::Parse(ok, &v, &error)) << error;
}

TEST(JsonTest, NumberFormattingRoundTripsExactBits) {
  const double values[] = {0.0,          -0.0,     1.0 / 3.0,
                           1e-308,       1.7e308,  123456.789,
                           -0.1,         2.5e-17,  3.141592653589793};
  for (double value : values) {
    std::string text;
    AppendJsonNumber(value, &text);
    const JsonValue parsed = MustParse(text);
    ASSERT_TRUE(parsed.is_number()) << text;
    const double back = parsed.as_number();
    EXPECT_EQ(std::memcmp(&value, &back, sizeof(double)), 0)
        << text << " -> " << back;
  }
  // Non-finite values are unrepresentable and become null.
  std::string text;
  AppendJsonNumber(std::numeric_limits<double>::infinity(), &text);
  EXPECT_EQ(text, "null");
}

TEST(JsonTest, StringEscapingRoundTrips) {
  const std::string original = "quote\" backslash\\ newline\n tab\t ctrl\x01";
  std::string text;
  AppendJsonString(original, &text);
  EXPECT_EQ(MustParse(text).as_string(), original);
}

// ---------------------------------------------------------------------------
// EstimateStatus wire taxonomy
// ---------------------------------------------------------------------------

static_assert(kNumEstimateStatuses == 6,
              "new EstimateStatus enumerators need name + HTTP code table "
              "entries and doc updates (docs/wire_api.md)");

TEST(EstimateStatusTest, EveryEnumeratorRoundTripsThroughItsName) {
  for (size_t i = 0; i < kNumEstimateStatuses; ++i) {
    const EstimateStatus s = static_cast<EstimateStatus>(i);
    const std::string name = EstimateStatusName(s);
    EXPECT_NE(name, "UNKNOWN") << i;
    EstimateStatus back = EstimateStatus::kNumEstimateStatuses;
    ASSERT_TRUE(ParseEstimateStatus(name, &back)) << name;
    EXPECT_EQ(back, s) << name;
  }
}

TEST(EstimateStatusTest, NamesAreUnique) {
  for (size_t i = 0; i < kNumEstimateStatuses; ++i) {
    for (size_t j = i + 1; j < kNumEstimateStatuses; ++j) {
      EXPECT_STRNE(EstimateStatusName(static_cast<EstimateStatus>(i)),
                   EstimateStatusName(static_cast<EstimateStatus>(j)));
    }
  }
}

TEST(EstimateStatusTest, HttpCodeTableIsStable) {
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kOk), 200);
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kModelNotFound), 503);
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kInvalidRequest), 400);
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kBatchTooLarge), 413);
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kInternalError), 500);
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kDeadlineExceeded), 504);
  // Out-of-range values degrade to 500, never to a bogus code.
  EXPECT_EQ(EstimateStatusHttpCode(EstimateStatus::kNumEstimateStatuses), 500);
}

TEST(EstimateStatusTest, RejectsUnknownNames) {
  EstimateStatus s;
  EXPECT_FALSE(ParseEstimateStatus("", &s));
  EXPECT_FALSE(ParseEstimateStatus("ok", &s));  // names are case-sensitive
  EXPECT_FALSE(ParseEstimateStatus("UNKNOWN", &s));
}

// ---------------------------------------------------------------------------
// Enum name parsers used by the wire API
// ---------------------------------------------------------------------------

TEST(WireNamesTest, OpTypeRoundTripsAndRejectsUnknown) {
  for (int i = 0; i < kNumOpTypes; ++i) {
    const OpType op = static_cast<OpType>(i);
    OpType back;
    ASSERT_TRUE(ParseOpType(OpTypeName(op), &back)) << OpTypeName(op);
    EXPECT_EQ(back, op);
  }
  OpType op;
  EXPECT_FALSE(ParseOpType("tablescan", &op));  // case-sensitive
  EXPECT_FALSE(ParseOpType("Unknown", &op));
}

TEST(WireNamesTest, ResourceParsesCaseInsensitively) {
  Resource r;
  ASSERT_TRUE(ParseResource("CPU", &r));
  EXPECT_EQ(r, Resource::kCpu);
  ASSERT_TRUE(ParseResource("cpu", &r));
  EXPECT_EQ(r, Resource::kCpu);
  ASSERT_TRUE(ParseResource("io", &r));
  EXPECT_EQ(r, Resource::kIo);
  EXPECT_FALSE(ParseResource("disk", &r));
}

TEST(WireNamesTest, TaskPriorityRoundTrips) {
  for (size_t i = 0; i < kNumTaskPriorities; ++i) {
    const TaskPriority p = static_cast<TaskPriority>(static_cast<int>(i));
    TaskPriority back;
    ASSERT_TRUE(ParseTaskPriority(TaskPriorityName(p), &back));
    EXPECT_EQ(back, p);
  }
  TaskPriority p;
  EXPECT_FALSE(ParseTaskPriority("URGENT", &p));
}

// ---------------------------------------------------------------------------
// Prometheus writer
// ---------------------------------------------------------------------------

TEST(PrometheusWriterTest, EmitsHelpTypeAndLabeledSamples) {
  PrometheusWriter w;
  w.BeginFamily("x_total", "Help text.", "counter");
  w.Sample("x_total", {}, uint64_t{7});
  w.Sample("x_total", {{"lane", "a\"b\\c\nd"}}, uint64_t{9});
  const std::string& text = w.text();
  EXPECT_NE(text.find("# HELP x_total Help text.\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE x_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("\nx_total 7\n"), std::string::npos);
  // Label values escape backslash, quote, and newline.
  EXPECT_NE(text.find("x_total{lane=\"a\\\"b\\\\c\\nd\"} 9\n"),
            std::string::npos);
}

TEST(PrometheusWriterTest, HistogramCumulatesBucketsAndAppendsInf) {
  PrometheusWriter w;
  w.BeginFamily("lat", "Latency.", "histogram");
  // Non-cumulative counts 1, 2, 0 with 5 total observations: the +Inf
  // bucket must equal the count even when the finite buckets undercount
  // (the service's last bucket absorbs overflow).
  w.Histogram("lat", {{"p", "x"}}, {0.001, 0.002, 0.004}, {1, 2, 0}, 0.25, 5);
  const std::string& text = w.text();
  EXPECT_NE(text.find("lat_bucket{p=\"x\",le=\"0.001\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{p=\"x\",le=\"0.002\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{p=\"x\",le=\"0.004\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{p=\"x\",le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_sum{p=\"x\"} 0.25\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count{p=\"x\"} 5\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Wire API parse/format (socket-free)
// ---------------------------------------------------------------------------

FeatureVector TestFeatures(int salt) {
  FeatureVector features{};
  for (int f = 0; f < kNumFeatures; ++f) {
    features[static_cast<size_t>(f)] =
        1.0 + static_cast<double>(salt) * 3.7 + static_cast<double>(f) * 0.91;
  }
  return features;
}

std::string WireBatchBody(const std::vector<EstimateRequest>& requests,
                          const std::string& priority,
                          double deadline_ms = 0.0) {
  std::string body = "{";
  if (!priority.empty()) body += "\"priority\":\"" + priority + "\",";
  if (deadline_ms > 0.0) {
    body += "\"deadline_ms\":";
    AppendJsonNumber(deadline_ms, &body);
    body += ",";
  }
  body += "\"requests\":[";
  for (size_t i = 0; i < requests.size(); ++i) {
    if (i > 0) body += ',';
    body += "{\"op\":\"";
    body += OpTypeName(requests[i].op);
    body += "\",\"resource\":\"";
    body += ResourceName(requests[i].resource);
    body += "\",\"features\":[";
    for (int f = 0; f < kNumFeatures; ++f) {
      if (f > 0) body += ',';
      AppendJsonNumber(requests[i].features[static_cast<size_t>(f)], &body);
    }
    body += "]}";
  }
  body += "]}";
  return body;
}

TEST(WireApiTest, ParsesBatchWithPriorityAndDeadline) {
  std::vector<EstimateRequest> original;
  original.push_back(EstimateRequest::ForOperator(OpType::kHashJoin,
                                                  TestFeatures(1),
                                                  Resource::kIo));
  original.push_back(EstimateRequest::ForOperator(OpType::kTableScan,
                                                  TestFeatures(2),
                                                  Resource::kCpu));
  const JsonValue body =
      MustParse(WireBatchBody(original, "urgent", /*deadline_ms=*/1000.0));
  std::vector<EstimateRequest> requests;
  SubmitOptions options;
  std::string error;
  ASSERT_TRUE(ParseEstimateWireBatch(body, &requests, &options, &error))
      << error;
  EXPECT_EQ(options.priority, TaskPriority::kUrgent);
  EXPECT_TRUE(options.has_deadline());
  ASSERT_EQ(requests.size(), 2u);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(requests[i].has_features);
    EXPECT_EQ(requests[i].op, original[i].op);
    EXPECT_EQ(requests[i].resource, original[i].resource);
    EXPECT_EQ(std::memcmp(requests[i].features.data(),
                          original[i].features.data(),
                          sizeof(FeatureVector)),
              0);
  }
}

TEST(WireApiTest, DefaultsToNormalPriorityWithoutDeadline) {
  const JsonValue body = MustParse(
      "{\"requests\":[{\"op\":\"Sort\",\"resource\":\"cpu\","
      "\"features\":[1,2]}]}");
  std::vector<EstimateRequest> requests;
  SubmitOptions options;
  std::string error;
  ASSERT_TRUE(ParseEstimateWireBatch(body, &requests, &options, &error))
      << error;
  EXPECT_EQ(options.priority, TaskPriority::kNormal);
  EXPECT_FALSE(options.has_deadline());
  ASSERT_EQ(requests.size(), 1u);
  // Omitted trailing features are zero.
  EXPECT_EQ(requests[0].features[0], 1.0);
  EXPECT_EQ(requests[0].features[1], 2.0);
  EXPECT_EQ(requests[0].features[2], 0.0);
}

TEST(WireApiTest, RejectsEachMalformedField) {
  const struct {
    const char* body;
    const char* what;
  } cases[] = {
      {"[]", "not an object"},
      {"{\"requests\": 3}", "requests not array"},
      {"{\"requests\": []}", "empty requests array"},
      {"{\"dead_line_ms\": 5, \"requests\": [{\"op\":\"Sort\","
       "\"resource\":\"CPU\",\"features\":[]}]}",
       "unknown top-level field"},
      {"{\"requests\": [{\"op\":\"Sort\",\"resource\":\"CPU\","
       "\"features\":[],\"weight\":2}]}",
       "unknown request field"},
      {"{\"priority\": \"high\", \"requests\": []}", "bad priority"},
      {"{\"deadline_ms\": -1, \"requests\": []}", "negative deadline"},
      {"{\"deadline_ms\": \"soon\", \"requests\": []}", "non-number deadline"},
      {"{\"requests\": [5]}", "non-object request"},
      {"{\"requests\": [{\"resource\":\"CPU\",\"features\":[]}]}", "no op"},
      {"{\"requests\": [{\"op\":\"NoSuchOp\",\"resource\":\"CPU\","
       "\"features\":[]}]}",
       "bad op"},
      {"{\"requests\": [{\"op\":\"Sort\",\"resource\":\"RAM\","
       "\"features\":[]}]}",
       "bad resource"},
      {"{\"requests\": [{\"op\":\"Sort\",\"resource\":\"CPU\"}]}",
       "missing features"},
      {"{\"requests\": [{\"op\":\"Sort\",\"resource\":\"CPU\","
       "\"features\":[true]}]}",
       "non-number feature"},
  };
  for (const auto& c : cases) {
    std::vector<EstimateRequest> requests;
    SubmitOptions options;
    std::string error;
    ASSERT_FALSE(ParseEstimateWireBatch(MustParse(c.body), &requests, &options,
                                        &error))
        << c.what;
    EXPECT_FALSE(error.empty()) << c.what;
  }
  // Too many features (kNumFeatures + 1 entries).
  std::string long_features = "{\"requests\":[{\"op\":\"Sort\","
                              "\"resource\":\"CPU\",\"features\":[0";
  for (int i = 0; i < kNumFeatures; ++i) long_features += ",0";
  long_features += "]}]}";
  std::vector<EstimateRequest> requests;
  SubmitOptions options;
  std::string error;
  ASSERT_FALSE(ParseEstimateWireBatch(MustParse(long_features), &requests,
                                      &options, &error));
}

TEST(WireApiTest, ResponseBodyRoundTripsStatusAndExactValueBits) {
  std::vector<EstimateResult> results(3);
  results[0].status = EstimateStatus::kOk;
  results[0].value = 1.0 / 3.0;
  results[0].model_version = 4;
  results[1].status = EstimateStatus::kDeadlineExceeded;
  results[1].value = 0.0;
  results[1].model_version = 4;
  results[2].status = EstimateStatus::kOk;
  results[2].value = 2.5e-17;
  results[2].model_version = 4;

  const JsonValue body = MustParse(FormatEstimateWireResponse(results));
  EXPECT_EQ(body.Find("model_version")->as_number(), 4.0);
  const JsonValue* parsed = body.Find("results");
  ASSERT_NE(parsed, nullptr);
  ASSERT_EQ(parsed->items().size(), results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const JsonValue& item = parsed->items()[i];
    EstimateStatus status;
    ASSERT_TRUE(
        ParseEstimateStatus(item.Find("status")->as_string(), &status));
    EXPECT_EQ(status, results[i].status);
    const double value = item.Find("value")->as_number();
    EXPECT_EQ(std::memcmp(&value, &results[i].value, sizeof(double)), 0);
    EXPECT_EQ(item.Find("model_version")->as_number(), 4.0);
  }
}

TEST(WireApiTest, BatchHttpStatusReflectsUniformFailuresOnly) {
  EXPECT_EQ(EstimateWireHttpStatus({}), 200);
  std::vector<EstimateResult> results(2);
  EXPECT_EQ(EstimateWireHttpStatus(results), 200);  // all OK
  results[0].status = EstimateStatus::kDeadlineExceeded;
  EXPECT_EQ(EstimateWireHttpStatus(results), 200);  // partial success
  results[1].status = EstimateStatus::kDeadlineExceeded;
  EXPECT_EQ(EstimateWireHttpStatus(results), 504);  // uniform failure
  for (auto& r : results) r.status = EstimateStatus::kBatchTooLarge;
  EXPECT_EQ(EstimateWireHttpStatus(results), 413);
  for (auto& r : results) r.status = EstimateStatus::kModelNotFound;
  EXPECT_EQ(EstimateWireHttpStatus(results), 503);
}

// ---------------------------------------------------------------------------
// Fast-path wire parser: ParseEstimateWireRequest promises observational
// equivalence with JsonValue::Parse + ParseEstimateWireBatch — same
// accept/reject verdict, same error text, same parsed values — whether a
// body takes the single-pass scanner or falls back to the tree.
// ---------------------------------------------------------------------------

void ExpectWireParseEquivalent(const std::string& body) {
  std::vector<EstimateRequest> fast_requests;
  SubmitOptions fast_options;
  std::string fast_tenant = "stale";
  std::string fast_error;
  const bool fast_ok = ParseEstimateWireRequest(
      body, &fast_requests, &fast_options, &fast_tenant, &fast_error);

  std::vector<EstimateRequest> tree_requests;
  SubmitOptions tree_options;
  std::string tree_tenant = "stale";
  std::string tree_error;
  bool tree_ok = false;
  JsonValue tree;
  std::string syntax_error;
  if (!JsonValue::Parse(body, &tree, &syntax_error)) {
    tree_error = "malformed JSON: " + syntax_error;
  } else {
    tree_ok = ParseEstimateWireBatch(tree, &tree_requests, &tree_options,
                                     &tree_error, &tree_tenant);
  }

  EXPECT_EQ(fast_ok, tree_ok) << body;
  if (!fast_ok || !tree_ok) {
    EXPECT_EQ(fast_error, tree_error) << body;
    return;
  }
  EXPECT_EQ(fast_tenant, tree_tenant) << body;
  EXPECT_EQ(fast_options.priority, tree_options.priority) << body;
  // Deadlines are converted to absolute time at parse time, so two parses
  // differ by the call gap; only presence is comparable.
  EXPECT_EQ(fast_options.has_deadline(), tree_options.has_deadline()) << body;
  ASSERT_EQ(fast_requests.size(), tree_requests.size()) << body;
  for (size_t i = 0; i < fast_requests.size(); ++i) {
    EXPECT_EQ(fast_requests[i].op, tree_requests[i].op) << body;
    EXPECT_EQ(fast_requests[i].resource, tree_requests[i].resource) << body;
    EXPECT_EQ(std::memcmp(fast_requests[i].features.data(),
                          tree_requests[i].features.data(),
                          sizeof(FeatureVector)),
              0)
        << body << " request " << i;
  }
}

TEST(WireApiTest, FastPathParserMatchesTreeParserOnHotShapes) {
  // The shapes clients actually send: every combination the scanner claims
  // to handle without the tree, with awkward-but-valid numbers.
  const auto requests = [](int n, int salt) {
    std::vector<EstimateRequest> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(EstimateRequest::ForOperator(
          static_cast<OpType>((i + salt) % kNumOpTypes), TestFeatures(i),
          i % 2 == 0 ? Resource::kCpu : Resource::kIo));
    }
    return out;
  };
  ExpectWireParseEquivalent(WireBatchBody(requests(1, 0), ""));
  ExpectWireParseEquivalent(WireBatchBody(requests(8, 3), "urgent"));
  ExpectWireParseEquivalent(WireBatchBody(requests(64, 5), "bulk", 250.0));
  ExpectWireParseEquivalent(
      "{\"tenant\":\"alpha\",\"requests\":[{\"op\":\"Sort\","
      "\"resource\":\"CPU\",\"features\":[1e-308,2.5e17,-0.0,3]}]}");
  ExpectWireParseEquivalent(
      " { \"priority\" : \"normal\" , \"deadline_ms\" : 1.5e3 , "
      "\"requests\" : [ { \"op\" : \"HashJoin\" , \"resource\" : \"IO\" , "
      "\"features\" : [ ] } ] } ");
  ExpectWireParseEquivalent(
      "{\"requests\":[{\"features\":[1,2],\"resource\":\"io\","
      "\"op\":\"TableScan\"}],\"tenant\":\"t-1.x_2\"}");
}

TEST(WireApiTest, FastPathParserMatchesTreeParserOnRejectsAndFallbacks) {
  const char* bodies[] = {
      // Syntax errors: identical "malformed JSON: ..." diagnostics.
      "", "{", "{\"requests\":[}", "nan", "{\"requests\":[]} trailing",
      "{\"requests\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[01]}]}",
      // Wire-contract errors (tree-path diagnostics, byte for byte).
      "[]", "3", "{\"requests\": 3}", "{\"requests\": []}",
      "{\"dead_line_ms\": 5, \"requests\":"
      " [{\"op\":\"Sort\",\"resource\":\"CPU\",\"features\":[]}]}",
      "{\"priority\": \"high\", \"requests\": []}",
      "{\"priority\": 7, \"requests\": []}",
      "{\"deadline_ms\": -1, \"requests\": []}",
      "{\"deadline_ms\": \"soon\", \"requests\": []}",
      "{\"tenant\": 9, \"requests\":"
      " [{\"op\":\"Sort\",\"resource\":\"CPU\",\"features\":[]}]}",
      "{\"requests\": [5]}",
      "{\"requests\": [{\"resource\":\"CPU\",\"features\":[]}]}",
      "{\"requests\": [{\"op\":\"NoSuchOp\",\"resource\":\"CPU\","
      "\"features\":[]}]}",
      "{\"requests\": [{\"op\":\"Sort\",\"resource\":\"RAM\","
      "\"features\":[]}]}",
      "{\"requests\": [{\"op\":\"Sort\",\"resource\":\"CPU\"}]}",
      "{\"requests\": [{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[true]}]}",
      "{\"requests\": [{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[],\"weight\":2}]}",
      // Valid JSON the scanner bails on (escapes, duplicate keys, unicode):
      // must still parse identically via the tree.
      "{\"priority\":\"bulk\",\"priority\":\"urgent\",\"requests\":"
      "[{\"op\":\"Sort\",\"resource\":\"CPU\",\"features\":[1]}]}",
      "{\"tenant\":\"\\u0061lpha\",\"requests\":"
      "[{\"op\":\"Sort\",\"resource\":\"CPU\",\"features\":[1]}]}",
      "{\"requests\":[{\"op\":\"So\\u0072t\",\"resource\":\"CPU\","
      "\"features\":[1]}]}",
  };
  for (const char* body : bodies) ExpectWireParseEquivalent(body);

  // Feature overflow (kNumFeatures + 1): rejected on both paths.
  std::string long_features =
      "{\"requests\":[{\"op\":\"Sort\",\"resource\":\"CPU\",\"features\":[0";
  for (int i = 0; i < kNumFeatures; ++i) long_features += ",0";
  long_features += "]}]}";
  ExpectWireParseEquivalent(long_features);
}

TEST(WireApiTest, FarDeadlinesStayInTheFutureOnBothParsePaths) {
  // 1e13 ms overflows the clock's int64 nanoseconds and 1e300 ms the
  // double-to-int64 conversion: both must clamp to a far deadline rather
  // than wrap into the past and expire the batch on arrival.
  auto db = GenerateDatabase(TpchSchema(), 0.1, 1.0, 42);
  Rng rng(7);
  const auto workload =
      RunWorkload(db.get(), GenerateTpchWorkload(10, &rng, db.get()));
  TrainOptions train;
  train.mart.num_trees = 3;
  ModelRegistry registry;
  registry.Publish("default", std::make_shared<const ResourceEstimator>(
                                  ResourceEstimator::Train(workload, train)));
  ThreadPool pool(2);
  EstimationService service(&registry, &pool);

  const std::string requests =
      "\"requests\":[{\"op\":\"Sort\",\"resource\":\"CPU\","
      "\"features\":[1,2]}]}";
  for (const std::string ms : {"1e13", "1e300"}) {
    // The plain body takes the fast scanner; the escaped tenant sends the
    // second through the tree parser.
    const std::string fast = "{\"deadline_ms\":" + ms + "," + requests;
    const std::string tree =
        "{\"tenant\":\"t\\u0031\",\"deadline_ms\":" + ms + "," + requests;
    for (const std::string& body : {fast, tree}) {
      std::vector<EstimateRequest> parsed;
      SubmitOptions options;
      std::string tenant;
      std::string error;
      ASSERT_TRUE(
          ParseEstimateWireRequest(body, &parsed, &options, &tenant, &error))
          << body << ": " << error;
      EXPECT_TRUE(options.has_deadline()) << body;
      EXPECT_GT(options.deadline, std::chrono::steady_clock::now()) << body;
      const std::vector<EstimateResult> results =
          service.EstimateBatch(parsed, options);
      ASSERT_EQ(results.size(), 1u);
      EXPECT_EQ(results[0].status, EstimateStatus::kOk) << body;
    }
  }
}

// ---------------------------------------------------------------------------
// ShutdownLatch (programmatic paths; signal delivery is covered by the
// subprocess SIGTERM test below)
// ---------------------------------------------------------------------------

TEST(ShutdownLatchTest, TriggerTripsWaitersAndResetRearms) {
  ShutdownLatch::Reset();
  EXPECT_FALSE(ShutdownLatch::Requested());
  EXPECT_FALSE(ShutdownLatch::WaitFor(std::chrono::milliseconds(10)));
  std::thread trip([]() { ShutdownLatch::Trigger(); });
  ShutdownLatch::Wait();
  trip.join();
  EXPECT_TRUE(ShutdownLatch::Requested());
  EXPECT_EQ(ShutdownLatch::Signal(), SIGTERM);
  EXPECT_TRUE(ShutdownLatch::WaitFor(std::chrono::milliseconds(0)));
  ShutdownLatch::Reset();
  EXPECT_FALSE(ShutdownLatch::Requested());
  EXPECT_EQ(ShutdownLatch::Signal(), 0);
}

// ---------------------------------------------------------------------------
// HttpServer transport contracts (trivial handlers, no service)
// ---------------------------------------------------------------------------

/// A raw loopback connection with split send/read, for tests that must
/// control exactly when bytes hit the server (drain races, malformed
/// request lines).
struct RawConn {
  int fd = -1;

  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  bool Connect(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool SendAll(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one full HTTP response (headers + Content-Length body); returns
  /// the status code, or 0 on transport failure.
  int ReadResponse(std::string* body = nullptr) {
    std::string buffer;
    size_t header_end;
    while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return 0;
      buffer.append(chunk, static_cast<size_t>(n));
    }
    int status = 0;
    std::sscanf(buffer.c_str(), "HTTP/1.1 %d", &status);
    size_t content_length = 0;
    const size_t cl = buffer.find("Content-Length:");
    if (cl != std::string::npos && cl < header_end) {
      content_length = static_cast<size_t>(
          std::strtoull(buffer.c_str() + cl + 15, nullptr, 10));
    }
    while (buffer.size() < header_end + 4 + content_length) {
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return 0;
      buffer.append(chunk, static_cast<size_t>(n));
    }
    if (body != nullptr) {
      *body = buffer.substr(header_end + 4, content_length);
    }
    return status;
  }
};

HttpServerOptions FastPollOptions() {
  HttpServerOptions options;
  options.poll_interval_ms = 5;  // keep drain/idle latency low in tests
  return options;
}

TEST(HttpServerTest, ServesKeepAliveRequestsAndEchoesBodies) {
  HttpServer server(
      [](const HttpRequest& request, HttpResponseSender respond) {
        HttpResponse response;
        response.body = request.method + " " + request.target + " q=" +
                        request.query + " body=" + request.body;
        respond(std::move(response));
      },
      FastPollOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  HttpClientResponse response;
  ASSERT_TRUE(client.Get("/a/b?x=1", &response, &error)) << error;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "GET /a/b q=x=1 body=");
  // Second request on the same kept-alive connection.
  ASSERT_TRUE(client.Post("/echo", "payload", &response, &error)) << error;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "POST /echo q= body=payload");
  EXPECT_EQ(server.requests_served(), 2u);
  server.Stop();
}

TEST(HttpServerTest, RejectsOversizedBodyWithoutInvokingHandler) {
  std::atomic<int> handler_calls{0};
  HttpServerOptions options = FastPollOptions();
  options.max_body_bytes = 64;
  HttpServer server(
      [&handler_calls](const HttpRequest&, HttpResponseSender respond) {
        handler_calls.fetch_add(1);
        respond(HttpResponse{});
      },
      options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  HttpClientResponse response;
  ASSERT_TRUE(client.Post("/x", std::string(65, 'a'), &response, &error))
      << error;
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(handler_calls.load(), 0);
  // At the limit passes through.
  ASSERT_TRUE(client.Post("/x", std::string(64, 'a'), &response, &error))
      << error;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(handler_calls.load(), 1);
  server.Stop();
}

TEST(HttpServerTest, RejectsMalformedOrOversizedRequestHead) {
  HttpServer server(
      [](const HttpRequest&, HttpResponseSender respond) {
        respond(HttpResponse{});
      },
      FastPollOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.SendAll("NONSENSE\r\n\r\n"));
    EXPECT_EQ(conn.ReadResponse(), 400);
  }
  {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.SendAll(
        "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"));
    EXPECT_EQ(conn.ReadResponse(), 400);
  }
  {
    // Headers past the cap in one write, terminator included, so the
    // server may see the whole block complete in a single read.
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.SendAll("GET /x HTTP/1.1\r\nX-Pad: " +
                             std::string(16 * 1024 + 100, 'a') +
                             "\r\n\r\n"));
    std::string body;
    EXPECT_EQ(conn.ReadResponse(&body), 400);
    EXPECT_EQ(body, "request headers too large\n");
  }
  server.Stop();
}

TEST(HttpServerTest, StopAnswersInFlightRequestBeforeReturning) {
  // The handler keeps the sender instead of answering: the request stays
  // in flight until a helper thread sends it after Stop() has begun.
  std::promise<HttpResponseSender> held;
  HttpServer server(
      [&held](const HttpRequest&, HttpResponseSender respond) {
        held.set_value(std::move(respond));
      },
      FastPollOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  HttpClientResponse response;
  std::string client_error;
  bool ok = false;
  const uint16_t port = server.port();
  std::thread client_thread([&]() {
    HttpClient client;
    ok = client.Connect("127.0.0.1", port, &client_error) &&
         client.Get("/slow", &response, &client_error);
  });
  HttpResponseSender respond = held.get_future().get();  // in the handler

  std::thread stopper([&server]() { server.Stop(); });
  // Stop() must not complete while the response is still owed; give it a
  // moment to (wrongly) finish early, then answer from another thread.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(server.active_connections(), 1u);
  std::thread helper([respond]() {
    HttpResponse response;
    response.body = "done";
    respond(std::move(response));
  });
  helper.join();
  stopper.join();
  client_thread.join();
  ASSERT_TRUE(ok) << client_error;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "done");
  EXPECT_EQ(server.active_connections(), 0u);
}

TEST(HttpServerTest, StopServesBytesDeliveredBeforeDrainBegan) {
  HttpServer server(
      [](const HttpRequest&, HttpResponseSender respond) {
        HttpResponse response;
        response.body = "late";
        respond(std::move(response));
      },
      FastPollOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  // Wait until the connection task exists so Stop() cannot close the
  // listener before the accept.
  while (server.active_connections() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(conn.SendAll("GET /pending HTTP/1.1\r\nHost: x\r\n\r\n"));
  server.Stop();  // bytes are at the socket: must be answered, not dropped
  std::string body;
  EXPECT_EQ(conn.ReadResponse(&body), 200);
  EXPECT_EQ(body, "late");
}

// ---------------------------------------------------------------------------
// Serving front end integration: one trained model shared by the suite.
// ---------------------------------------------------------------------------

class ServerFrontendTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = GenerateDatabase(TpchSchema(), 0.4, 1.0, 42).release();
    Rng rng(7);
    auto queries = GenerateTpchWorkload(50, &rng, db_);
    auto workload = RunWorkload(db_, queries);
    TrainOptions options;
    options.mart.num_trees = 30;  // small models keep the suite fast
    estimator_ = new ResourceEstimator(
        ResourceEstimator::Train(workload, options));
    model_path_ = new std::string(::testing::TempDir() +
                                  "resest_server_test.model");
    ASSERT_TRUE(estimator_->SaveToFile(*model_path_));
  }
  static void TearDownTestSuite() {
    std::remove(model_path_->c_str());
    delete model_path_;
    model_path_ = nullptr;
    delete estimator_;
    estimator_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  void SetUp() override {
    pool_ = std::make_unique<ThreadPool>(4);
    registry_ = std::make_unique<ModelRegistry>();
    // Non-owning alias: the suite owns the estimator.
    registry_->Publish("default",
                       std::shared_ptr<const ResourceEstimator>(
                           estimator_, [](const auto*) {}));
    service_ = std::make_unique<EstimationService>(registry_.get(),
                                                   pool_.get());
    frontend_ = std::make_unique<ServingFrontend>(service_.get(),
                                                  registry_.get(), "default");
  }

  void TearDown() override {
    frontend_.reset();
    service_.reset();
    registry_.reset();
    pool_.reset();
  }

  static std::vector<EstimateRequest> OperatorRequests(int count, int salt) {
    std::vector<EstimateRequest> requests;
    for (int i = 0; i < count; ++i) {
      requests.push_back(EstimateRequest::ForOperator(
          static_cast<OpType>((i + salt) % kNumOpTypes),
          TestFeatures(i + salt),
          i % 2 == 0 ? Resource::kCpu : Resource::kIo));
    }
    return requests;
  }

  static HttpRequest Post(const std::string& target, std::string body) {
    HttpRequest request;
    request.method = "POST";
    request.target = target;
    request.body = std::move(body);
    return request;
  }

  static HttpRequest Get(const std::string& target) {
    HttpRequest request;
    request.method = "GET";
    request.target = target;
    return request;
  }

  /// Extracts the double values of a /v1/estimate response body, asserting
  /// every result has the given status.
  static std::vector<double> ResponseValues(const std::string& body,
                                            EstimateStatus expected_status) {
    const JsonValue parsed = MustParse(body);
    std::vector<double> values;
    const JsonValue* results = parsed.Find("results");
    EXPECT_NE(results, nullptr) << body;
    if (results == nullptr) return values;
    for (const JsonValue& item : results->items()) {
      EstimateStatus status;
      EXPECT_TRUE(
          ParseEstimateStatus(item.Find("status")->as_string(), &status));
      EXPECT_EQ(status, expected_status);
      values.push_back(item.Find("value")->as_number());
    }
    return values;
  }

  /// Body of the coalesced-loopback bit-identity test: concurrent
  /// keep-alive clients with mixed priorities (plus one deadline-carrying
  /// stream, which bypasses the coalescer) through the async server must
  /// produce responses byte-identical to the synchronous solo path.
  void RunCoalescedLoopback() {
    BatchCoalescer coalescer(service_.get(), {});
    frontend_->set_coalescer(&coalescer);
    HttpServer server(
        [this](const HttpRequest& r, HttpResponseSender respond) {
          frontend_->HandleAsync(r, std::move(respond));
        },
        FastPollOptions());
    frontend_->set_http_server(&server);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    const char* priorities[] = {"urgent", "normal", "bulk", "normal"};
    std::vector<std::string> bodies;
    std::vector<std::string> expected;
    for (int c = 0; c < 4; ++c) {
      const std::string body =
          WireBatchBody(OperatorRequests(6 + c, c * 13), priorities[c],
                        /*deadline_ms=*/c == 3 ? 5000.0 : 0.0);
      expected.push_back(frontend_->Handle(Post("/v1/estimate", body)).body);
      bodies.push_back(body);
    }

    constexpr int kRounds = 5;
    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    for (size_t c = 0; c < bodies.size(); ++c) {
      clients.emplace_back([&, c]() {
        HttpClient client;
        std::string cerror;
        if (!client.Connect("127.0.0.1", server.port(), &cerror)) {
          failures.fetch_add(kRounds);
          return;
        }
        for (int round = 0; round < kRounds; ++round) {
          HttpClientResponse response;
          if (!client.Post("/v1/estimate", bodies[c], &response, &cerror) ||
              response.status != 200 || response.body != expected[c]) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);

    const CoalescerStats stats = coalescer.stats();
    EXPECT_EQ(stats.submissions + stats.passthrough,
              static_cast<uint64_t>(bodies.size()) * kRounds);
    // The deadline stream forwarded solo every round; urgent never waited.
    EXPECT_GE(stats.passthrough, static_cast<uint64_t>(kRounds));
    EXPECT_GE(stats.flush_urgent, static_cast<uint64_t>(kRounds));

    // The scrape exposes the connection counters and coalescer families.
    HttpClient scraper;
    ASSERT_TRUE(scraper.Connect("127.0.0.1", server.port(), &error)) << error;
    HttpClientResponse metrics;
    ASSERT_TRUE(scraper.Get("/metrics", &metrics, &error)) << error;
    ASSERT_EQ(metrics.status, 200);
    for (const char* family :
         {"resest_http_connections_accepted_total",
          "resest_http_keepalive_requests_total",
          "resest_coalesce_submissions_total",
          "resest_coalesce_flushes_total{trigger=\"idle\"}",
          "resest_coalesce_flushes_total{trigger=\"chained\"}",
          "resest_coalesce_flushes_total{trigger=\"urgent\"}",
          "resest_coalesce_batch_rows_bucket",
          "resest_coalesce_wait_seconds_count"}) {
      EXPECT_NE(metrics.body.find(family), std::string::npos) << family;
    }
    // Batching has no timed window, so no window trigger is exported.
    EXPECT_EQ(metrics.body.find("trigger=\"window\""), std::string::npos);

    server.Stop();
    EXPECT_EQ(server.active_connections(), 0u);
    frontend_->set_coalescer(nullptr);
  }

  static Database* db_;
  static ResourceEstimator* estimator_;
  static std::string* model_path_;

  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ModelRegistry> registry_;
  std::unique_ptr<EstimationService> service_;
  std::unique_ptr<ServingFrontend> frontend_;
};

Database* ServerFrontendTest::db_ = nullptr;
ResourceEstimator* ServerFrontendTest::estimator_ = nullptr;
std::string* ServerFrontendTest::model_path_ = nullptr;

TEST_F(ServerFrontendTest, OperatorRequestsMatchDirectEstimatorBitForBit) {
  // The unified request API: feature-based requests through the batch
  // pipeline equal ResourceEstimator::EstimateFromFeatures exactly, and the
  // second pass is served by the estimate cache with identical bits.
  const auto requests = OperatorRequests(24, 3);
  for (int pass = 0; pass < 2; ++pass) {
    const auto results = service_->EstimateBatch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(results[i].ok());
      const double direct = estimator_->EstimateFromFeatures(
          requests[i].op, requests[i].features, requests[i].resource);
      EXPECT_EQ(std::memcmp(&results[i].value, &direct, sizeof(double)), 0)
          << "pass " << pass << " request " << i;
    }
  }
  EXPECT_GT(service_->stats().cache_hits, 0u);
}

TEST_F(ServerFrontendTest, EstimateEndpointIsBitIdenticalToDirectCall) {
  const auto requests = OperatorRequests(16, 11);
  const auto direct = service_->EstimateBatch(requests);

  const HttpResponse response = frontend_->Handle(
      Post("/v1/estimate", WireBatchBody(requests, "normal")));
  ASSERT_EQ(response.status, 200) << response.body;
  const std::vector<double> values =
      ResponseValues(response.body, EstimateStatus::kOk);
  ASSERT_EQ(values.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(std::memcmp(&values[i], &direct[i].value, sizeof(double)), 0)
        << "request " << i;
  }
}

TEST_F(ServerFrontendTest, ExpiredDeadlineMapsTo504) {
  const auto requests = OperatorRequests(8, 2);
  // A deadline this tight always passes before submission; the batch is
  // expired whole, which is a uniform failure -> its mapped HTTP code.
  const HttpResponse response = frontend_->Handle(Post(
      "/v1/estimate", WireBatchBody(requests, "bulk", /*deadline_ms=*/1e-4)));
  EXPECT_EQ(response.status, 504) << response.body;
  ResponseValues(response.body, EstimateStatus::kDeadlineExceeded);
  EXPECT_EQ(service_->stats().deadline_expired, requests.size());
}

TEST_F(ServerFrontendTest, MalformedJsonIs400AndNeverTouchesTheService) {
  for (const char* bad :
       {"{not json", "", "[1,2,3]", "{\"requests\": \"nope\"}",
        "{\"requests\": [{\"op\": \"Sort\"}]}"}) {
    const HttpResponse response =
        frontend_->Handle(Post("/v1/estimate", bad));
    EXPECT_EQ(response.status, 400) << bad;
    EXPECT_NE(response.body.find("error"), std::string::npos);
  }
  const ServiceStats stats = service_->stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.requests, 0u);
}

TEST_F(ServerFrontendTest, UnknownRoutesAndMethodsAreRejected) {
  EXPECT_EQ(frontend_->Handle(Get("/nope")).status, 404);
  EXPECT_EQ(frontend_->Handle(Get("/v1/estimate")).status, 405);
  EXPECT_EQ(frontend_->Handle(Post("/healthz", "")).status, 405);
  EXPECT_EQ(frontend_->Handle(Post("/metrics", "")).status, 405);
}

TEST_F(ServerFrontendTest, HealthzReportsActiveModelOr503) {
  const HttpResponse healthy = frontend_->Handle(Get("/healthz"));
  EXPECT_EQ(healthy.status, 200);
  const JsonValue body = MustParse(healthy.body);
  EXPECT_EQ(body.Find("status")->as_string(), "ok");
  EXPECT_GE(body.Find("model_version")->as_number(), 1.0);

  ModelRegistry empty;
  ServingFrontend no_model(service_.get(), &empty, "default");
  EXPECT_EQ(no_model.Handle(Get("/healthz")).status, 503);
}

TEST_F(ServerFrontendTest, NoActiveModelMapsEstimateTo503) {
  ModelRegistry empty;
  EstimationService service(&empty, pool_.get());
  ServingFrontend frontend(&service, &empty, "default");
  const HttpResponse response = frontend.Handle(
      Post("/v1/estimate", WireBatchBody(OperatorRequests(2, 0), "")));
  EXPECT_EQ(response.status, 503) << response.body;
  ResponseValues(response.body, EstimateStatus::kModelNotFound);
}

TEST_F(ServerFrontendTest, MetricsExposeLaneCacheAndModelSeries) {
  // Move some counters first: an urgent batch (with cache hits on the
  // second pass) and a bulk batch.
  const auto requests = OperatorRequests(12, 5);
  SubmitOptions urgent;
  urgent.priority = TaskPriority::kUrgent;
  service_->EstimateBatch(requests, urgent);
  service_->EstimateBatch(requests, urgent);
  SubmitOptions bulk;
  bulk.priority = TaskPriority::kBulk;
  service_->EstimateBatch(OperatorRequests(4, 9), bulk);

  const HttpResponse response = frontend_->Handle(Get("/metrics"));
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.content_type.find("text/plain"), std::string::npos);
  const std::string& text = response.body;

  EXPECT_NE(text.find("resest_lane_batches_total{priority=\"urgent\"} 2\n"),
            std::string::npos)
      << text.substr(0, 2000);
  EXPECT_NE(text.find("resest_lane_batches_total{priority=\"bulk\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("resest_lane_requests_total{priority=\"urgent\"} 24\n"),
            std::string::npos);
  // Histogram series carry cumulative buckets and +Inf per lane.
  EXPECT_NE(text.find("# TYPE resest_batch_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "resest_batch_latency_seconds_bucket{priority=\"urgent\",le=\"+Inf\"} 2\n"),
      std::string::npos);
  EXPECT_NE(text.find("resest_batch_latency_seconds_count{priority=\"urgent\"} 2\n"),
            std::string::npos);
  // Cache totals moved (second urgent pass hit), and shards are broken out.
  EXPECT_NE(text.find("resest_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("resest_cache_shard_hits_total{shard=\"0\"}"),
            std::string::npos);
  // Model and slot versions.
  EXPECT_NE(text.find("resest_model_version{model=\"default\"} 1\n"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "resest_model_slot_version{model=\"default\",op=\"TableScan\",resource=\"CPU\"} 1\n"),
      std::string::npos);

  // The scrape itself is parseable enough to find a nonzero hit counter
  // (leading newline skips the # HELP line).
  const size_t at = text.find("\nresest_cache_hits_total ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_GT(std::atof(text.c_str() + at + 25), 0.0);
}

TEST_F(ServerFrontendTest, LoopbackMixedPrioritiesBitIdenticalAndScraped) {
  HttpServer server(
      [this](const HttpRequest& r, HttpResponseSender respond) {
        frontend_->HandleAsync(r, std::move(respond));
      },
      FastPollOptions());
  frontend_->set_http_server(&server);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  const char* priorities[] = {"urgent", "normal", "bulk"};
  for (int p = 0; p < 3; ++p) {
    const auto requests = OperatorRequests(10, p * 17);
    const auto direct = service_->EstimateBatch(requests);
    HttpClientResponse response;
    ASSERT_TRUE(client.Post("/v1/estimate",
                            WireBatchBody(requests, priorities[p]), &response,
                            &error))
        << error;
    ASSERT_EQ(response.status, 200) << response.body;
    const std::vector<double> values =
        ResponseValues(response.body, EstimateStatus::kOk);
    ASSERT_EQ(values.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(std::memcmp(&values[i], &direct[i].value, sizeof(double)), 0)
          << priorities[p] << " request " << i;
    }
  }

  // The scrape over HTTP shows every lane moved and the server's own
  // counters (3 estimates + this scrape in flight).
  HttpClientResponse metrics;
  ASSERT_TRUE(client.Get("/metrics", &metrics, &error)) << error;
  ASSERT_EQ(metrics.status, 200);
  for (const char* priority : priorities) {
    const std::string needle = std::string("resest_lane_batches_total{priority=\"") +
                               priority + "\"}";
    const size_t at = metrics.body.find(needle);
    ASSERT_NE(at, std::string::npos) << needle;
    EXPECT_GT(std::atof(metrics.body.c_str() + at + needle.size()), 0.0)
        << needle;
  }
  EXPECT_NE(metrics.body.find("resest_http_requests_total 3\n"),
            std::string::npos);

  server.Stop();
  // Drain accounting: everything answered, nothing open.
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(server.requests_served(), 4u);
}

TEST_F(ServerFrontendTest, OversizedBodyOverHttpIs400AndServiceUntouched) {
  HttpServerOptions options = FastPollOptions();
  options.max_body_bytes = 1024;
  HttpServer server(
      [this](const HttpRequest& r, HttpResponseSender respond) {
        frontend_->HandleAsync(r, std::move(respond));
      },
      options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A real estimate body that simply exceeds the configured cap.
  const std::string big = WireBatchBody(OperatorRequests(64, 1), "normal");
  ASSERT_GT(big.size(), options.max_body_bytes);
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  HttpClientResponse response;
  ASSERT_TRUE(client.Post("/v1/estimate", big, &response, &error)) << error;
  EXPECT_EQ(response.status, 400);
  const ServiceStats stats = service_->stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.requests, 0u);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Event-driven server + cross-request coalescing.
// ---------------------------------------------------------------------------

TEST_F(ServerFrontendTest, CoalescedResponsesBitIdenticalToSoloEpoll) {
  RunCoalescedLoopback();
}

TEST_F(ServerFrontendTest, UrgentRequestDoesNotWaitBehindRunningBulkBatch) {
  // A bulk batch is held mid-run by the chunk-claim hook, a second bulk
  // request queues behind it in the coalescer, and an urgent request posted
  // meanwhile must be answered while the bulk batch is still held. The
  // watchdog turns an urgent request stuck behind bulk work into a failure
  // rather than a hang.
  std::promise<void> bulk_claimed;
  std::promise<void> release_bulk;
  std::shared_future<void> release = release_bulk.get_future().share();
  std::atomic<bool> first_bulk_claim{true};
  ServiceOptions gated_options;
  gated_options.chunk_claim_hook = [&](TaskPriority priority, bool) {
    if (priority == TaskPriority::kBulk && first_bulk_claim.exchange(false)) {
      bulk_claimed.set_value();
      release.wait();
    }
  };
  EstimationService gated(registry_.get(), pool_.get(), gated_options);

  const std::string bulk_body = WireBatchBody(OperatorRequests(7, 3), "bulk");
  const std::string bulk_expected =
      frontend_->Handle(Post("/v1/estimate", bulk_body)).body;
  const std::string queued_body =
      WireBatchBody(OperatorRequests(6, 9), "bulk");
  const std::string queued_expected =
      frontend_->Handle(Post("/v1/estimate", queued_body)).body;
  const std::string urgent_body =
      WireBatchBody(OperatorRequests(5, 21), "urgent");
  const std::string urgent_expected =
      frontend_->Handle(Post("/v1/estimate", urgent_body)).body;

  BatchCoalescer coalescer(&gated);
  frontend_->set_coalescer(&coalescer);
  HttpServer server(
      [this](const HttpRequest& r, HttpResponseSender respond) {
        frontend_->HandleAsync(r, std::move(respond));
      },
      FastPollOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const auto post_bulk = [&](const std::string& body,
                             const std::string& expected) {
    HttpClient client;
    std::string cerror;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &cerror)) << cerror;
    HttpClientResponse response;
    ASSERT_TRUE(client.Post("/v1/estimate", body, &response, &cerror))
        << cerror;
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, expected);
  };
  std::atomic<bool> released{false};
  const auto open_gate = [&]() {
    if (!released.exchange(true)) release_bulk.set_value();
  };
  std::thread watchdog([&]() {
    if (release.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      open_gate();
    }
  });
  std::thread bulk_client([&]() { post_bulk(bulk_body, bulk_expected); });
  EXPECT_EQ(bulk_claimed.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  // The lane is busy, so the second bulk request queues instead of
  // launching a batch of its own.
  std::thread queued_client([&]() { post_bulk(queued_body, queued_expected); });
  for (int spin = 0; spin < 2000 && coalescer.stats().submissions < 2;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(coalescer.stats().submissions, 2u);
  EXPECT_EQ(coalescer.stats().batches, 1u);

  HttpClient client;
  HttpClientResponse response;
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port(), &error) &&
              client.Post("/v1/estimate", urgent_body, &response, &error))
      << error;
  EXPECT_FALSE(released.load()) << "urgent waited behind the bulk batch";
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, urgent_expected);

  open_gate();
  bulk_client.join();
  queued_client.join();
  watchdog.join();
  const CoalescerStats stats = coalescer.stats();
  EXPECT_EQ(stats.flush_urgent, 1u);
  EXPECT_EQ(stats.flush_idle, 1u);     // the first bulk request
  EXPECT_EQ(stats.flush_chained, 1u);  // the queued one, once it finished
  EXPECT_EQ(stats.flush_window, 0u);
  server.Stop();
  frontend_->set_coalescer(nullptr);
}

TEST_F(ServerFrontendTest, MalformedRequestIsolatedFromCoalescedWindow) {
  // Wire-parse rejection happens on the I/O thread before the coalescer:
  // a malformed request answered 400 between coalesced ones must never
  // poison the merged batch the valid requests ride in.
  BatchCoalescer coalescer(service_.get());
  frontend_->set_coalescer(&coalescer);
  HttpServer server(
      [this](const HttpRequest& r, HttpResponseSender respond) {
        frontend_->HandleAsync(r, std::move(respond));
      },
      FastPollOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::string valid = WireBatchBody(OperatorRequests(5, 2), "normal");
  const std::string expected =
      frontend_->Handle(Post("/v1/estimate", valid)).body;
  const std::string malformed =
      "{\"requests\":[{\"op\":\"NotAnOp\",\"resource\":\"CPU\","
      "\"features\":[1.0]}]}";

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c]() {
      HttpClient client;
      std::string cerror;
      if (!client.Connect("127.0.0.1", server.port(), &cerror)) {
        failures.fetch_add(1);
        return;
      }
      HttpClientResponse response;
      const std::string& body = c == 1 ? malformed : valid;
      if (!client.Post("/v1/estimate", body, &response, &cerror)) {
        failures.fetch_add(1);
        return;
      }
      if (c == 1) {
        if (response.status != 400) failures.fetch_add(1);
      } else if (response.status != 200 || response.body != expected) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Only the two valid submissions ever reached the coalescer.
  const CoalescerStats stats = coalescer.stats();
  EXPECT_EQ(stats.submissions + stats.passthrough, 2u);
  server.Stop();
  frontend_->set_coalescer(nullptr);
}

TEST_F(ServerFrontendTest, PipelinedKeepAliveRequestsAnswerInOrder) {
  // Three requests pipelined in one write on one connection: the server
  // must answer all three, in order, each byte-identical to the solo path
  // (responses can never interleave — strictly one request in flight per
  // connection).
  BatchCoalescer coalescer(service_.get(), {});
  frontend_->set_coalescer(&coalescer);
  HttpServer server(
      [this](const HttpRequest& r, HttpResponseSender respond) {
        frontend_->HandleAsync(r, std::move(respond));
      },
      FastPollOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::vector<std::string> expected;
  std::string wire;
  for (int i = 0; i < 3; ++i) {
    const std::string body =
        WireBatchBody(OperatorRequests(4 + i, i * 7), "normal");
    expected.push_back(frontend_->Handle(Post("/v1/estimate", body)).body);
    wire += "POST /v1/estimate HTTP/1.1\r\nHost: x\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
  }

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  ASSERT_TRUE(conn.SendAll(wire));
  for (int i = 0; i < 3; ++i) {
    std::string body;
    EXPECT_EQ(conn.ReadResponse(&body), 200) << "response " << i;
    EXPECT_EQ(body, expected[i]) << "response " << i;
  }

  const HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_served, 3u);
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.keepalive_requests, 2u);
  server.Stop();
  frontend_->set_coalescer(nullptr);
}

// ---------------------------------------------------------------------------
// /v1/observe: ingestion endpoint wiring.
// ---------------------------------------------------------------------------

TEST_F(ServerFrontendTest, ObserveWithoutTrainerIs503) {
  const HttpResponse response = frontend_->Handle(Post(
      "/v1/observe",
      "{\"observations\":[{\"op\":\"TableScan\",\"resource\":\"CPU\","
      "\"features\":[1],\"label\":2.0}]}"));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("--data-dir"), std::string::npos)
      << response.body;
}

TEST_F(ServerFrontendTest, ObserveAppendsRowsAndRejectsMalformedBatches) {
  IncrementalTrainer trainer(TrainOptions{});
  {
    std::vector<ExecutedQuery> empty;
    trainer.SeedAndTrain(empty);
  }
  frontend_->set_trainer(&trainer);

  const HttpResponse ok = frontend_->Handle(Post(
      "/v1/observe",
      "{\"observations\":["
      "{\"op\":\"TableScan\",\"resource\":\"CPU\",\"features\":[1,2],"
      "\"label\":3.5},"
      "{\"op\":\"Sort\",\"resource\":\"IO\",\"features\":[4],\"label\":0.5}"
      "]}"));
  ASSERT_EQ(ok.status, 200) << ok.body;
  EXPECT_NE(ok.body.find("\"accepted\":2"), std::string::npos) << ok.body;
  EXPECT_NE(ok.body.find("\"model_version\""), std::string::npos) << ok.body;
  EXPECT_EQ(trainer.LogStats(OpType::kTableScan, Resource::kCpu).rows, 1u);
  EXPECT_EQ(trainer.LogStats(OpType::kSort, Resource::kIo).rows, 1u);

  // Strict parsing: unknown fields, bad op names and an empty batch are
  // all 400s that append nothing.
  for (const char* bad : {
           "{\"observations\":[{\"op\":\"TableScan\",\"resource\":\"CPU\","
           "\"features\":[1],\"label\":1,\"extra\":1}]}",
           "{\"observations\":[{\"op\":\"NoSuchOp\",\"resource\":\"CPU\","
           "\"features\":[1],\"label\":1}]}",
           "{\"observations\":[]}",
           "{\"rows\":[]}",
           "not json",
       }) {
    const HttpResponse response = frontend_->Handle(Post("/v1/observe", bad));
    EXPECT_EQ(response.status, 400) << bad << " -> " << response.body;
  }
  EXPECT_EQ(trainer.TotalPendingRows(), 2u);
}

// ---------------------------------------------------------------------------
// The real binary: SIGTERM drains with zero dropped responses, exit 0.
// ---------------------------------------------------------------------------

TEST_F(ServerFrontendTest, SigtermDrainsRealServerWithZeroDroppedResponses) {
  const char* bin = std::getenv("RESEST_SERVER_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "RESEST_SERVER_BIN not set (ctest sets it)";
  }

  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const std::string model_flag = "--model=" + *model_path_;
    ::execl(bin, bin, "--port=0", "--threads=2", model_flag.c_str(),
            "--model-name=default", static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(out_pipe[1]);

  // The first stdout line announces the bound ephemeral port.
  FILE* out = ::fdopen(out_pipe[0], "r");
  ASSERT_NE(out, nullptr);
  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), out), nullptr);
  unsigned port = 0;
  ASSERT_EQ(std::sscanf(line, "resest_server listening on 127.0.0.1:%u",
                        &port),
            1)
      << line;
  ASSERT_GT(port, 0u);

  // Establish a served connection first (the healthz answer proves the
  // connection is accepted and its handler task running), then deliver a
  // full estimate request and only afterwards SIGTERM: bytes at the socket
  // pre-signal must be answered before the drain completes.
  RawConn conn;
  ASSERT_TRUE(conn.Connect(static_cast<uint16_t>(port)));
  ASSERT_TRUE(conn.SendAll("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
  EXPECT_EQ(conn.ReadResponse(), 200);

  const auto requests = OperatorRequests(32, 7);
  const std::string body = WireBatchBody(requests, "urgent");
  const std::string post = "POST /v1/estimate HTTP/1.1\r\nHost: x\r\n"
                           "Content-Type: application/json\r\n"
                           "Content-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body;
  ASSERT_TRUE(conn.SendAll(post));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);

  // The in-flight estimate completes despite the signal...
  std::string response_body;
  EXPECT_EQ(conn.ReadResponse(&response_body), 200);
  ResponseValues(response_body, EstimateStatus::kOk);

  // ...the process drains and reports it served everything...
  uint64_t http_requests = 0;
  while (std::fgets(line, sizeof(line), out) != nullptr) {
    unsigned long long served = 0;
    if (std::sscanf(line, "resest_server: drained; served %llu http requests",
                    &served) == 1) {
      http_requests = served;
    }
  }
  EXPECT_EQ(http_requests, 2u);  // healthz + the in-flight estimate
  std::fclose(out);

  // ...and exits 0.
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(ServerFrontendTest, SigtermDrainsUnderConcurrentKeepAliveClients) {
  const char* bin = std::getenv("RESEST_SERVER_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "RESEST_SERVER_BIN not set (ctest sets it)";
  }

  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const std::string model_flag = "--model=" + *model_path_;
    ::execl(bin, bin, "--port=0", "--threads=2", model_flag.c_str(),
            "--model-name=default", static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(out_pipe[1]);

  FILE* out = ::fdopen(out_pipe[0], "r");
  ASSERT_NE(out, nullptr);
  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), out), nullptr);
  unsigned port = 0;
  ASSERT_EQ(
      std::sscanf(line, "resest_server listening on 127.0.0.1:%u", &port), 1)
      << line;
  ASSERT_GT(port, 0u);

  // Continuous keep-alive load from several clients (coalescing is on by
  // default in the binary), SIGTERM mid-flight. The drain contract: every
  // response a client receives is complete and bit-identical to the solo
  // path, and the server's drain line accounts for exactly the responses
  // the clients got — nothing dropped, nothing phantom.
  constexpr int kClients = 3;
  std::vector<std::string> bodies;
  std::vector<std::string> expected;
  const char* priorities[] = {"urgent", "normal", "bulk"};
  for (int c = 0; c < kClients; ++c) {
    const std::string body =
        WireBatchBody(OperatorRequests(5 + c, c * 11), priorities[c]);
    expected.push_back(frontend_->Handle(Post("/v1/estimate", body)).body);
    bodies.push_back(body);
  }
  std::atomic<uint64_t> ok_responses{0};
  std::atomic<int> bad_responses{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      HttpClient client;
      std::string cerror;
      if (!client.Connect("127.0.0.1", static_cast<uint16_t>(port),
                          &cerror)) {
        return;
      }
      for (;;) {
        HttpClientResponse response;
        if (!client.Post("/v1/estimate", bodies[static_cast<size_t>(c)],
                         &response, &cerror)) {
          return;  // drained: listener closed, reconnect refused
        }
        if (response.status == 200 &&
            response.body == expected[static_cast<size_t>(c)]) {
          ok_responses.fetch_add(1);
        } else {
          bad_responses.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  for (auto& t : clients) t.join();

  uint64_t served = 0;
  bool saw_drain_line = false;
  while (std::fgets(line, sizeof(line), out) != nullptr) {
    unsigned long long n = 0;
    if (std::sscanf(line, "resest_server: drained; served %llu http requests",
                    &n) == 1) {
      served = n;
      saw_drain_line = true;
    }
  }
  std::fclose(out);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);

  EXPECT_EQ(bad_responses.load(), 0);
  EXPECT_GT(ok_responses.load(), 0u) << "no load reached the server";
  ASSERT_TRUE(saw_drain_line);
  EXPECT_EQ(served, ok_responses.load());
}

TEST_F(ServerFrontendTest, OutOfRangeIntegerFlagIsAUsageError) {
  const char* bin = std::getenv("RESEST_SERVER_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "RESEST_SERVER_BIN not set (ctest sets it)";
  }
  // A missing model makes any run that gets past flag parsing exit 1
  // before serving, so a wrapped value (--port=4294967296 as port 0)
  // cannot start a server here.
  const std::string model_flag =
      "--model=" + ::testing::TempDir() + "resest_no_such.model";
  for (const char* flag :
       {"--port=4294967296", "--trees=99999999999999999999"}) {
    int err_pipe[2];
    ASSERT_EQ(::pipe(err_pipe), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::dup2(err_pipe[1], STDERR_FILENO);
      ::close(err_pipe[0]);
      ::close(err_pipe[1]);
      ::execl(bin, bin, flag, model_flag.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    ::close(err_pipe[1]);
    std::string err;
    char chunk[256];
    ssize_t n;
    while ((n = ::read(err_pipe[0], chunk, sizeof(chunk))) > 0) {
      err.append(chunk, static_cast<size_t>(n));
    }
    ::close(err_pipe[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << flag;
    EXPECT_EQ(WEXITSTATUS(status), 2) << flag << ": " << err;
    EXPECT_NE(err.find("bad integer"), std::string::npos)
        << flag << ": " << err;
  }
}

TEST_F(ServerFrontendTest, CoalesceWindowFlagOnlyAcceptsZeroAsCoalescingOff) {
  const char* bin = std::getenv("RESEST_SERVER_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "RESEST_SERVER_BIN not set (ctest sets it)";
  }
  // =0 is the deprecated spelling of --coalesce-max-rows=0: the server
  // starts, answers estimates, and runs without a coalescer (no
  // resest_coalesce_* families in /metrics).
  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const std::string model_flag = "--model=" + *model_path_;
    ::execl(bin, bin, "--port=0", "--threads=2", model_flag.c_str(),
            "--model-name=default", "--coalesce-window-us=0",
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(out_pipe[1]);
  FILE* out = ::fdopen(out_pipe[0], "r");
  ASSERT_NE(out, nullptr);
  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), out), nullptr);
  unsigned port = 0;
  ASSERT_EQ(
      std::sscanf(line, "resest_server listening on 127.0.0.1:%u", &port), 1)
      << line;

  const std::string body = WireBatchBody(OperatorRequests(6, 5), "normal");
  const std::string expected = frontend_->Handle(Post("/v1/estimate", body)).body;
  HttpClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", static_cast<uint16_t>(port), &error))
      << error;
  HttpClientResponse response;
  ASSERT_TRUE(client.Post("/v1/estimate", body, &response, &error)) << error;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, expected);
  HttpClientResponse metrics;
  ASSERT_TRUE(client.Get("/metrics", &metrics, &error)) << error;
  EXPECT_NE(metrics.body.find("resest_http_requests_total"), std::string::npos);
  EXPECT_EQ(metrics.body.find("resest_coalesce_"), std::string::npos);
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  while (std::fgets(line, sizeof(line), out) != nullptr) {
  }
  std::fclose(out);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Any other value is a usage error naming the new batching rule. The
  // missing model would make a run that got past flag parsing exit 1.
  int err_pipe[2];
  ASSERT_EQ(::pipe(err_pipe), 0);
  pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(err_pipe[1], STDERR_FILENO);
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    const std::string model_flag =
        "--model=" + ::testing::TempDir() + "resest_no_such.model";
    ::execl(bin, bin, "--coalesce-window-us=100", model_flag.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(err_pipe[1]);
  std::string err;
  char chunk[256];
  ssize_t n;
  while ((n = ::read(err_pipe[0], chunk, sizeof(chunk))) > 0) {
    err.append(chunk, static_cast<size_t>(n));
  }
  ::close(err_pipe[0]);
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 2) << err;
  EXPECT_NE(err.find("work-conserving"), std::string::npos) << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
}

// ---------------------------------------------------------------------------
// Tenant routing through the frontend: header/body selection, conflict and
// unknown-tenant rejection, the /v1/tenants admin view, and per-tenant
// metric families.
// ---------------------------------------------------------------------------

TEST_F(ServerFrontendTest, TenantRoutingSelectsConflictsAndRejects) {
  TenantOptions tenant_options;
  tenant_options.service.model_name = "default";
  tenant_options.enable_coalescing = false;
  TenantManager manager(registry_.get(), pool_.get(), tenant_options);
  std::string terror;
  ASSERT_NE(manager.AddTenant(kDefaultTenant, &terror), nullptr) << terror;
  ASSERT_NE(manager.AddTenant("alpha", &terror), nullptr) << terror;
  ASSERT_NE(manager.AddTenant("beta", &terror), nullptr) << terror;
  manager.PublishToAll(std::shared_ptr<const ResourceEstimator>(
      estimator_, [](const auto*) {}));
  frontend_->set_tenant_manager(&manager);

  const std::string body = WireBatchBody(OperatorRequests(4, 2), "normal");

  // Header-selected tenant serves from alpha's universe (its own model
  // version and its own cache region).
  HttpRequest header_request = Post("/v1/estimate", body);
  header_request.headers.emplace_back("X-Resest-Tenant", "alpha");
  const HttpResponse alpha1 = frontend_->Handle(header_request);
  ASSERT_EQ(alpha1.status, 200) << alpha1.body;
  const uint64_t alpha_version = registry_->Get("default@alpha").version;
  EXPECT_NE(alpha1.body.find("\"model_version\":" +
                             std::to_string(alpha_version)),
            std::string::npos)
      << alpha1.body;

  // Body-selected tenant: same contract via the "tenant" field.
  std::string beta_body = "{\"tenant\":\"beta\"," + body.substr(1);
  const HttpResponse beta1 = frontend_->Handle(Post("/v1/estimate",
                                                    beta_body));
  ASSERT_EQ(beta1.status, 200) << beta1.body;
  EXPECT_NE(beta1.body.find("\"model_version\":" +
                            std::to_string(
                                registry_->Get("default@beta").version)),
            std::string::npos)
      << beta1.body;

  // Header and body must agree when both are present.
  HttpRequest conflict = Post("/v1/estimate", beta_body);
  conflict.headers.emplace_back("X-Resest-Tenant", "alpha");
  const HttpResponse conflicted = frontend_->Handle(conflict);
  EXPECT_EQ(conflicted.status, 400);
  EXPECT_NE(conflicted.body.find("tenant mismatch"), std::string::npos)
      << conflicted.body;
  // Agreeing header + body is fine.
  HttpRequest agreeing = Post("/v1/estimate", beta_body);
  agreeing.headers.emplace_back("X-Resest-Tenant", "beta");
  EXPECT_EQ(frontend_->Handle(agreeing).status, 200);

  // Unknown tenants 404 (never auto-created); invalid ids 400.
  HttpRequest unknown = Post("/v1/estimate", body);
  unknown.headers.emplace_back("X-Resest-Tenant", "gamma");
  const HttpResponse missing = frontend_->Handle(unknown);
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("unknown tenant"), std::string::npos);
  HttpRequest invalid = Post("/v1/estimate", body);
  invalid.headers.emplace_back("X-Resest-Tenant", "/etc/passwd");
  EXPECT_EQ(frontend_->Handle(invalid).status, 400);

  // Tenant-scoped healthz reports the tenant's model name.
  HttpRequest health = Get("/healthz");
  health.headers.emplace_back("X-Resest-Tenant", "alpha");
  const HttpResponse health_response = frontend_->Handle(health);
  ASSERT_EQ(health_response.status, 200);
  EXPECT_NE(health_response.body.find("default@alpha"), std::string::npos)
      << health_response.body;

  // The admin view lists every tenant; alpha shows the traffic above.
  const HttpResponse tenants = frontend_->Handle(Get("/v1/tenants"));
  ASSERT_EQ(tenants.status, 200);
  for (const char* needle :
       {"\"tenant\":\"default\"", "\"tenant\":\"alpha\"",
        "\"tenant\":\"beta\"", "\"cache\":{", "\"obslog\":{",
        "\"lanes\":{"}) {
    EXPECT_NE(tenants.body.find(needle), std::string::npos) << needle;
  }

  // Metrics expose one sample per tenant in each resest_tenant_* family.
  const HttpResponse metrics = frontend_->Handle(Get("/metrics"));
  ASSERT_EQ(metrics.status, 200);
  for (const char* needle :
       {"resest_tenant_requests_total{tenant=\"default\"}",
        "resest_tenant_requests_total{tenant=\"alpha\"}",
        "resest_tenant_requests_total{tenant=\"beta\"}",
        "resest_tenant_cache_pressure{tenant=\"alpha\"}",
        "resest_tenant_model_version{tenant=\"beta\",model="
        "\"default@beta\"}"}) {
    EXPECT_NE(metrics.body.find(needle), std::string::npos) << needle;
  }

  // Requests routed to alpha never touched the frontend's single-tenant
  // service (the default tenant in the manager is a different instance).
  EXPECT_EQ(service_->stats().requests, 0u);
  frontend_->set_tenant_manager(nullptr);
}

TEST_F(ServerFrontendTest, SingleTenantModeRejectsNamedTenants) {
  // Without a TenantManager only the default tenant exists; naming any
  // other tenant is a 404, and naming the default works.
  const std::string body = WireBatchBody(OperatorRequests(2, 1), "normal");
  HttpRequest named = Post("/v1/estimate", body);
  named.headers.emplace_back("X-Resest-Tenant", "alpha");
  EXPECT_EQ(frontend_->Handle(named).status, 404);
  HttpRequest defaulted = Post("/v1/estimate", body);
  defaulted.headers.emplace_back("X-Resest-Tenant", kDefaultTenant);
  EXPECT_EQ(frontend_->Handle(defaulted).status, 200);
  // /v1/tenants still answers with the synthesized default entry.
  const HttpResponse tenants = frontend_->Handle(Get("/v1/tenants"));
  ASSERT_EQ(tenants.status, 200);
  EXPECT_NE(tenants.body.find("\"tenant\":\"default\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Durable drain: SIGTERM checkpoints and seals the WAL — every observation
// accepted over /v1/observe before the signal survives on disk.
// ---------------------------------------------------------------------------

TEST_F(ServerFrontendTest, SigtermDrainSealsWalWithZeroLostObservations) {
  const char* bin = std::getenv("RESEST_SERVER_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "RESEST_SERVER_BIN not set (ctest sets it)";
  }
  const auto data_dir =
      std::filesystem::temp_directory_path() / "resest_server_drain_wal";
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);

  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const std::string model_flag = "--model=" + *model_path_;
    const std::string data_flag = "--data-dir=" + data_dir.string();
    ::execl(bin, bin, "--port=0", "--threads=2", model_flag.c_str(),
            "--model-name=default", data_flag.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(out_pipe[1]);

  // With --data-dir the server prints its recovery summary before the
  // listening line — scan stdout for the port announcement.
  FILE* out = ::fdopen(out_pipe[0], "r");
  ASSERT_NE(out, nullptr);
  char line[256] = {0};
  unsigned port = 0;
  while (std::fgets(line, sizeof(line), out) != nullptr) {
    if (std::sscanf(line, "resest_server listening on 127.0.0.1:%u", &port) ==
        1) {
      break;
    }
  }
  ASSERT_GT(port, 0u);

  // POST a deterministic batch; every accepted row must survive the drain.
  constexpr int kRows = 37;
  std::string body = "{\"observations\":[";
  for (int i = 0; i < kRows; ++i) {
    if (i > 0) body += ",";
    const OpType op = static_cast<OpType>(i % kNumOpTypes);
    const Resource resource = static_cast<Resource>(i % kNumResources);
    body += std::string("{\"op\":\"") + OpTypeName(op) + "\",\"resource\":\"" +
            ResourceName(resource) + "\",\"features\":[" + std::to_string(i) +
            ",2.5],\"label\":" + std::to_string(i * 0.25) + "}";
  }
  body += "]}";

  HttpClient client;
  std::string error;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", static_cast<uint16_t>(port), &error))
      << error;
  HttpClientResponse response;
  ASSERT_TRUE(client.Post("/v1/observe", body, &response, &error)) << error;
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"accepted\":37"), std::string::npos)
      << response.body;

  // SIGTERM only after the 200: the rows were accepted pre-signal.
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  bool wal_line = false;
  while (std::fgets(line, sizeof(line), out) != nullptr) {
    if (std::strncmp(line, "resest_server: wal", 18) == 0) wal_line = true;
  }
  EXPECT_TRUE(wal_line) << "drain did not report the WAL seal";
  std::fclose(out);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Replay the data dir: a clean log holding every observation, in order.
  RecoveryStats stats;
  std::vector<WalObservation> rows;
  ASSERT_TRUE(ReplayObservationLog(
      data_dir.string(), "default",
      [&](const WalRecord& record) {
        if (record.type == WalRecordType::kObservation) {
          rows.push_back(record.observation);
        }
      },
      &stats));
  EXPECT_TRUE(stats.clean()) << stats.detail;
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) {
    EXPECT_EQ(rows[i].op, static_cast<OpType>(i % kNumOpTypes)) << i;
    EXPECT_EQ(rows[i].resource, static_cast<Resource>(i % kNumResources)) << i;
    EXPECT_EQ(rows[i].features[0], static_cast<double>(i)) << i;
    EXPECT_EQ(rows[i].label, i * 0.25) << i;
  }
  std::filesystem::remove_all(data_dir);
}

}  // namespace
}  // namespace resest
