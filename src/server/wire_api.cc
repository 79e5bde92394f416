#include "src/server/wire_api.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

namespace resest {
namespace {

/// The absolute deadline `ms` (> 0, finite) milliseconds from now. Far
/// deadlines clamp to the latest instant short of time_point::max() (which
/// means "no deadline"): past about 9.2e12 ms the offset no longer fits the
/// clock's int64 ticks, and a wrapped sum would lie in the past and expire
/// the batch on arrival.
std::chrono::steady_clock::time_point DeadlineAfterMs(double ms) {
  using Clock = std::chrono::steady_clock;
  const auto latest = Clock::time_point::max() - Clock::duration(1);
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double, std::milli> offset(ms);
  // Compared in floating point first: the conversion below is defined only
  // in range, and the min absorbs its rounding.
  if (!(offset < latest - now)) return latest;
  return now + std::min(std::chrono::duration_cast<Clock::duration>(offset),
                        latest - now);
}

/// Strict contract: a key we don't understand is a client error, not
/// something to silently ignore — typos ("dead_line_ms") fail loudly.
bool FindUnknownKey(const JsonValue& object,
                    std::initializer_list<const char*> allowed,
                    std::string* unknown) {
  for (const auto& member : object.members()) {
    bool known = false;
    for (const char* key : allowed) {
      if (member.first == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      *unknown = member.first;
      return true;
    }
  }
  return false;
}

/// Single-pass scanner for the hot /v1/estimate body shape. It only ever
/// accepts inputs the JsonValue tree path would accept with identical
/// outputs; anything unusual — escaped strings, unknown or duplicate keys,
/// wrong types, out-of-range feature counts, syntax errors — makes it bail
/// so the caller can rerun the tree parser for the canonical verdict and
/// error message. Numbers go through the same from_chars/strtod pair as
/// JsonValue, so decoded doubles are bit-identical between the two paths.
struct FastEstimateScanner {
  const char* p;
  const char* end;

  void SkipSpace() {
    while (p < end &&
           (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool Eat(char c) {
    SkipSpace();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }

  /// A string literal with no escapes and no control bytes: [*b, *e) is the
  /// raw content. Escaped strings bail to the tree path.
  bool RawString(const char** b, const char** e) {
    SkipSpace();
    if (p >= end || *p != '"') return false;
    ++p;
    *b = p;
    while (p < end) {
      const unsigned char c = static_cast<unsigned char>(*p);
      if (c == '"') {
        *e = p;
        ++p;
        return true;
      }
      if (c == '\\' || c < 0x20) return false;
      ++p;
    }
    return false;
  }

  /// Same grammar + conversion as JsonValue::Parser::ParseNumber.
  bool Number(double* out) {
    SkipSpace();
    const char* start = p;
    if (p < end && *p == '-') ++p;
    if (p >= end || *p < '0' || *p > '9') return false;
    if (*p == '0') {
      ++p;
    } else {
      while (p < end && *p >= '0' && *p <= '9') ++p;
    }
    if (p < end && *p == '.') {
      ++p;
      if (p >= end || *p < '0' || *p > '9') return false;
      while (p < end && *p >= '0' && *p <= '9') ++p;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
      ++p;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      if (p >= end || *p < '0' || *p > '9') return false;
      while (p < end && *p >= '0' && *p <= '9') ++p;
    }
    const auto result = std::from_chars(start, p, *out);
    if (result.ec == std::errc::result_out_of_range) {
      std::string token(start, p);
      *out = std::strtod(token.c_str(), nullptr);
    }
    return true;
  }
};

bool SliceEquals(const char* b, const char* e, const char* literal) {
  const size_t n = std::strlen(literal);
  return static_cast<size_t>(e - b) == n && std::memcmp(b, literal, n) == 0;
}

bool FastParseRequestItems(FastEstimateScanner& s,
                           std::vector<EstimateRequest>* requests) {
  if (!s.Eat('[')) return false;
  requests->clear();
  s.SkipSpace();
  // An empty array is a wire error; let the tree path phrase it.
  if (s.p < s.end && *s.p == ']') return false;
  while (true) {
    if (!s.Eat('{')) return false;
    bool seen_op = false;
    bool seen_resource = false;
    bool seen_features = false;
    OpType op = OpType::kTableScan;
    Resource resource = Resource::kCpu;
    FeatureVector features{};
    while (true) {
      const char* kb;
      const char* ke;
      if (!s.RawString(&kb, &ke)) return false;
      if (!s.Eat(':')) return false;
      if (SliceEquals(kb, ke, "op")) {
        if (seen_op) return false;
        seen_op = true;
        const char* vb;
        const char* ve;
        if (!s.RawString(&vb, &ve)) return false;
        if (!ParseOpType(std::string(vb, ve), &op)) return false;
      } else if (SliceEquals(kb, ke, "resource")) {
        if (seen_resource) return false;
        seen_resource = true;
        const char* vb;
        const char* ve;
        if (!s.RawString(&vb, &ve)) return false;
        if (!ParseResource(std::string(vb, ve), &resource)) return false;
      } else if (SliceEquals(kb, ke, "features")) {
        if (seen_features) return false;
        seen_features = true;
        if (!s.Eat('[')) return false;
        s.SkipSpace();
        size_t count = 0;
        if (s.p < s.end && *s.p == ']') {
          ++s.p;
        } else {
          while (true) {
            if (count >= static_cast<size_t>(kNumFeatures)) return false;
            if (!s.Number(&features[count])) return false;
            ++count;
            s.SkipSpace();
            if (s.p < s.end && *s.p == ',') {
              ++s.p;
              continue;
            }
            if (s.p < s.end && *s.p == ']') {
              ++s.p;
              break;
            }
            return false;
          }
        }
      } else {
        return false;  // Unknown key: the tree path owns the diagnostic.
      }
      s.SkipSpace();
      if (s.p < s.end && *s.p == ',') {
        ++s.p;
        continue;
      }
      if (s.p < s.end && *s.p == '}') {
        ++s.p;
        break;
      }
      return false;
    }
    if (!seen_op || !seen_resource || !seen_features) return false;
    requests->push_back(EstimateRequest::ForOperator(op, features, resource));
    s.SkipSpace();
    if (s.p < s.end && *s.p == ',') {
      ++s.p;
      continue;
    }
    if (s.p < s.end && *s.p == ']') {
      ++s.p;
      return true;
    }
    return false;
  }
}

bool TryFastEstimateParse(const std::string& body,
                          std::vector<EstimateRequest>* requests,
                          SubmitOptions* options, std::string* tenant) {
  FastEstimateScanner s{body.data(), body.data() + body.size()};
  if (!s.Eat('{')) return false;
  *options = SubmitOptions{};
  if (tenant != nullptr) tenant->clear();
  bool seen_priority = false;
  bool seen_deadline = false;
  bool seen_tenant = false;
  bool seen_requests = false;
  s.SkipSpace();
  if (s.p >= s.end || *s.p == '}') return false;  // Missing "requests".
  while (true) {
    const char* kb;
    const char* ke;
    if (!s.RawString(&kb, &ke)) return false;
    if (!s.Eat(':')) return false;
    if (SliceEquals(kb, ke, "requests")) {
      if (seen_requests) return false;
      seen_requests = true;
      if (!FastParseRequestItems(s, requests)) return false;
    } else if (SliceEquals(kb, ke, "priority")) {
      if (seen_priority) return false;
      seen_priority = true;
      const char* vb;
      const char* ve;
      if (!s.RawString(&vb, &ve)) return false;
      if (!ParseTaskPriority(std::string(vb, ve), &options->priority)) {
        return false;
      }
    } else if (SliceEquals(kb, ke, "deadline_ms")) {
      if (seen_deadline) return false;
      seen_deadline = true;
      double ms = 0.0;
      if (!s.Number(&ms)) return false;
      if (!(ms > 0.0) || !std::isfinite(ms)) return false;
      options->deadline = DeadlineAfterMs(ms);
    } else if (SliceEquals(kb, ke, "tenant")) {
      if (seen_tenant) return false;
      seen_tenant = true;
      const char* vb;
      const char* ve;
      if (!s.RawString(&vb, &ve)) return false;
      if (tenant != nullptr) tenant->assign(vb, ve);
    } else {
      return false;
    }
    s.SkipSpace();
    if (s.p < s.end && *s.p == ',') {
      ++s.p;
      continue;
    }
    if (s.p < s.end && *s.p == '}') {
      ++s.p;
      break;
    }
    return false;
  }
  s.SkipSpace();
  if (s.p != s.end) return false;  // Trailing characters.
  return seen_requests;
}

}  // namespace

bool ParseEstimateWireBatch(const JsonValue& body,
                            std::vector<EstimateRequest>* requests,
                            SubmitOptions* options, std::string* error,
                            std::string* tenant) {
  if (!body.is_object()) {
    *error = "request body must be a JSON object";
    return false;
  }
  *options = SubmitOptions{};
  if (tenant != nullptr) tenant->clear();

  std::string unknown;
  if (FindUnknownKey(body, {"priority", "deadline_ms", "tenant", "requests"},
                     &unknown)) {
    *error = "unknown field \"" + unknown + "\"";
    return false;
  }

  if (const JsonValue* tenant_value = body.Find("tenant")) {
    if (!tenant_value->is_string()) {
      *error = "\"tenant\" must be a string";
      return false;
    }
    if (tenant != nullptr) *tenant = tenant_value->as_string();
  }
  if (const JsonValue* priority = body.Find("priority")) {
    if (!priority->is_string() ||
        !ParseTaskPriority(priority->as_string(), &options->priority)) {
      *error = "\"priority\" must be one of \"urgent\", \"normal\", \"bulk\"";
      return false;
    }
  }
  if (const JsonValue* deadline = body.Find("deadline_ms")) {
    const double ms = deadline->is_number() ? deadline->as_number() : -1.0;
    if (!(ms > 0.0) || !std::isfinite(ms)) {
      *error = "\"deadline_ms\" must be a positive number";
      return false;
    }
    options->deadline = DeadlineAfterMs(ms);
  }

  const JsonValue* items = body.Find("requests");
  if (items == nullptr || !items->is_array() || items->items().empty()) {
    *error = "\"requests\" must be a non-empty array";
    return false;
  }
  requests->clear();
  requests->reserve(items->items().size());
  for (size_t i = 0; i < items->items().size(); ++i) {
    const JsonValue& item = items->items()[i];
    const std::string at = "requests[" + std::to_string(i) + "]";
    if (!item.is_object()) {
      *error = at + " must be an object";
      return false;
    }
    if (FindUnknownKey(item, {"op", "resource", "features"}, &unknown)) {
      *error = at + " has unknown field \"" + unknown + "\"";
      return false;
    }
    OpType op;
    const JsonValue* op_value = item.Find("op");
    if (op_value == nullptr || !op_value->is_string() ||
        !ParseOpType(op_value->as_string(), &op)) {
      *error = at + ".op must be an operator type name (e.g. \"TableScan\")";
      return false;
    }
    Resource resource;
    const JsonValue* resource_value = item.Find("resource");
    if (resource_value == nullptr || !resource_value->is_string() ||
        !ParseResource(resource_value->as_string(), &resource)) {
      *error = at + ".resource must be \"CPU\" or \"IO\"";
      return false;
    }
    FeatureVector features{};
    const JsonValue* feature_values = item.Find("features");
    if (feature_values == nullptr || !feature_values->is_array()) {
      *error = at + ".features must be an array of numbers";
      return false;
    }
    if (feature_values->items().size() > static_cast<size_t>(kNumFeatures)) {
      *error = at + ".features has " +
               std::to_string(feature_values->items().size()) +
               " entries; at most " + std::to_string(kNumFeatures) +
               " are defined";
      return false;
    }
    for (size_t f = 0; f < feature_values->items().size(); ++f) {
      const JsonValue& fv = feature_values->items()[f];
      if (!fv.is_number()) {
        *error = at + ".features[" + std::to_string(f) + "] must be a number";
        return false;
      }
      features[f] = fv.as_number();
    }
    requests->push_back(EstimateRequest::ForOperator(op, features, resource));
  }
  return true;
}

bool ParseEstimateWireRequest(const std::string& body,
                              std::vector<EstimateRequest>* requests,
                              SubmitOptions* options, std::string* tenant,
                              std::string* error) {
  // Well-formed estimate traffic decodes in one pass with no JsonValue
  // tree; the fast scanner refuses anything it is not certain about, and
  // the tree path below then produces the canonical accept/reject.
  if (TryFastEstimateParse(body, requests, options, tenant)) return true;
  JsonValue tree;
  std::string syntax_error;
  if (!JsonValue::Parse(body, &tree, &syntax_error)) {
    *error = "malformed JSON: " + syntax_error;
    return false;
  }
  return ParseEstimateWireBatch(tree, requests, options, error, tenant);
}

std::string FormatEstimateWireResponse(
    const std::vector<EstimateResult>& results) {
  std::string out = "{\"model_version\":";
  out += std::to_string(results.empty() ? 0 : results.front().model_version);
  out += ",\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) out += ',';
    const EstimateResult& r = results[i];
    out += "{\"status\":";
    AppendJsonString(EstimateStatusName(r.status), &out);
    out += ",\"value\":";
    AppendJsonNumber(r.value, &out);
    out += ",\"model_version\":";
    out += std::to_string(r.model_version);
    out += '}';
  }
  out += "]}";
  return out;
}

int EstimateWireHttpStatus(const std::vector<EstimateResult>& results) {
  if (results.empty()) return 200;
  EstimateStatus worst = EstimateStatus::kOk;
  for (const EstimateResult& r : results) {
    if (r.ok()) return 200;  // Partial success still delivers a 200 body.
    if (worst == EstimateStatus::kOk) worst = r.status;
  }
  return EstimateStatusHttpCode(worst);
}

bool ParseObserveWireBatch(const JsonValue& body,
                           std::vector<ObserveWireRow>* rows,
                           std::string* error, std::string* tenant) {
  if (!body.is_object()) {
    *error = "request body must be a JSON object";
    return false;
  }
  if (tenant != nullptr) tenant->clear();
  std::string unknown;
  if (FindUnknownKey(body, {"tenant", "observations"}, &unknown)) {
    *error = "unknown field \"" + unknown + "\"";
    return false;
  }
  if (const JsonValue* tenant_value = body.Find("tenant")) {
    if (!tenant_value->is_string()) {
      *error = "\"tenant\" must be a string";
      return false;
    }
    if (tenant != nullptr) *tenant = tenant_value->as_string();
  }
  const JsonValue* items = body.Find("observations");
  if (items == nullptr || !items->is_array() || items->items().empty()) {
    *error = "\"observations\" must be a non-empty array";
    return false;
  }
  rows->clear();
  rows->reserve(items->items().size());
  for (size_t i = 0; i < items->items().size(); ++i) {
    const JsonValue& item = items->items()[i];
    const std::string at = "observations[" + std::to_string(i) + "]";
    if (!item.is_object()) {
      *error = at + " must be an object";
      return false;
    }
    if (FindUnknownKey(item, {"op", "resource", "features", "label"},
                       &unknown)) {
      *error = at + " has unknown field \"" + unknown + "\"";
      return false;
    }
    ObserveWireRow row;
    const JsonValue* op_value = item.Find("op");
    if (op_value == nullptr || !op_value->is_string() ||
        !ParseOpType(op_value->as_string(), &row.op)) {
      *error = at + ".op must be an operator type name (e.g. \"TableScan\")";
      return false;
    }
    const JsonValue* resource_value = item.Find("resource");
    if (resource_value == nullptr || !resource_value->is_string() ||
        !ParseResource(resource_value->as_string(), &row.resource)) {
      *error = at + ".resource must be \"CPU\" or \"IO\"";
      return false;
    }
    const JsonValue* feature_values = item.Find("features");
    if (feature_values == nullptr || !feature_values->is_array()) {
      *error = at + ".features must be an array of numbers";
      return false;
    }
    if (feature_values->items().size() > static_cast<size_t>(kNumFeatures)) {
      *error = at + ".features has " +
               std::to_string(feature_values->items().size()) +
               " entries; at most " + std::to_string(kNumFeatures) +
               " are defined";
      return false;
    }
    for (size_t f = 0; f < feature_values->items().size(); ++f) {
      const JsonValue& fv = feature_values->items()[f];
      if (!fv.is_number()) {
        *error = at + ".features[" + std::to_string(f) + "] must be a number";
        return false;
      }
      row.features[f] = fv.as_number();
    }
    const JsonValue* label = item.Find("label");
    if (label == nullptr || !label->is_number() ||
        !std::isfinite(label->as_number())) {
      *error = at + ".label must be a finite number";
      return false;
    }
    row.label = label->as_number();
    rows->push_back(row);
  }
  return true;
}

std::string FormatObserveWireResponse(size_t accepted,
                                      uint64_t model_version) {
  std::string out = "{\"accepted\":" + std::to_string(accepted);
  out += ",\"model_version\":" + std::to_string(model_version) + "}";
  return out;
}

std::string FormatWireError(const std::string& message) {
  std::string out = "{\"error\":";
  AppendJsonString(message, &out);
  out += "}";
  return out;
}

}  // namespace resest
