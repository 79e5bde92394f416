#include "src/server/wire_api.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <string_view>
#include <utility>

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

/// Where each field of one JSON object was last set, and whether that
/// value kept the contract. A duplicate key replaces the earlier
/// occurrence, so the last one wins (as JsonValue::Find does). Error texts
/// are written only once the object is known to be rejected.
template <size_t kFields>
class FieldMarks {
 public:
  FieldMarks() { at_.fill(kAbsent); }

  /// Field `field` was set by the member whose value starts at byte `at`.
  void Set(size_t field, size_t at, bool valid) {
    at_[field] = at;
    valid_[field] = valid;
  }
  bool Has(size_t field) const { return at_[field] != kAbsent; }

  /// The field holding the first invalid value in document order, or
  /// kFields when every value is valid.
  size_t FirstInvalid() const {
    size_t first = kFields;
    for (size_t f = 0; f < kFields; ++f) {
      if (Has(f) && !valid_[f] && (first == kFields || at_[f] < at_[first])) {
        first = f;
      }
    }
    return first;
  }

 private:
  static constexpr size_t kAbsent = static_cast<size_t>(-1);
  std::array<size_t, kFields> at_;
  std::array<bool, kFields> valid_{};
};

constexpr char kPriorityError[] =
    "\"priority\" must be one of \"urgent\", \"normal\", \"bulk\"";
constexpr char kRequestsError[] = "\"requests\" must be a non-empty array";
constexpr char kOpError[] =
    ".op must be an operator type name (e.g. \"TableScan\")";
constexpr char kResourceError[] = ".resource must be \"CPU\" or \"IO\"";
constexpr char kFeaturesError[] = ".features must be an array of numbers";

// Nesting depths in an estimate body, as JsonCursor::SkipValue counts them.
constexpr size_t kFieldDepth = 1;      // A top-level member's value.
constexpr size_t kItemDepth = 2;       // requests[i].
constexpr size_t kItemFieldDepth = 3;  // requests[i].op and its siblings.
constexpr size_t kFeatureDepth = 4;    // requests[i].features[f].

/// "requests[<index>]<what>".
std::string ItemError(size_t index, const std::string& what) {
  return "requests[" + std::to_string(index) + "]" + what;
}

/// What one "features" value held.
struct FeaturesShape {
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t count = kNone;             ///< Its length; kNone if not an array.
  size_t first_non_number = kNone;  ///< Index of its first non-number.

  bool valid() const {
    return count <= static_cast<size_t>(kNumFeatures) &&
           first_non_number == kNone;
  }
  /// The error of an invalid value: a length past kNumFeatures is reported
  /// before the type of any element.
  std::string Error(size_t index) const {
    if (count == kNone) return ItemError(index, kFeaturesError);
    if (count > static_cast<size_t>(kNumFeatures)) {
      return ItemError(index, ".features has " + std::to_string(count) +
                                  " entries; at most " +
                                  std::to_string(kNumFeatures) +
                                  " are defined");
    }
    return ItemError(index, ".features[" + std::to_string(first_non_number) +
                                "] must be a number");
  }
};

/// The strict single-pass /v1/estimate decoder. Each method consumes one
/// value and returns false only on a JSON syntax error, which the cursor
/// holds; a contract error is written to *error, the first in document
/// order. A value of the wrong type is still consumed
/// (JsonCursor::SkipValue), so a syntax error anywhere in the body wins
/// over every contract error.
struct EstimateDecoder {
  JsonCursor json;
  std::vector<EstimateRequest>* requests;
  SubmitOptions* options;
  std::string* tenant;
  std::string scratch;       // Decoded escaped string values.
  std::string item_unknown;  // The first unknown key of the current item.

  /// Reads a value that must be a string; *ok tells whether it was one.
  bool String(size_t depth, std::string_view* out, bool* ok) {
    *ok = json.Peek() == '"';
    return *ok ? json.ReadString(out, &scratch) : json.SkipValue(depth);
  }

  /// Reads a value that must be a number; *ok tells whether it was one.
  bool Number(size_t depth, double* out, bool* ok) {
    const char c = json.Peek();
    *ok = c == '-' || (c >= '0' && c <= '9');
    return *ok ? json.ReadNumber(out) : json.SkipValue(depth);
  }

  bool Body(std::string* error) {
    if (json.Peek() != '{') {
      *error = "request body must be a JSON object";
      return json.SkipValue(0) && json.Finish();
    }
    enum { kTenant, kPriority, kDeadline, kRequests, kUnknown, kNumFields };
    FieldMarks<kNumFields> fields;
    std::string unknown;         // The first unknown key.
    std::string requests_error;  // The last "requests" value's error.
    const bool parsed = json.ReadObject([&](std::string_view key) {
      const size_t at = json.offset();
      std::string_view text;
      bool ok = false;
      if (key == "requests") {
        requests_error.clear();
        if (!Requests(&requests_error)) return false;
        fields.Set(kRequests, at, requests_error.empty());
      } else if (key == "tenant") {
        if (!String(kFieldDepth, &text, &ok)) return false;
        if (ok && tenant != nullptr) tenant->assign(text);
        fields.Set(kTenant, at, ok);
      } else if (key == "priority") {
        if (!String(kFieldDepth, &text, &ok)) return false;
        fields.Set(kPriority, at,
                   ok && ParseTaskPriority(std::string(text),
                                           &options->priority));
      } else if (key == "deadline_ms") {
        double ms = 0.0;
        if (!Number(kFieldDepth, &ms, &ok)) return false;
        ok = ok && ms > 0.0 && std::isfinite(ms);
        if (ok) options->deadline = DeadlineAfterMs(ms);
        fields.Set(kDeadline, at, ok);
      } else {
        if (!fields.Has(kUnknown)) {
          fields.Set(kUnknown, at, false);
          unknown.assign(key);
        }
        return json.SkipValue(kFieldDepth);
      }
      return true;
    });
    if (!parsed || !json.Finish()) return false;
    switch (fields.FirstInvalid()) {
      case kTenant: *error = "\"tenant\" must be a string"; break;
      case kPriority: *error = kPriorityError; break;
      case kDeadline:
        *error = "\"deadline_ms\" must be a positive number";
        break;
      case kRequests: *error = std::move(requests_error); break;
      case kUnknown: *error = "unknown field \"" + unknown + "\""; break;
      default:
        if (!fields.Has(kRequests)) *error = kRequestsError;
    }
    return true;
  }

  /// Decodes the requests array; the first bad entry's error goes to
  /// *error.
  bool Requests(std::string* error) {
    requests->clear();
    if (json.Peek() != '[') {
      *error = kRequestsError;
      return json.SkipValue(kFieldDepth);
    }
    size_t count = 0;
    if (!json.ReadArray([&] { return Item(count++, error); })) return false;
    if (count == 0) *error = kRequestsError;
    return true;
  }

  /// Decodes requests[index] and appends it to *requests; on a contract
  /// error writes it to *error unless an earlier entry already did.
  bool Item(size_t index, std::string* error) {
    if (json.Peek() != '{') {
      if (error->empty()) *error = ItemError(index, " must be an object");
      return json.SkipValue(kItemDepth);
    }
    enum { kOp, kResource, kFeatures, kUnknown, kNumFields };
    FieldMarks<kNumFields> fields;
    OpType op = OpType::kTableScan;
    Resource resource = Resource::kCpu;
    FeatureVector features{};
    FeaturesShape shape;
    const bool parsed = json.ReadObject([&](std::string_view key) {
      const size_t at = json.offset();
      std::string_view text;
      bool ok = false;
      if (key == "op") {
        if (!String(kItemFieldDepth, &text, &ok)) return false;
        fields.Set(kOp, at, ok && ParseOpType(std::string(text), &op));
      } else if (key == "resource") {
        if (!String(kItemFieldDepth, &text, &ok)) return false;
        fields.Set(kResource, at,
                   ok && ParseResource(std::string(text), &resource));
      } else if (key == "features") {
        if (!Features(&features, &shape)) return false;
        fields.Set(kFeatures, at, shape.valid());
      } else {
        if (!fields.Has(kUnknown)) {
          fields.Set(kUnknown, at, false);
          item_unknown.assign(key);
        }
        return json.SkipValue(kItemFieldDepth);
      }
      return true;
    });
    if (!parsed) return false;
    const size_t invalid = fields.FirstInvalid();
    if (invalid == kNumFields && fields.Has(kOp) && fields.Has(kResource) &&
        fields.Has(kFeatures)) {
      requests->push_back(EstimateRequest::ForOperator(op, features, resource));
      return true;
    }
    if (!error->empty()) return true;
    size_t reported = invalid;
    if (reported == kNumFields) {
      // A missing field counts as sitting at the end of the object.
      reported = !fields.Has(kOp)         ? kOp
                 : !fields.Has(kResource) ? kResource
                                          : kFeatures;
    }
    switch (reported) {
      case kOp: *error = ItemError(index, kOpError); break;
      case kResource: *error = ItemError(index, kResourceError); break;
      case kFeatures: *error = shape.Error(index); break;
      default:
        *error =
            ItemError(index, " has unknown field \"" + item_unknown + "\"");
    }
    return true;
  }

  /// Reads a "features" value into *features (zero-filled past its end)
  /// and records its shape.
  bool Features(FeatureVector* features, FeaturesShape* shape) {
    *features = FeatureVector{};
    *shape = FeaturesShape{};
    if (json.Peek() != '[') return json.SkipValue(kItemFieldDepth);
    size_t count = 0;
    if (!json.ReadArray([&] {
          const size_t f = count++;
          if (f >= static_cast<size_t>(kNumFeatures)) {
            return json.SkipValue(kFeatureDepth);
          }
          bool ok = false;
          if (!Number(kFeatureDepth, &(*features)[f], &ok)) return false;
          if (!ok && shape->first_non_number == FeaturesShape::kNone) {
            shape->first_non_number = f;
          }
          return true;
        })) {
      return false;
    }
    shape->count = count;
    return true;
  }
};

}  // namespace

bool ParseEstimateWireRequest(const std::string& body,
                              std::vector<EstimateRequest>* requests,
                              SubmitOptions* options, std::string* tenant,
                              std::string* error) {
  *options = SubmitOptions{};
  if (tenant != nullptr) tenant->clear();
  EstimateDecoder decoder{JsonCursor(body), requests, options, tenant, {}, {}};
  std::string contract_error;
  if (!decoder.Body(&contract_error)) {
    *error = "malformed JSON: " + decoder.json.error();
    return false;
  }
  if (contract_error.empty()) return true;
  *error = std::move(contract_error);
  return false;
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
    // The row's error prefix is built only on the error path: past row 9 it
    // outgrows the small-string buffer and would allocate for every row.
    const auto at = [i] { return "observations[" + std::to_string(i) + "]"; };
    if (!item.is_object()) {
      *error = at() + " must be an object";
      return false;
    }
    if (FindUnknownKey(item, {"op", "resource", "features", "label"},
                       &unknown)) {
      *error = at() + " has unknown field \"" + unknown + "\"";
      return false;
    }
    ObserveWireRow row;
    const JsonValue* op_value = item.Find("op");
    if (op_value == nullptr || !op_value->is_string() ||
        !ParseOpType(op_value->as_string(), &row.op)) {
      *error = at() + ".op must be an operator type name (e.g. \"TableScan\")";
      return false;
    }
    const JsonValue* resource_value = item.Find("resource");
    if (resource_value == nullptr || !resource_value->is_string() ||
        !ParseResource(resource_value->as_string(), &row.resource)) {
      *error = at() + ".resource must be \"CPU\" or \"IO\"";
      return false;
    }
    const JsonValue* feature_values = item.Find("features");
    if (feature_values == nullptr || !feature_values->is_array()) {
      *error = at() + ".features must be an array of numbers";
      return false;
    }
    if (feature_values->items().size() > static_cast<size_t>(kNumFeatures)) {
      *error = at() + ".features has " +
               std::to_string(feature_values->items().size()) +
               " entries; at most " + std::to_string(kNumFeatures) +
               " are defined";
      return false;
    }
    for (size_t f = 0; f < feature_values->items().size(); ++f) {
      const JsonValue& fv = feature_values->items()[f];
      if (!fv.is_number()) {
        *error = at() + ".features[" + std::to_string(f) + "] must be a number";
        return false;
      }
      row.features[f] = fv.as_number();
    }
    const JsonValue* label = item.Find("label");
    if (label == nullptr || !label->is_number() ||
        !std::isfinite(label->as_number())) {
      *error = at() + ".label must be a finite number";
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
