#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/server/json.h"
#include "src/server/wire_api.h"
#include "src/workload/schemas.h"
#include "src/workload/tpch_queries.h"

namespace perfbench {

using namespace resest;

namespace {

// Training stays at small scale factors; session plans run on larger ones
// (paper Tables 5/8: train small, estimate large).
constexpr double kTrainScaleFactors[] = {0.5, 1.0, 2.0};
constexpr int kTrainQueriesPerSf = 40;
constexpr double kSessionScaleFactors[] = {4.0, 8.0};
constexpr int kSessionQueriesPerSf = 32;
constexpr double kSkew = 1.0;

void AddExecuted(double sf, int count, uint64_t seed, Rng* rng, Corpus* c,
                 std::vector<ExecutedQuery>* out) {
  auto db = GenerateDatabase(TpchSchema(), sf, kSkew,
                             seed * 1000 + static_cast<uint64_t>(sf * 10));
  auto queries = GenerateTpchWorkload(count, rng, db.get());
  for (auto& eq : RunWorkload(db.get(), queries, seed * 31 + 7)) {
    out->push_back(std::move(eq));
  }
  c->databases.push_back(std::move(db));
}

void AppendRow(const OpRow& row, bool with_label, std::string* body) {
  *body += "{\"op\":\"";
  *body += OpTypeName(row.op);
  *body += "\",\"resource\":\"";
  *body += ResourceName(row.resource);
  *body += "\",\"features\":[";
  for (int f = 0; f < kNumFeatures; ++f) {
    if (f > 0) *body += ',';
    AppendJsonNumber(row.features[static_cast<size_t>(f)], body);
  }
  *body += ']';
  if (with_label) {
    *body += ",\"label\":";
    AppendJsonNumber(row.label, body);
  }
  *body += '}';
}

WireCall EstimateCall(const std::vector<OpRow>& rows) {
  WireCall call;
  call.kind = WireCall::Kind::kEstimate;
  call.target = "/v1/estimate";
  call.body = "{\"requests\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) call.body += ',';
    AppendRow(rows[i], false, &call.body);
    call.rows.push_back(
        EstimateRequest::ForOperator(rows[i].op, rows[i].features,
                                     rows[i].resource));
  }
  call.body += "]}";
  return call;
}

WireCall ObserveCall(std::vector<OpRow> rows) {
  WireCall call;
  call.kind = WireCall::Kind::kObserve;
  call.target = "/v1/observe";
  call.body = "{\"observations\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) call.body += ',';
    AppendRow(rows[i], true, &call.body);
  }
  call.body += "]}";
  call.observations = std::move(rows);
  return call;
}

}  // namespace

Corpus BuildCorpus(uint64_t seed) {
  Corpus c;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  for (double sf : kTrainScaleFactors) {
    AddExecuted(sf, kTrainQueriesPerSf, seed, &rng, &c, &c.train);
  }
  for (double sf : kSessionScaleFactors) {
    AddExecuted(sf, kSessionQueriesPerSf, seed + 17, &rng, &c, &c.session);
  }
  return c;
}

std::shared_ptr<const ResourceEstimator> TrainDefault(
    const std::vector<ExecutedQuery>& train) {
  return std::make_shared<ResourceEstimator>(
      ResourceEstimator::Train(train, TrainOptions{}));
}

std::vector<OpRow> TrainedSlotRows(const std::vector<ExecutedQuery>& queries,
                                   const ResourceEstimator& estimator) {
  struct Key {
    size_t operator()(const OpRow& r) const {
      return HashFeatureVector(r.features) ^
             (static_cast<size_t>(r.op) * 2 + static_cast<size_t>(r.resource));
    }
  };
  struct Eq {
    bool operator()(const OpRow& a, const OpRow& b) const {
      return a.op == b.op && a.resource == b.resource &&
             FeatureVectorHashEqual(a.features, b.features);
    }
  };
  std::unordered_set<OpRow, Key, Eq> seen;
  std::vector<OpRow> rows;
  for (const ExecutedQuery& eq : queries) {
    VisitPlanOperators(eq.plan, [&](const PlanNode& node,
                                    const PlanNode* parent) {
      const FeatureVector features =
          ExtractFeatures(node, parent, *eq.database, estimator.mode());
      for (int r = 0; r < kNumResources; ++r) {
        const Resource resource = static_cast<Resource>(r);
        if (estimator.ModelsFor(node.type, resource) == nullptr) continue;
        OpRow row;
        row.op = node.type;
        row.resource = resource;
        row.features = features;
        row.label = resource == Resource::kCpu
                        ? node.actual.cpu
                        : static_cast<double>(node.actual.logical_io);
        if (seen.insert(row).second) rows.push_back(row);
      }
    });
  }
  return rows;
}

SessionInputs BuildSession(const Corpus& corpus,
                           const ResourceEstimator& estimator, uint64_t seed) {
  // 256 candidate sets of 32 plans x {CPU, IO}: the optimizer revisits a
  // few hot plans often (Zipf 0.99). Popularity follows generation order,
  // which cycles the TPC-H templates, so every seed has the same hot
  // templates (with its own parameters and data) and the same work per row.
  constexpr size_t kCalls = 256;
  constexpr size_t kPlansPerCall = 32;
  const std::vector<ExecutedQuery>& plans = corpus.session;
  Rng rng(seed * 7919 + 3);
  std::vector<std::array<double, kNumResources>> reference(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    for (int r = 0; r < kNumResources; ++r) {
      reference[i][static_cast<size_t>(r)] = estimator.EstimateQuery(
          plans[i].plan, *plans[i].database, static_cast<Resource>(r));
    }
  }
  const ZipfSampler zipf(static_cast<int64_t>(plans.size()), 0.99);
  SessionInputs in;
  for (size_t c = 0; c < kCalls; ++c) {
    std::vector<EstimateRequest> call;
    std::vector<double> expected;
    for (size_t p = 0; p < kPlansPerCall; ++p) {
      const size_t idx = static_cast<size_t>(zipf.Sample(&rng) - 1);
      for (int r = 0; r < kNumResources; ++r) {
        call.push_back({&plans[idx].plan, plans[idx].database,
                        static_cast<Resource>(r)});
        expected.push_back(reference[idx][static_cast<size_t>(r)]);
      }
    }
    in.calls.push_back(std::move(call));
    in.expected.push_back(std::move(expected));
  }
  return in;
}

AdmissionInputs BuildAdmission(const std::vector<OpRow>& pool,
                               double rate_per_s, double seconds,
                               size_t rows_per_call, uint64_t seed) {
  AdmissionInputs in;
  Rng rng(seed * 104729 + 11);
  std::vector<uint32_t> uses(pool.size(), 0);
  double t = 0.0;
  while (t < seconds) {
    t += -std::log(1.0 - rng.Uniform()) / rate_per_s;
    std::vector<OpRow> rows;
    for (size_t i = 0; i < rows_per_call; ++i) {
      const size_t b = static_cast<size_t>(rng.Next() % pool.size());
      OpRow row = pool[b];
      // A distinct, exactly representable offset per use of a base row:
      // no two rows of the run share a feature vector.
      row.features[static_cast<size_t>(FeatureId::kCOut)] +=
          static_cast<double>(++uses[b]) * 0x1p-10;
      rows.push_back(row);
    }
    in.calls.push_back(EstimateCall(rows));
    in.due_s.push_back(t);
  }
  return in;
}

std::vector<WireCall> BuildFeedback(const std::vector<OpRow>& pool,
                                    size_t observe_rows, size_t estimate_rows,
                                    size_t estimate_per_observe,
                                    size_t num_calls, uint64_t seed) {
  Rng rng(seed * 15485863 + 5);
  // The estimate side draws from a fixed set of 16 x estimate_rows rows:
  // small enough to stay cached, large enough that its mix of operators and
  // body sizes (and so the work per row) does not depend on the seed.
  std::vector<OpRow> hot;
  for (size_t i = 0; i < 16 * estimate_rows; ++i) {
    hot.push_back(pool[static_cast<size_t>(rng.Next() % pool.size())]);
  }
  std::vector<WireCall> calls;
  size_t next_observed = static_cast<size_t>(rng.Next() % pool.size());
  while (calls.size() < num_calls) {
    std::vector<OpRow> observed;
    for (size_t i = 0; i < observe_rows; ++i) {
      observed.push_back(pool[next_observed]);
      next_observed = (next_observed + 1) % pool.size();
    }
    calls.push_back(ObserveCall(std::move(observed)));
    for (size_t e = 0; e < estimate_per_observe; ++e) {
      std::vector<OpRow> rows;
      for (size_t i = 0; i < estimate_rows; ++i) {
        rows.push_back(hot[static_cast<size_t>(rng.Next() % hot.size())]);
      }
      calls.push_back(EstimateCall(rows));
    }
  }
  calls.resize(num_calls);
  return calls;
}

size_t FillExpected(std::vector<WireCall>* calls,
                    const ResourceEstimator& estimator,
                    uint64_t model_version) {
  size_t bad = 0;
  for (WireCall& call : *calls) {
    if (call.kind == WireCall::Kind::kObserve) {
      call.expected =
          FormatObserveWireResponse(call.observations.size(), model_version);
      continue;
    }
    std::vector<EstimateResult> results;
    for (const EstimateRequest& r : call.rows) {
      EstimateResult res;
      res.value = estimator.EstimateFromFeatures(r.op, r.features, r.resource);
      res.model_version = model_version;
      results.push_back(res);
    }
    call.expected = FormatEstimateWireResponse(results);
    JsonValue parsed;
    std::string error;
    const JsonValue* items = JsonValue::Parse(call.expected, &parsed, &error)
                                 ? parsed.Find("results")
                                 : nullptr;
    if (items == nullptr || items->items().size() != results.size()) {
      bad += results.size();
      continue;
    }
    for (size_t i = 0; i < results.size(); ++i) {
      const JsonValue* v = items->items()[i].Find("value");
      const double got = v != nullptr ? v->as_number() : 0.0;
      if (std::memcmp(&got, &results[i].value, sizeof(double)) != 0) ++bad;
    }
  }
  return bad;
}

}  // namespace perfbench
