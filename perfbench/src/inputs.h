// Seeded inputs of the three workloads. Everything here is a deterministic
// function of the --seed argument; the estimator code under test receives
// only these generated plans, feature rows and wire bodies.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/estimator.h"
#include "src/serving/estimation_service.h"
#include "src/storage/catalog.h"
#include "src/workload/runner.h"

namespace perfbench {

/// The executed TPC-H corpus: a training part at small scale factors and a
/// session part at scale factors above the training range, so estimates
/// for session plans go through the paper's Section 6.3 model selection and
/// scaling paths.
struct Corpus {
  std::vector<std::unique_ptr<resest::Database>> databases;
  std::vector<resest::ExecutedQuery> train;
  std::vector<resest::ExecutedQuery> session;
};
Corpus BuildCorpus(uint64_t seed);

/// Trains with library-default TrainOptions.
std::shared_ptr<const resest::ResourceEstimator> TrainDefault(
    const std::vector<resest::ExecutedQuery>& train);

/// One labelled operator row of an executed plan.
struct OpRow {
  resest::OpType op = resest::OpType::kTableScan;
  resest::Resource resource = resest::Resource::kCpu;
  resest::FeatureVector features{};
  double label = 0.0;
};
/// Every (operator, resource) row of `queries` whose slot the estimator
/// trained a model for, bitwise-distinct on (op, resource, features).
std::vector<OpRow> TrainedSlotRows(
    const std::vector<resest::ExecutedQuery>& queries,
    const resest::ResourceEstimator& estimator);

/// optimizer_session: candidate-plan sets of plan-based CPU and IO requests,
/// drawn with Zipf skew from the executed session plans.
struct SessionInputs {
  std::vector<std::vector<resest::EstimateRequest>> calls;
  std::vector<std::vector<double>> expected;  ///< Serial EstimateQuery.
};
SessionInputs BuildSession(const Corpus& corpus,
                           const resest::ResourceEstimator& estimator,
                           uint64_t seed);

/// One wire request: the body sent, the service requests it decodes to, and
/// the exact response body the reference values format to.
struct WireCall {
  enum class Kind { kEstimate, kObserve };
  Kind kind = Kind::kEstimate;
  std::string target;
  std::string body;
  std::string expected;
  std::vector<resest::EstimateRequest> rows;  ///< kEstimate only.
  std::vector<OpRow> observations;            ///< kObserve only.
  size_t row_count() const {
    return kind == Kind::kEstimate ? rows.size() : observations.size();
  }
};

/// admission_wire: small estimate requests of mixed-op rows whose features
/// are all distinct (a unique offset on the output cardinality), so every
/// row misses the cache. `due_s` is the seeded Poisson send schedule.
struct AdmissionInputs {
  std::vector<WireCall> calls;
  std::vector<double> due_s;
};
AdmissionInputs BuildAdmission(const std::vector<OpRow>& pool,
                               double rate_per_s, double seconds,
                               size_t rows_per_call, uint64_t seed);

/// feedback_wire: observe batches of labelled rows interleaved with estimate
/// batches over a small fixed row set (cache hits after warm-up). Every body
/// is distinct (row order varies) so server spans map back to requests.
std::vector<WireCall> BuildFeedback(const std::vector<OpRow>& pool,
                                    size_t observe_rows, size_t estimate_rows,
                                    size_t estimate_per_observe,
                                    size_t num_calls, uint64_t seed);

/// Fills every call's expected response from serial EstimateFromFeatures at
/// `model_version`, then re-parses each expected body and checks its values
/// bit for bit against the serial doubles. Returns the number of rows whose
/// formatted value did not round-trip (0 when the reference is sound).
size_t FillExpected(std::vector<WireCall>* calls,
                    const resest::ResourceEstimator& estimator,
                    uint64_t model_version);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
