// The public resource-estimation API: per-operator, per-pipeline and
// per-query estimates from trained operator model sets, plus the trainer
// that builds an estimator from executed-workload observations.
#ifndef RESEST_CORE_ESTIMATOR_H_
#define RESEST_CORE_ESTIMATOR_H_

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/combined_model.h"
#include "src/core/features.h"
#include "src/workload/runner.h"

namespace resest {

/// Training configuration for the SCALING estimator.
struct TrainOptions {
  FeatureMode mode = FeatureMode::kExact;
  MartParams mart = [] {
    MartParams p;
    p.num_trees = 150;  // combined models are numerous; 150 trees suffice
    return p;
  }();
  bool enable_scaling = true;          ///< false = plain per-operator MART.
  bool normalize_dependents = true;    ///< Ablation flag (Section 6.1 (3)).
  int max_scale_features = 2;          ///< Paper uses at most two.
  size_t min_rows_per_operator = 12;   ///< Below this, a constant model.
  /// Worker threads for fitting the per-(operator, resource) model sets,
  /// which are mutually independent. 1 = serial; 0 = hardware concurrency.
  /// The trained estimator is identical for any thread count: every model
  /// set is fitted from the same inputs (MART is seeded) into its own slot.
  size_t train_threads = 1;
};

/// A trained resource estimator (the paper's deployed artifact, Figure 5).
///
/// Thread safety: after Train()/Deserialize() completes, all const methods
/// are safe to call concurrently from any number of threads. The entire
/// estimation path (feature extraction, model selection, scaling, MART
/// inference) is free of mutable or lazily-initialized state — the serving
/// layer (src/serving/) relies on this to share one estimator across a
/// worker pool without locking. Keep it that way: no caches inside const
/// methods, synchronized or not. Memoization belongs in the serving layer
/// (src/serving/estimate_cache.h), where entries are keyed by the registry's
/// per-slot version, so a publish that changes a slot makes its entries
/// stop matching; a cache hidden inside the estimator could not be
/// version-keyed and would silently survive a registry publish.
///
/// The same contract covers the compiled inference representation: every
/// Mart's CompiledForest (the contiguous SoA tree layout all prediction,
/// scalar and batched, routes through) is built exactly once, inside
/// Train()/Deserialize() before the estimator is published, and is never
/// mutated by const paths afterwards — it is part of the immutable model,
/// not a lazily-built cache.
class ResourceEstimator {
 public:
  /// Trains per-operator model sets from executed queries.
  static ResourceEstimator Train(const std::vector<ExecutedQuery>& workload,
                                 const TrainOptions& options);

  /// Estimate for a single operator of an annotated plan.
  double EstimateOperator(const PlanNode& node, const PlanNode* parent,
                          const Database& db, Resource resource) const;

  /// Keyed per-operator entry point: predicts from an already-extracted
  /// feature vector. EstimateOperator(node, parent, db, r) is exactly
  /// EstimateFromFeatures(node.type, ExtractFeatures(node, parent, db,
  /// mode()), r) — the serving cache relies on this identity to memoize
  /// per-operator estimates under a (version, op, resource, features) key
  /// with bit-identical results.
  double EstimateFromFeatures(OpType op, const FeatureVector& features,
                              Resource resource) const;

  /// Batched keyed entry point: out[i] is bit-identical to
  /// EstimateFromFeatures(op, *features[i], resource), but all rows of one
  /// (op, resource) run through the compiled forests in grouped sweeps
  /// instead of one tree walk per row. The serving layer feeds a chunk's
  /// cache-miss operators through this, passing its per-thread arena as
  /// `scratch` so the sweep performs zero heap allocations (a transient
  /// local arena is used when scratch is null).
  void EstimateBatchFromFeatures(OpType op,
                                 const FeatureVector* const* features, size_t n,
                                 Resource resource, double* out,
                                 Arena* scratch = nullptr) const;

  /// Estimate for a whole plan (sum over operators).
  double EstimateQuery(const Plan& plan, const Database& db,
                       Resource resource) const;

  /// Per-pipeline estimates (scheduling-granularity API, Section 5.2).
  std::vector<double> EstimatePipelines(const Plan& plan, const Database& db,
                                        Resource resource) const;

  /// The model set for one (operator, resource); null if none was trained.
  const OperatorModelSet* ModelsFor(OpType op, Resource resource) const;

  /// Training-time mutator used by the incremental trainer to assemble a
  /// delta: replaces one slot's model set (null = fall back to the mean)
  /// and its fallback mean. Must only be called on an estimator that is not
  /// yet shared with readers — published estimators are immutable. Model
  /// sets are immutable after training, so a delta built as a copy of its
  /// predecessor shares every slot this is *not* called on — compiled
  /// forests included — by holding the same pointer; ModelsFor() pointer
  /// equality across versions is the sharing guarantee tests assert on.
  void ReplaceModelSet(OpType op, Resource resource,
                       std::shared_ptr<const OperatorModelSet> set,
                       double fallback_mean);

  /// The fallback mean served when a slot has no trained model.
  double FallbackMean(OpType op, Resource resource) const {
    return fallback_mean_[static_cast<size_t>(op)]
                         [static_cast<size_t>(resource)];
  }

  /// Total serialized model bytes (paper Section 7.3 memory accounting).
  size_t SerializedBytes() const;

  /// Full model-store (de)serialization: the deployed artifact can be
  /// trained offline, persisted, and loaded inside the server (the paper's
  /// "models are retained, training examples are not" deployment).
  std::vector<uint8_t> Serialize() const;
  bool Deserialize(const std::vector<uint8_t>& bytes);
  bool SaveToFile(const std::string& path) const;
  bool LoadFromFile(const std::string& path);

  /// Human-readable report for one operator: extracted features, the model
  /// chosen by Section 6.3 selection, its out_ratios and the estimate.
  std::string ExplainOperator(const PlanNode& node, const PlanNode* parent,
                              const Database& db, Resource resource) const;
  /// Explain every operator of a plan.
  std::string ExplainQuery(const Plan& plan, const Database& db,
                           Resource resource) const;

  FeatureMode mode() const { return options_.mode; }
  const TrainOptions& options() const { return options_; }

 private:
  TrainOptions options_;
  // models_[op][resource]; null = untrained slot (fallback mean). Slots are
  // shared_ptr so a copy of the estimator shares every immutable model set
  // with the original — the representation of a delta publish.
  std::array<std::array<std::shared_ptr<const OperatorModelSet>,
                        kNumResources>,
             kNumOpTypes>
      models_;
  // Fallback per-operator mean resource (for operators with too little data).
  std::array<std::array<double, kNumResources>, kNumOpTypes> fallback_mean_{};
};

/// Calls fn(node, parent) for every operator of `plan` in the canonical
/// estimation order (pre-order, parent before children) — the same order
/// EstimateQuery sums in. The serving layer traverses plans with this so
/// its per-operator memoized sums stay bit-identical to EstimateQuery.
void VisitPlanOperators(
    const Plan& plan,
    const std::function<void(const PlanNode&, const PlanNode*)>& fn);

namespace internal {
template <typename Fn>
void ForEachPlanNode(const PlanNode* node, const PlanNode* parent, Fn& fn) {
  fn(*node, parent);
  for (const auto& child : node->children) {
    ForEachPlanNode(child.get(), node, fn);
  }
}
}  // namespace internal

/// Template flavor of VisitPlanOperators for hot paths: identical traversal
/// order, but the callback is a direct template parameter — constructing a
/// std::function from a capturing lambda heap-allocates, which the
/// zero-allocation batch pipeline cannot afford per request.
template <typename Fn>
void ForEachPlanOperator(const Plan& plan, Fn&& fn) {
  if (!plan.root) return;
  internal::ForEachPlanNode(plan.root.get(),
                            static_cast<const PlanNode*>(nullptr), fn);
}

}  // namespace resest

#endif  // RESEST_CORE_ESTIMATOR_H_
