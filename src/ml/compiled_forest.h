// Ahead-of-time compiled forest inference (paper Section 7.3: the deployed
// artifact is the compactly encoded per-operator MART ensemble; inference
// must stay cheap inside the server).
//
// A trained Mart stores one heap-allocated std::vector<TreeNode> per tree
// (~150 per model), so a single prediction chases ~150 scattered blocks.
// CompiledForest flattens the whole ensemble at Train/Deserialize time into
// one cache-dense pre-order layout: each node is a single 16-byte record
// (int32 split feature, float32-quantized threshold, int32 right-child
// index) so one cache line holds four nodes and one traversal step touches
// one line instead of four parallel arrays. The left child is implicit —
// pre-order emission places it at index i + 1 — which is what lets the AVX2
// kernel resolve a step with three node gathers instead of five. Leaf
// values and the linear-leaf fields stay in separate cold arrays, touched
// once per tree per row.
//
// Batched traversal runs 8 rows per tree in lockstep; the fixed-depth,
// self-looping walk has no data-dependent exit, so the rows' load-compare
// chains overlap in the pipeline. Two kernels implement it:
//
//  - kScalar: portable unrolled lockstep, the fallback on any hardware.
//  - kAvx2: x86 AVX2 gathers — per step, one 8-lane gather each for the
//    split features, thresholds and right-child indices, plus two 4-lane
//    double gathers for the feature values, then a predicated blend picks
//    each row's next node. Four 8-row groups interleave per tree, so the
//    kernel walks 32-row blocks. Compiled behind a function-level target
//    attribute and selected at runtime (cpuid; RESEST_SIMD=scalar pins
//    kScalar), so binaries built on/for non-AVX2 hosts still run the scalar
//    path.
//
// The AVX2 kernel only ever sees whole 32-row blocks: PredictBatchWith
// hands it the first num_rows - num_rows % 32 rows and walks the remainder
// with kScalar. A lone 8-row gather group is latency-bound and costs about
// twice the scalar walk, so a batch narrower than one block never enters
// vector code.
//
// Bit-identity contract: Predict and PredictBatch reproduce the legacy
// per-tree scalar path (Mart::PredictReference) byte for byte — in EVERY
// kernel. Comparisons happen in the double domain (the float32 threshold
// is widened exactly), and each row's accumulation f0 + sum_i lr * tree_i(x)
// runs scalar, in boosting order, with no FMA contraction
// (compiled_forest.cc builds with -ffp-contract=off, so a build that
// enables FMA, e.g. -march=native, cannot fuse the leaf mul and add); the
// vector code only computes leaf indices, which are integers and either
// exactly right or a bug. The oracle suites check every kernel against
// PredictReference through PredictBatchWith, and RESEST_SIMD=scalar runs
// them with the scalar reference-order kernel pinned.
//
// Immutability: Compile() fully builds the representation; afterwards all
// methods are const and touch no mutable state, so a compiled forest can be
// shared by any number of serving threads without synchronization.
#ifndef RESEST_ML_COMPILED_FOREST_H_
#define RESEST_ML_COMPILED_FOREST_H_

#include <cstdint>
#include <vector>

#include "src/ml/regression_tree.h"

namespace resest {

/// Traversal kernel identifiers; see ActiveKernel().
enum class ForestKernel { kScalar = 0, kAvx2 = 1 };

class CompiledForest {
 public:
  /// Rows walked in lockstep per tree by every kernel.
  static constexpr size_t kLockstepWidth = 8;

  /// The kernel PredictBatch dispatches to, resolved once per process:
  /// kAvx2 when the CPU (and build) supports it, else kScalar.
  /// RESEST_SIMD=scalar forces kScalar (bench comparability, testing); any
  /// other value leaves the default.
  static ForestKernel ActiveKernel();
  /// "avx2" or "scalar".
  static const char* ActiveKernelName();
  /// True when this binary carries the AVX2 kernel and the CPU supports it
  /// (regardless of the RESEST_SIMD override).
  static bool Avx2Supported();

  /// Flattens `trees` (the boosted sequence of a Mart) into the contiguous
  /// layout. Trees with no nodes compile to a single zero-value leaf, which
  /// is what an empty RegressionTree predicts.
  void Compile(double f0, double learning_rate,
               const std::vector<RegressionTree>& trees);

  /// f0 + sum_i lr * tree_i(x), accumulated in tree order. `count` is the
  /// row width (number of model input features); traversal never reads past
  /// the features the trees were fitted on.
  double Predict(const double* features, size_t count) const;

  /// Batched prediction over `num_rows` contiguous rows of width `stride`
  /// (row i starts at rows + i * stride). out[i] is bit-identical to
  /// Predict(rows + i * stride, stride): the loop is tree-outer/row-inner
  /// for cache locality, but each row still accumulates f0 first and then
  /// the trees in boosting order. Dispatches to ActiveKernel().
  void PredictBatch(const double* rows, size_t num_rows, size_t stride,
                    double* out) const;

  /// Test seam: PredictBatch through a specific kernel. Falls back to
  /// kScalar when the requested kernel is unavailable on this host.
  void PredictBatchWith(ForestKernel kernel, const double* rows,
                        size_t num_rows, size_t stride, double* out) const;

  size_t NumTrees() const { return roots_.size(); }
  size_t NumNodes() const { return nodes_.size(); }
  bool empty() const { return roots_.empty(); }

  /// 1 + the largest feature index any split or linear leaf reads; 0 for a
  /// leaf-only forest. Predict/PredictBatch rows must be at least this
  /// wide. Loaders with a known input width use this to reject corrupt
  /// models whose (unvalidatable in isolation) feature indices would read
  /// out of bounds at predict time.
  size_t NumFeaturesReferenced() const { return num_features_referenced_; }

  /// One traversal record. 16 bytes so the AVX2 kernel reaches any field
  /// with a scale-4 word gather off index * 4, and a cache line covers four
  /// nodes. The left child is implicit (pre-order: index + 1); leaves
  /// carry a NaN threshold, which fails every ordered compare, so both the
  /// scalar select and the vector blend route a finished row to `right` —
  /// pointed at the leaf itself (the self-loop that makes the fixed-depth
  /// walk overshoot-safe).
  struct HotNode {
    int32_t feature = 0;      ///< Split feature (0 on leaves, never read).
    float threshold = 0.0f;   ///< Go left iff x[feature] <= threshold.
    int32_t right = 0;        ///< Absolute right-child index; self on leaves.
    int32_t pad = 0;          ///< Keeps the record a power-of-two size.
  };
  static_assert(sizeof(HotNode) == 16, "gather addressing assumes 16B nodes");

 private:
  /// Pre-order emission of the subtree rooted at `node` into nodes_ and the
  /// cold leaf arrays; returns the absolute index it was placed at.
  int32_t EmitSubtree(const std::vector<TreeNode>& tree_nodes, size_t node);

  void PredictBatchScalar(const double* rows, size_t num_rows, size_t stride,
                          double* out) const;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  void PredictBatchAvx2(const double* rows, size_t num_rows, size_t stride,
                        double* out) const;
#endif

  double f0_ = 0.0;
  double learning_rate_ = 0.0;
  std::vector<int32_t> roots_;   ///< Absolute root node index per tree.
  /// Max root-to-leaf edge count per tree. Traversal runs exactly this many
  /// steps: leaves self-loop (see HotNode), so a row that reaches its leaf
  /// early just stays put. This makes the walk branch-free — no
  /// data-dependent loop exit to mispredict — without changing which leaf a
  /// row lands on.
  std::vector<int32_t> depths_;
  std::vector<HotNode> nodes_;  ///< Pre-order per tree; indices absolute.
  // Cold leaf data, indexed like nodes_.
  std::vector<float> value_;          ///< Leaf constant (or intercept).
  std::vector<int16_t> lin_feature_;  ///< Linear-leaf feature; -1 = constant.
  std::vector<float> slope_;
  size_t num_features_referenced_ = 0;
};

}  // namespace resest

#endif  // RESEST_ML_COMPILED_FOREST_H_
