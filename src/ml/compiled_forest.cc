#include "src/ml/compiled_forest.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RESEST_HAVE_AVX2_KERNEL 1
#include <immintrin.h>
#endif

namespace resest {

namespace {
/// Max root-to-leaf edge count of the subtree at `node` (0 for a leaf).
int32_t SubtreeDepth(const std::vector<TreeNode>& nodes, size_t node) {
  const TreeNode& n = nodes[node];
  if (n.feature < 0) return 0;
  const int32_t l = SubtreeDepth(nodes, static_cast<size_t>(n.left));
  const int32_t r = SubtreeDepth(nodes, static_cast<size_t>(n.right));
  return 1 + (l > r ? l : r);
}

#if defined(RESEST_HAVE_AVX2_KERNEL)
/// 8-row lockstep groups the AVX2 kernel interleaves per tree walk (see
/// Avx2WalkBlock), and so the rows of the only block it ever walks.
constexpr size_t kAvx2Groups = 4;
constexpr size_t kAvx2BlockRows = CompiledForest::kLockstepWidth * kAvx2Groups;
#endif
}  // namespace

int32_t CompiledForest::EmitSubtree(const std::vector<TreeNode>& tree_nodes,
                                    size_t node) {
  const TreeNode& n = tree_nodes[node];
  const int32_t self = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  value_.push_back(n.value);
  lin_feature_.push_back(n.lin_feature);
  slope_.push_back(n.slope);
  if (n.lin_feature >= 0) {
    num_features_referenced_ = std::max(
        num_features_referenced_, static_cast<size_t>(n.lin_feature) + 1);
  }
  if (n.feature < 0) {
    // Leaf: the NaN threshold fails every ordered compare, so the select
    // always takes `right` — pointed back at the leaf (the self-loop).
    HotNode& hot = nodes_[static_cast<size_t>(self)];
    hot.feature = 0;
    hot.threshold = std::numeric_limits<float>::quiet_NaN();
    hot.right = self;
    return self;
  }
  num_features_referenced_ = std::max(num_features_referenced_,
                                      static_cast<size_t>(n.feature) + 1);
  // Pre-order: the left child lands at self + 1 (implicit), the right
  // subtree follows the whole left subtree.
  EmitSubtree(tree_nodes, static_cast<size_t>(n.left));
  const int32_t right = EmitSubtree(tree_nodes, static_cast<size_t>(n.right));
  HotNode& hot = nodes_[static_cast<size_t>(self)];
  hot.feature = n.feature;
  hot.threshold = n.threshold;
  hot.right = right;
  return self;
}

void CompiledForest::Compile(double f0, double learning_rate,
                             const std::vector<RegressionTree>& trees) {
  f0_ = f0;
  learning_rate_ = learning_rate;
  roots_.clear();
  depths_.clear();
  nodes_.clear();
  value_.clear();
  lin_feature_.clear();
  slope_.clear();

  size_t total_nodes = 0;
  for (const auto& tree : trees) {
    total_nodes += tree.nodes().empty() ? 1 : tree.nodes().size();
  }
  roots_.reserve(trees.size());
  depths_.reserve(trees.size());
  nodes_.reserve(total_nodes);
  value_.reserve(total_nodes);
  lin_feature_.reserve(total_nodes);
  slope_.reserve(total_nodes);

  num_features_referenced_ = 0;
  for (const auto& tree : trees) {
    const int32_t base = static_cast<int32_t>(nodes_.size());
    roots_.push_back(base);
    if (tree.nodes().empty()) {
      // An empty tree predicts 0.0; encode it as one constant zero leaf.
      depths_.push_back(0);
      HotNode leaf;
      leaf.feature = 0;
      leaf.threshold = std::numeric_limits<float>::quiet_NaN();
      leaf.right = base;
      nodes_.push_back(leaf);
      value_.push_back(0.0f);
      lin_feature_.push_back(-1);
      slope_.push_back(0.0f);
      continue;
    }
    depths_.push_back(SubtreeDepth(tree.nodes(), 0));
    EmitSubtree(tree.nodes(), 0);
  }
}

namespace {
/// One branchless traversal step. `!(x <= t)` picks the right child exactly
/// when the legacy walk does (including for NaN features — and for leaves,
/// whose NaN threshold makes the compare false so `right`, the self-loop,
/// wins); the arithmetic select compiles to setcc+imul instead of a
/// data-dependent branch — tree navigation is inherently unpredictable, and
/// a mispredict per step would serialize the interleaved row chains
/// PredictBatch relies on.
inline size_t Step(size_t i, const double* x,
                   const CompiledForest::HotNode* nodes) {
  const CompiledForest::HotNode& n = nodes[i];
  const double xf = x[static_cast<size_t>(n.feature)];
  const size_t go_right =
      static_cast<size_t>(!(xf <= static_cast<double>(n.threshold)));
  const size_t l = i + 1;  // pre-order: the left child is the next node
  const size_t r = static_cast<size_t>(n.right);
  return l + (r - l) * go_right;
}
}  // namespace

ForestKernel CompiledForest::ActiveKernel() {
  static const ForestKernel kernel = [] {
    // RESEST_SIMD=scalar pins the reference-order kernel; any other value
    // leaves the default.
    const char* env = std::getenv("RESEST_SIMD");
    if (env != nullptr && std::strcmp(env, "scalar") == 0) {
      return ForestKernel::kScalar;
    }
    return Avx2Supported() ? ForestKernel::kAvx2 : ForestKernel::kScalar;
  }();
  return kernel;
}

bool CompiledForest::Avx2Supported() {
#if defined(RESEST_HAVE_AVX2_KERNEL)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const char* CompiledForest::ActiveKernelName() {
  return ActiveKernel() == ForestKernel::kAvx2 ? "avx2" : "scalar";
}

double CompiledForest::Predict(const double* features, size_t count) const {
  (void)count;
  const HotNode* nodes = nodes_.data();
  double out = f0_;
  const size_t num_trees = roots_.size();
  for (size_t t = 0; t < num_trees; ++t) {
    size_t i = static_cast<size_t>(roots_[t]);
    for (int32_t d = depths_[t]; d > 0; --d) {
      i = Step(i, features, nodes);
    }
    double v = value_[i];
    if (lin_feature_[i] >= 0) {
      v += slope_[i] * features[static_cast<size_t>(lin_feature_[i])];
    }
    out += learning_rate_ * v;
  }
  return out;
}

void CompiledForest::PredictBatch(const double* rows, size_t num_rows,
                                  size_t stride, double* out) const {
  PredictBatchWith(ActiveKernel(), rows, num_rows, stride, out);
}

void CompiledForest::PredictBatchWith(ForestKernel kernel, const double* rows,
                                      size_t num_rows, size_t stride,
                                      double* out) const {
  // The AVX2 kernel gets only the rows that fill its 32-row blocks; the
  // remainder (every row of a batch narrower than one block) walks the
  // scalar kernel, which beats a lone latency-bound 8-row gather group.
  // Each row accumulates independently, in boosting order, so the split is
  // bit-identical to any single kernel.
  size_t whole = 0;
#if defined(RESEST_HAVE_AVX2_KERNEL)
  // The AVX2 kernel addresses feature values with 32-bit offsets; batches
  // past that range (not reachable through the serving layer's batch cap)
  // take the scalar path.
  const bool offsets_fit =
      num_rows * stride <=
      static_cast<size_t>(std::numeric_limits<int32_t>::max());
  if (kernel == ForestKernel::kAvx2 && Avx2Supported() && offsets_fit) {
    whole = num_rows - num_rows % kAvx2BlockRows;
    if (whole > 0) PredictBatchAvx2(rows, whole, stride, out);
  }
#else
  (void)kernel;
#endif
  if (whole < num_rows) {
    PredictBatchScalar(rows + whole * stride, num_rows - whole, stride,
                       out + whole);
  }
}

void CompiledForest::PredictBatchScalar(const double* rows, size_t num_rows,
                                        size_t stride, double* out) const {
  for (size_t r = 0; r < num_rows; ++r) out[r] = f0_;
  // Tree-outer/row-inner: one tree's handful of pre-order nodes stays
  // cache-hot across the whole batch, and each out[r] still receives the
  // trees in boosting order — the per-row floating-point accumulation
  // matches Predict exactly. kLockstepWidth rows walk the tree in lockstep:
  // the fixed-depth, self-looping traversal has no data-dependent exit, so
  // the rows' load-compare chains are independent and overlap in the
  // pipeline (memory-level parallelism), which is where the batched speedup
  // over the one-row-at-a-time scalar walk comes from.
  const HotNode* nodes = nodes_.data();
  auto leaf_value = [&](size_t i, const double* x) {
    double v = value_[i];
    if (lin_feature_[i] >= 0) {
      v += slope_[i] * x[static_cast<size_t>(lin_feature_[i])];
    }
    return v;
  };
  constexpr size_t W = kLockstepWidth;
  const size_t num_trees = roots_.size();
  for (size_t t = 0; t < num_trees; ++t) {
    const size_t root = static_cast<size_t>(roots_[t]);
    const int32_t depth = depths_[t];
    size_t r = 0;
    for (; r + W <= num_rows; r += W) {
      const double* x[W];
      size_t idx[W];
      for (size_t k = 0; k < W; ++k) {
        x[k] = rows + (r + k) * stride;
        idx[k] = root;
      }
      for (int32_t d = depth; d > 0; --d) {
        for (size_t k = 0; k < W; ++k) {
          idx[k] = Step(idx[k], x[k], nodes);
        }
      }
      for (size_t k = 0; k < W; ++k) {
        out[r + k] += learning_rate_ * leaf_value(idx[k], x[k]);
      }
    }
    for (; r < num_rows; ++r) {
      const double* x = rows + r * stride;
      size_t i = root;
      for (int32_t d = depth; d > 0; --d) {
        i = Step(i, x, nodes);
      }
      out[r] += learning_rate_ * leaf_value(i, x);
    }
  }
}

#if defined(RESEST_HAVE_AVX2_KERNEL)
namespace {
/// Walks one 32-row block (kAvx2Groups lockstep groups of 8 rows, starting
/// at row r0) down one tree and stores the 32 leaf indices. The gathers in
/// one group's step form a serial dependency chain (~two gather latencies
/// per level), so a single group leaves the load ports mostly idle and
/// costs about twice the scalar lockstep walk; interleaving four
/// independent groups keeps four chains in flight and hides that latency
/// (~3x the single-group walk on Skylake-class cores).
__attribute__((target("avx2"))) inline void Avx2WalkBlock(
    const CompiledForest::HotNode* nodes, const double* rows, size_t stride,
    size_t r0, int32_t root, int32_t depth, int32_t* leaf_out) {
  // Word-granular views of the 16-byte node records: index i * 4 reaches
  // node i's feature; the +1/+2 base offsets reach threshold and right.
  const int* words = reinterpret_cast<const int*>(nodes);
  const float* words_f = reinterpret_cast<const float*>(nodes);
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i vstride = _mm256_set1_epi32(static_cast<int>(stride));
  const __m256i ones = _mm256_set1_epi32(1);
  // Explicit all-ones masks + zero sources for the gathers: identical
  // codegen to the maskless forms, but without the undefined source
  // operand GCC's -Wmaybe-uninitialized flags inside avx2intrin.h.
  const __m256i gall = _mm256_set1_epi32(-1);
  const __m256i gzero = _mm256_setzero_si256();
  const __m256 gzero_ps = _mm256_setzero_ps();
  const __m256d gzero_pd = _mm256_setzero_pd();
  const __m256d gall_pd = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  constexpr size_t G = kAvx2Groups;
  __m256i idx[G];
  __m256i rowoff[G];
  for (size_t g = 0; g < G; ++g) {
    idx[g] = _mm256_set1_epi32(root);
    rowoff[g] = _mm256_mullo_epi32(
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(r0 + 8 * g)),
                         iota),
        vstride);
  }
  for (int32_t d = depth; d > 0; --d) {
    for (size_t g = 0; g < G; ++g) {
      const __m256i word = _mm256_slli_epi32(idx[g], 2);
      const __m256i feat =
          _mm256_mask_i32gather_epi32(gzero, words, word, gall, 4);
      const __m256 thr = _mm256_mask_i32gather_ps(
          gzero_ps, words_f + 1, word, _mm256_castsi256_ps(gall), 4);
      const __m256i right =
          _mm256_mask_i32gather_epi32(gzero, words + 2, word, gall, 4);
      // Per-row feature loads: offset = row * stride + feature.
      const __m256i xoff = _mm256_add_epi32(rowoff[g], feat);
      const __m256d x_lo = _mm256_mask_i32gather_pd(
          gzero_pd, rows, _mm256_castsi256_si128(xoff), gall_pd, 8);
      const __m256d x_hi = _mm256_mask_i32gather_pd(
          gzero_pd, rows, _mm256_extracti128_si256(xoff, 1), gall_pd, 8);
      // Compare in the double domain, exactly like the scalar walk: the
      // float32 threshold widens losslessly, and LE_OQ is false for the
      // leaves' NaN thresholds and for NaN features — both then take
      // `right`, matching `!(x <= t)`.
      const __m256d t_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(thr));
      const __m256d t_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(thr, 1));
      const __m256d le_lo = _mm256_cmp_pd(x_lo, t_lo, _CMP_LE_OQ);
      const __m256d le_hi = _mm256_cmp_pd(x_hi, t_hi, _CMP_LE_OQ);
      // Pack the two 4x64-bit compare masks into one 8x32-bit lane mask
      // in row order (shuffle interleaves the 128-bit halves; the 64-bit
      // permute restores 0..7).
      const __m256 packed = _mm256_shuffle_ps(_mm256_castpd_ps(le_lo),
                                              _mm256_castpd_ps(le_hi),
                                              _MM_SHUFFLE(2, 0, 2, 0));
      const __m256i mask = _mm256_permute4x64_epi64(
          _mm256_castps_si256(packed), _MM_SHUFFLE(3, 1, 2, 0));
      const __m256i left = _mm256_add_epi32(idx[g], ones);
      idx[g] = _mm256_castps_si256(_mm256_blendv_ps(
          _mm256_castsi256_ps(right), _mm256_castsi256_ps(left),
          _mm256_castsi256_ps(mask)));
    }
  }
  for (size_t g = 0; g < G; ++g) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(leaf_out + 8 * g), idx[g]);
  }
}
}  // namespace

__attribute__((target("avx2")))
void CompiledForest::PredictBatchAvx2(const double* rows, size_t num_rows,
                                      size_t stride, double* out) const {
  // num_rows is a multiple of kAvx2BlockRows (PredictBatchWith hands the
  // remainder to the scalar kernel).
  for (size_t r = 0; r < num_rows; ++r) out[r] = f0_;
  const HotNode* nodes = nodes_.data();
  const size_t num_trees = roots_.size();
  for (size_t t = 0; t < num_trees; ++t) {
    const int32_t root = roots_[t];
    const int32_t depth = depths_[t];
    alignas(32) int32_t leaf[kAvx2BlockRows];
    for (size_t r = 0; r < num_rows;) {
      Avx2WalkBlock(nodes, rows, stride, r, root, depth, leaf);
      // Leaves evaluate scalar, per row in order: one mul + one add per
      // tree in the double domain (this file builds with
      // -ffp-contract=off), so each out[r] is bit-identical to the scalar
      // kernel and to Predict.
      for (size_t k = 0; k < kAvx2BlockRows; ++k, ++r) {
        const size_t i = static_cast<size_t>(leaf[k]);
        const double* x = rows + r * stride;
        double v = value_[i];
        if (lin_feature_[i] >= 0) {
          v += slope_[i] * x[static_cast<size_t>(lin_feature_[i])];
        }
        out[r] += learning_rate_ * v;
      }
    }
  }
}
#endif  // RESEST_HAVE_AVX2_KERNEL

}  // namespace resest
