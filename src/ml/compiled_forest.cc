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
    // The override names the widest kernel the caller wants; unsupported
    // requests fall down the ladder rather than erroring, so a script can
    // set RESEST_SIMD=avx512 and still run on an AVX2-only host.
    const char* env = std::getenv("RESEST_SIMD");
    if (env != nullptr && std::strcmp(env, "scalar") == 0) {
      return ForestKernel::kScalar;
    }
    const bool want_avx512 =
        env == nullptr || std::strcmp(env, "avx512") == 0;
    if (want_avx512 && Avx512Supported()) return ForestKernel::kAvx512;
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

bool CompiledForest::Avx512Supported() {
#if defined(RESEST_HAVE_AVX2_KERNEL)
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
#else
  return false;
#endif
}

const char* CompiledForest::ActiveKernelName() {
  switch (ActiveKernel()) {
    case ForestKernel::kAvx512: return "avx512";
    case ForestKernel::kAvx2: return "avx2";
    case ForestKernel::kScalar: break;
  }
  return "scalar";
}

size_t CompiledForest::ActiveLockstepWidth() {
  return ActiveKernel() == ForestKernel::kAvx512 ? 16 : kLockstepWidth;
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
  // A vector kernel gets only the rows that fill its lockstep groups; the
  // remainder (every row of a batch narrower than one group) walks the
  // scalar kernel. Each row accumulates independently, in boosting order,
  // so the split is bit-identical to any single kernel.
  size_t whole = 0;
#if defined(RESEST_HAVE_AVX2_KERNEL)
  // Both vector kernels address feature values with 32-bit offsets; batches
  // past that range (not reachable through the serving layer's batch cap)
  // take the scalar path.
  const bool offsets_fit =
      num_rows * stride <=
      static_cast<size_t>(std::numeric_limits<int32_t>::max());
  if (kernel == ForestKernel::kAvx512 && Avx512Supported() && offsets_fit) {
    whole = num_rows - num_rows % 16;
    if (whole > 0) PredictBatchAvx512(rows, whole, stride, out);
  } else if (kernel == ForestKernel::kAvx2 && Avx2Supported() &&
             offsets_fit) {
    whole = num_rows - num_rows % 8;
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
/// Walks G lockstep groups (8 rows each, starting at row r0) down one tree
/// and stores the 8*G leaf indices. The gathers in one group's step form a
/// serial dependency chain (~two gather latencies per level), so a single
/// group leaves the load ports mostly idle; interleaving G independent
/// groups keeps G chains in flight and hides that latency. G=4 (32 rows)
/// measures ~3x the single-group kernel on Skylake-class cores.
template <size_t G>
__attribute__((target("avx2"))) inline void Avx2WalkGroups(
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
  // num_rows is a multiple of 8 (PredictBatchWith hands the remainder to
  // the scalar kernel).
  for (size_t r = 0; r < num_rows; ++r) out[r] = f0_;
  const HotNode* nodes = nodes_.data();
  // 4 interleaved groups of 8 = 32 rows in flight per tree.
  constexpr size_t kGroups = 4;
  const size_t num_trees = roots_.size();
  for (size_t t = 0; t < num_trees; ++t) {
    const int32_t root = roots_[t];
    const int32_t depth = depths_[t];
    alignas(32) int32_t leaf[8 * kGroups];
    for (size_t r = 0; r < num_rows;) {
      size_t count = 8 * kGroups;
      if (r + count <= num_rows) {
        Avx2WalkGroups<kGroups>(nodes, rows, stride, r, root, depth, leaf);
      } else {
        count = 8;
        Avx2WalkGroups<1>(nodes, rows, stride, r, root, depth, leaf);
      }
      // Leaves evaluate scalar, per row in order: one mul + one add per
      // tree in the double domain (this file builds with
      // -ffp-contract=off), so each out[r] is bit-identical to the scalar
      // kernel and to Predict.
      for (size_t k = 0; k < count; ++k, ++r) {
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
// Unlike the AVX2 set, GCC 12's plain AVX-512 intrinsics (slli, the 512->
// 256 casts, cvtps_pd) are themselves implemented over _mm512_undefined_*()
// sources in avx512fintrin.h, so -Wmaybe-uninitialized fires inside the
// system header with no masked-intrinsic workaround available at the call
// site; suppress it for just this kernel.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
namespace {
/// The AVX2 walk at 16-row lockstep. AVX-512 removes the two costs the
/// 8-wide kernel pays per step: the compare produces a __mmask8 directly
/// (no shuffle/permute packing of 64-bit compare results back into 32-bit
/// lanes), and the child select is a single mask blend. G independent
/// groups interleave for the same latency-hiding reason as in
/// Avx2WalkGroups; with twice the rows per group, G=2 (32 rows) already
/// keeps the gather ports saturated.
template <size_t G>
__attribute__((target("avx512f,avx512vl,avx512dq"))) inline void
Avx512WalkGroups(const CompiledForest::HotNode* nodes, const double* rows,
                 size_t stride, size_t r0, int32_t root, int32_t depth,
                 int32_t* leaf_out) {
  // Same word-granular node addressing as the AVX2 kernel: index i * 4
  // reaches node i's feature; +1/+2 reach threshold and right.
  const int* words = reinterpret_cast<const int*>(nodes);
  const float* words_f = reinterpret_cast<const float*>(nodes);
  const __m512i iota = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6,
                                        5, 4, 3, 2, 1, 0);
  const __m512i vstride = _mm512_set1_epi32(static_cast<int>(stride));
  const __m512i ones = _mm512_set1_epi32(1);
  // All-lanes masked gathers with zeroed sources: same codegen as the
  // maskless forms, but without the undefined source operand GCC's
  // -Wmaybe-uninitialized flags inside avx512fintrin.h (the AVX2 kernel
  // applies the identical workaround).
  const __mmask16 kall = static_cast<__mmask16>(0xffff);
  const __mmask8 kall8 = static_cast<__mmask8>(0xff);
  const __m512i gzero = _mm512_setzero_si512();
  const __m512 gzero_ps = _mm512_setzero_ps();
  const __m512d gzero_pd = _mm512_setzero_pd();
  __m512i idx[G];
  __m512i rowoff[G];
  for (size_t g = 0; g < G; ++g) {
    idx[g] = _mm512_set1_epi32(root);
    rowoff[g] = _mm512_mullo_epi32(
        _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(r0 + 16 * g)),
                         iota),
        vstride);
  }
  for (int32_t d = depth; d > 0; --d) {
    for (size_t g = 0; g < G; ++g) {
      const __m512i word = _mm512_slli_epi32(idx[g], 2);
      const __m512i feat =
          _mm512_mask_i32gather_epi32(gzero, kall, word, words, 4);
      const __m512 thr =
          _mm512_mask_i32gather_ps(gzero_ps, kall, word, words_f + 1, 4);
      const __m512i right =
          _mm512_mask_i32gather_epi32(gzero, kall, word, words + 2, 4);
      // Per-row feature loads: offset = row * stride + feature, gathered
      // as two 8-lane double halves off the 16 32-bit offsets.
      const __m512i xoff = _mm512_add_epi32(rowoff[g], feat);
      const __m512d x_lo = _mm512_mask_i32gather_pd(
          gzero_pd, kall8, _mm512_castsi512_si256(xoff), rows, 8);
      const __m512d x_hi = _mm512_mask_i32gather_pd(
          gzero_pd, kall8, _mm512_extracti32x8_epi32(xoff, 1), rows, 8);
      // Double-domain compare, exactly like the scalar walk: the float32
      // threshold widens losslessly, and LE_OQ is false for the leaves'
      // NaN thresholds and for NaN features — both take `right`.
      const __m512d t_lo =
          _mm512_cvtps_pd(_mm512_castps512_ps256(thr));
      const __m512d t_hi = _mm512_cvtps_pd(_mm512_extractf32x8_ps(thr, 1));
      const __mmask8 le_lo = _mm512_cmp_pd_mask(x_lo, t_lo, _CMP_LE_OQ);
      const __mmask8 le_hi = _mm512_cmp_pd_mask(x_hi, t_hi, _CMP_LE_OQ);
      const __mmask16 le = static_cast<__mmask16>(
          static_cast<unsigned>(le_lo) | (static_cast<unsigned>(le_hi) << 8));
      const __m512i left = _mm512_add_epi32(idx[g], ones);
      idx[g] = _mm512_mask_blend_epi32(le, right, left);
    }
  }
  for (size_t g = 0; g < G; ++g) {
    _mm512_storeu_si512(leaf_out + 16 * g, idx[g]);
  }
}
}  // namespace

__attribute__((target("avx512f,avx512vl,avx512dq")))
void CompiledForest::PredictBatchAvx512(const double* rows, size_t num_rows,
                                        size_t stride, double* out) const {
  // num_rows is a multiple of 16 (PredictBatchWith hands the remainder to
  // the scalar kernel), so no row ever leaves this function's ISA: a call
  // into non-VEX SSE code from here would pay the SSE/AVX transition
  // penalty per tree.
  for (size_t r = 0; r < num_rows; ++r) out[r] = f0_;
  const HotNode* nodes = nodes_.data();
  // 2 interleaved groups of 16 = 32 rows in flight per tree, matching the
  // AVX2 kernel's blocking so the two kernels see identical cache behavior.
  constexpr size_t kGroups = 2;
  const size_t num_trees = roots_.size();
  for (size_t t = 0; t < num_trees; ++t) {
    const int32_t root = roots_[t];
    const int32_t depth = depths_[t];
    alignas(64) int32_t leaf[16 * kGroups];
    for (size_t r = 0; r < num_rows;) {
      size_t count = 16 * kGroups;
      if (r + count <= num_rows) {
        Avx512WalkGroups<kGroups>(nodes, rows, stride, r, root, depth, leaf);
      } else {
        count = 16;
        Avx512WalkGroups<1>(nodes, rows, stride, r, root, depth, leaf);
      }
      // The avx512f target enables FMA; -ffp-contract=off on this file
      // keeps the mul and add two roundings, as in the scalar kernel.
      for (size_t k = 0; k < count; ++k, ++r) {
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
#pragma GCC diagnostic pop
#endif  // RESEST_HAVE_AVX2_KERNEL

}  // namespace resest
