// Golden bit-identity tests for the compiled-forest inference layer: the
// contiguous SoA representation (scalar and batched) must reproduce the
// legacy per-tree scalar walk byte for byte, at every level of the stack —
// Mart, CombinedModel/OperatorModelSet, ResourceEstimator — for MART,
// linear-leaf REGTREE, and constant-fallback models alike.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/estimator.h"
#include "src/ml/mart.h"
#include "src/workload/runner.h"
#include "src/workload/schemas.h"
#include "src/workload/tpch_queries.h"

namespace resest {
namespace {

// y = x0*log2(x0) + 5*x1 + noise over a few features, mimicking operator
// cost curves.
Dataset MakeData(size_t n, size_t num_features, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> x(num_features);
    for (auto& v : x) v = rng.Uniform(1.0, 1000.0);
    const double y = x[0] * std::log2(x[0]) + 5.0 * x[1 % num_features] +
                     rng.Gaussian(0.0, 1.0);
    d.Add(std::move(x), y);
  }
  return d;
}

// Random raw operator feature vectors, spanning in-range and far-out-of-range
// magnitudes so Section 6.3 selection exercises every trained model.
std::vector<FeatureVector> RandomFeatureVectors(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<FeatureVector> rows(n);
  for (auto& v : rows) {
    const double scale = std::pow(10.0, rng.Uniform(0.0, 7.0));
    for (auto& f : v) f = rng.Uniform(0.0, scale);
  }
  return rows;
}

class MartBitIdentityTest : public ::testing::TestWithParam<bool> {};

TEST_P(MartBitIdentityTest, CompiledMatchesReferenceBitwise) {
  const bool linear_leaves = GetParam();
  const size_t kFeatures = 6;
  Dataset train = MakeData(2500, kFeatures, 101);
  MartParams params;
  params.num_trees = 150;
  params.linear_leaves = linear_leaves;
  Mart mart(params);
  mart.Fit(train);
  ASSERT_EQ(mart.compiled().NumTrees(), 150u);
  EXPECT_GE(mart.compiled().NumFeaturesReferenced(), 1u);
  EXPECT_LE(mart.compiled().NumFeaturesReferenced(), kFeatures);

  Rng rng(7);
  std::vector<double> matrix;
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 500; ++i) {
    std::vector<double> x(kFeatures);
    // Include far-out-of-range rows: traversal must agree everywhere.
    for (auto& v : x) v = rng.Uniform(-100.0, 5000.0);
    matrix.insert(matrix.end(), x.begin(), x.end());
    rows.push_back(std::move(x));
  }

  std::vector<double> batched(rows.size());
  mart.compiled().PredictBatch(matrix.data(), rows.size(), kFeatures,
                               batched.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    const double reference = mart.PredictReference(rows[i]);
    // EXPECT_EQ, not NEAR: the contract is bitwise identity.
    EXPECT_EQ(mart.Predict(rows[i]), reference);
    EXPECT_EQ(mart.Predict(rows[i].data(), kFeatures), reference);
    EXPECT_EQ(batched[i], reference);
  }
}

TEST_P(MartBitIdentityTest, SerializeRoundTripPreservesCompiledOutput) {
  const bool linear_leaves = GetParam();
  Dataset train = MakeData(1200, 4, 103);
  MartParams params;
  params.num_trees = 80;
  params.linear_leaves = linear_leaves;
  Mart mart(params);
  mart.Fit(train);

  Mart restored;
  ASSERT_TRUE(restored.Deserialize(mart.Serialize()));
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(4);
    for (auto& v : x) v = rng.Uniform(0.0, 3000.0);
    EXPECT_EQ(restored.Predict(x), mart.Predict(x));
    EXPECT_EQ(restored.PredictReference(x), mart.PredictReference(x));
  }
}

INSTANTIATE_TEST_SUITE_P(MartAndRegtree, MartBitIdentityTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "REGTREE" : "MART";
                         });

TEST(CompiledForestTest, UntrainedAndEmptyFitsPredictZero) {
  Mart untrained;
  EXPECT_EQ(untrained.Predict(std::vector<double>{1.0, 2.0}), 0.0);
  EXPECT_EQ(untrained.PredictReference({1.0, 2.0}), 0.0);

  Mart empty_fit;
  empty_fit.Fit(Dataset{});
  EXPECT_EQ(empty_fit.Predict(std::vector<double>{1.0, 2.0}), 0.0);
  EXPECT_EQ(empty_fit.compiled().NumTrees(), 0u);
}

// The estimator-level golden sweep: every (OpType, Resource) model set of a
// trained estimator — plus the constant-fallback operators without one —
// must produce bit-identical scalar, reference, and batched estimates.
class EstimatorSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = GenerateDatabase(TpchSchema(), 1.0, 1.0, 42).release();
    Rng rng(7);
    auto queries = GenerateTpchWorkload(80, &rng, db_);
    workload_ =
        new std::vector<ExecutedQuery>(RunWorkload(db_, queries));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static void SweepAllModelSets(const ResourceEstimator& est) {
    const std::vector<FeatureVector> raws = RandomFeatureVectors(64, 1234);
    std::vector<const FeatureVector*> ptrs;
    for (const auto& v : raws) ptrs.push_back(&v);
    std::vector<double> batched(raws.size());

    size_t sets_seen = 0, fallbacks_seen = 0;
    for (int op = 0; op < kNumOpTypes; ++op) {
      for (int r = 0; r < kNumResources; ++r) {
        const OpType op_type = static_cast<OpType>(op);
        const Resource resource = static_cast<Resource>(r);
        const OperatorModelSet* set = est.ModelsFor(op_type, resource);
        est.EstimateBatchFromFeatures(op_type, ptrs.data(), ptrs.size(),
                                      resource, batched.data());
        for (size_t i = 0; i < raws.size(); ++i) {
          const double scalar =
              est.EstimateFromFeatures(op_type, raws[i], resource);
          EXPECT_EQ(batched[i], scalar)
              << "op " << op << " resource " << r << " row " << i;
          if (set != nullptr) {
            const CombinedModel* chosen = set->Select(raws[i]);
            ASSERT_NE(chosen, nullptr);
            EXPECT_EQ(scalar, chosen->PredictReference(raws[i]))
                << "op " << op << " resource " << r << " row " << i;
          }
        }
        (set != nullptr ? sets_seen : fallbacks_seen)++;
      }
    }
    // The sweep must actually cover trained model sets AND constant
    // fallbacks, or the golden test is vacuous.
    EXPECT_GT(sets_seen, 0u);
    EXPECT_GT(fallbacks_seen, 0u);
  }

  static Database* db_;
  static std::vector<ExecutedQuery>* workload_;
};

Database* EstimatorSweepTest::db_ = nullptr;
std::vector<ExecutedQuery>* EstimatorSweepTest::workload_ = nullptr;

TEST_F(EstimatorSweepTest, MartModelsBitIdentical) {
  TrainOptions options;
  options.mart.num_trees = 60;
  options.train_threads = 0;
  SweepAllModelSets(ResourceEstimator::Train(*workload_, options));
}

TEST_F(EstimatorSweepTest, RegtreeModelsBitIdentical) {
  TrainOptions options;
  options.mart.num_trees = 60;
  options.mart.linear_leaves = true;  // REGTREE: linear-leaf trees
  options.train_threads = 0;
  SweepAllModelSets(ResourceEstimator::Train(*workload_, options));
}

TEST_F(EstimatorSweepTest, DeserializedEstimatorStaysBitIdentical) {
  TrainOptions options;
  options.mart.num_trees = 40;
  options.train_threads = 0;
  const ResourceEstimator trained =
      ResourceEstimator::Train(*workload_, options);
  ResourceEstimator restored;
  ASSERT_TRUE(restored.Deserialize(trained.Serialize()));

  const std::vector<FeatureVector> raws = RandomFeatureVectors(32, 555);
  for (int op = 0; op < kNumOpTypes; ++op) {
    for (int r = 0; r < kNumResources; ++r) {
      for (const auto& v : raws) {
        EXPECT_EQ(restored.EstimateFromFeatures(static_cast<OpType>(op), v,
                                                static_cast<Resource>(r)),
                  trained.EstimateFromFeatures(static_cast<OpType>(op), v,
                                               static_cast<Resource>(r)));
      }
    }
  }
}

// --- Kernel edge cases: every oddly-shaped batch a caller can legally ---
// --- construct, through all kernels via the PredictBatchWith seam.     ---
// On hosts without AVX2 the vector requests fall back to scalar and those
// comparisons are trivially true — the suite still runs.

constexpr ForestKernel kAllKernels[] = {ForestKernel::kScalar,
                                        ForestKernel::kAvx2};

// Row counts straddling the 8-row lockstep width and the AVX2 kernel's
// 32-row blocks: empty, single-row, exact multiples, one-off each side of
// one, two and three blocks (31/32/33, 63/64/65, 95/96/97), and remainders
// that fill scalar lockstep groups and leave a tail (47/48/49). Every
// whole-blocks-plus-scalar-remainder split must stay bit-identical to the
// legacy reference walk.
TEST(CompiledForestEdgeTest, RowCountsAroundLockstepWidth) {
  for (const bool linear_leaves : {false, true}) {
    const size_t kFeatures = 5;
    Dataset train = MakeData(1500, kFeatures, 211);
    MartParams params;
    params.num_trees = 60;
    params.linear_leaves = linear_leaves;
    Mart mart(params);
    mart.Fit(train);

    Rng rng(17);
    for (const size_t num_rows :
         {0u, 1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u, 47u, 48u, 49u,
          63u, 64u, 65u, 95u, 96u, 97u}) {
      std::vector<double> matrix(num_rows * kFeatures);
      for (auto& v : matrix) v = rng.Uniform(-50.0, 4000.0);
      std::vector<double> out(num_rows, -1.0);
      for (const ForestKernel kernel : kAllKernels) {
        std::fill(out.begin(), out.end(), -1.0);
        mart.compiled().PredictBatchWith(kernel, matrix.data(), num_rows,
                                         kFeatures, out.data());
        for (size_t i = 0; i < num_rows; ++i) {
          std::vector<double> row(matrix.begin() + i * kFeatures,
                                  matrix.begin() + (i + 1) * kFeatures);
          EXPECT_EQ(out[i], mart.PredictReference(row))
              << "rows=" << num_rows << " row " << i << " kernel "
              << static_cast<int>(kernel)
              << (linear_leaves ? " REGTREE" : " MART");
        }
      }
    }
  }
}

// stride > features the model references: the extra columns are poisoned
// with values that would corrupt any traversal that touched them (NaN
// fails every ordered compare toward the leaf-bound direction). The
// contract is that traversal never reads past the fitted features.
TEST(CompiledForestEdgeTest, StrideWiderThanReferencedFeatures) {
  const size_t kFeatures = 4;
  Dataset train = MakeData(1200, kFeatures, 331);
  MartParams params;
  params.num_trees = 50;
  Mart mart(params);
  mart.Fit(train);
  ASSERT_LE(mart.compiled().NumFeaturesReferenced(), kFeatures);

  const size_t kStride = 11;
  const size_t kRows = 37;  // not a lockstep multiple either
  Rng rng(23);
  std::vector<double> wide(kRows * kStride,
                           std::numeric_limits<double>::quiet_NaN());
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < kRows; ++i) {
    std::vector<double> x(kFeatures);
    for (auto& v : x) v = rng.Uniform(0.0, 2000.0);
    std::copy(x.begin(), x.end(), wide.begin() + i * kStride);
    for (size_t p = kFeatures; p < kStride; ++p) {
      wide[i * kStride + p] = (p % 2 != 0)
                                  ? std::numeric_limits<double>::quiet_NaN()
                                  : -1e300;
    }
    rows.push_back(std::move(x));
  }
  std::vector<double> out(kRows);
  for (const ForestKernel kernel : kAllKernels) {
    std::fill(out.begin(), out.end(), -1.0);
    mart.compiled().PredictBatchWith(kernel, wide.data(), kRows, kStride,
                                     out.data());
    for (size_t i = 0; i < kRows; ++i) {
      EXPECT_EQ(out[i], mart.PredictReference(rows[i]))
          << "row " << i << " kernel " << static_cast<int>(kernel);
    }
  }
}

// An empty forest (no trees at all) predicts f0 for every row, from both
// kernels, at any stride — and references no features.
TEST(CompiledForestEdgeTest, EmptyForestPredictsF0) {
  CompiledForest forest;
  forest.Compile(1.25, 0.1, {});
  EXPECT_TRUE(forest.empty());
  EXPECT_EQ(forest.NumTrees(), 0u);
  EXPECT_EQ(forest.NumFeaturesReferenced(), 0u);

  const std::vector<double> rows = {3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  EXPECT_EQ(forest.Predict(rows.data(), 2), 1.25);
  for (const ForestKernel kernel : kAllKernels) {
    std::vector<double> out(3, -1.0);
    forest.PredictBatchWith(kernel, rows.data(), out.size(), 2, out.data());
    for (const double v : out) EXPECT_EQ(v, 1.25);
  }
}

// Leaf-only trees (depth 0 — a constant per tree, the shape a degenerate
// fit produces) and node-less trees (which compile to a zero-value leaf)
// take zero traversal steps: no feature is ever read, so the batch runs
// correctly even though the forest references no input columns.
TEST(CompiledForestEdgeTest, LeafOnlyAndNodelessTreesAccumulateConstants) {
  auto leaf_tree = [](float value) {
    RegressionTree tree;
    TreeNode leaf;
    leaf.feature = -1;
    leaf.value = value;
    tree.mutable_nodes()->push_back(leaf);
    return tree;
  };
  std::vector<RegressionTree> trees;
  trees.push_back(leaf_tree(2.5f));
  trees.push_back(leaf_tree(-1.5f));
  trees.push_back(RegressionTree{});  // no nodes: compiles to a zero leaf
  trees.push_back(leaf_tree(0.25f));

  const double f0 = 0.75, lr = 0.3;
  CompiledForest forest;
  forest.Compile(f0, lr, trees);
  EXPECT_EQ(forest.NumTrees(), 4u);
  EXPECT_EQ(forest.NumFeaturesReferenced(), 0u);

  // Same accumulation the kernels perform: scalar, in boosting order.
  double expected = f0;
  for (const float leaf : {2.5f, -1.5f, 0.0f, 0.25f}) {
    expected += lr * static_cast<double>(leaf);
  }
  const std::vector<double> rows = {9.0, 8.0, 7.0, 6.0};
  EXPECT_EQ(forest.Predict(rows.data(), 1), expected);
  for (const ForestKernel kernel : kAllKernels) {
    for (const size_t num_rows : {1u, 4u, 9u}) {
      std::vector<double> out(num_rows, -1.0);
      // stride 0: every row aliases the same storage; legal because a
      // zero-step walk reads nothing.
      forest.PredictBatchWith(kernel, rows.data(), num_rows, 0, out.data());
      for (const double v : out) EXPECT_EQ(v, expected);
    }
  }
}

// The dispatch and its names stay consistent: the active kernel is one of
// the two, its name matches, and kAvx2 is active only where supported.
TEST(CompiledForestDispatchTest, ActiveKernelNameAndWidthAgree) {
  const ForestKernel active = CompiledForest::ActiveKernel();
  const std::string name = CompiledForest::ActiveKernelName();
  switch (active) {
    case ForestKernel::kAvx2:
      EXPECT_TRUE(CompiledForest::Avx2Supported());
      EXPECT_EQ(name, "avx2");
      break;
    case ForestKernel::kScalar:
      EXPECT_EQ(name, "scalar");
      break;
  }
}

// Direct AVX2-vs-reference oracle over a large random batch (on hosts
// without AVX2 the request falls back to scalar and the test still
// verifies the fallback): every row bit-identical, both tree flavors.
TEST(CompiledForestDispatchTest, Avx2MatchesReferenceBitwise) {
  for (const bool linear_leaves : {false, true}) {
    const size_t kFeatures = 7;
    Dataset train = MakeData(2000, kFeatures, 313);
    MartParams params;
    params.num_trees = 90;
    params.linear_leaves = linear_leaves;
    Mart mart(params);
    mart.Fit(train);

    Rng rng(23);
    const size_t kRows = 333;  // 10x32 vector rows + 13-row scalar remainder.
    std::vector<double> matrix(kRows * kFeatures);
    for (auto& v : matrix) v = rng.Uniform(-200.0, 6000.0);
    std::vector<double> out(kRows, -1.0);
    mart.compiled().PredictBatchWith(ForestKernel::kAvx2, matrix.data(),
                                     kRows, kFeatures, out.data());
    for (size_t i = 0; i < kRows; ++i) {
      std::vector<double> row(matrix.begin() + i * kFeatures,
                              matrix.begin() + (i + 1) * kFeatures);
      EXPECT_EQ(out[i], mart.PredictReference(row)) << "row " << i;
    }
  }
}

}  // namespace
}  // namespace resest
