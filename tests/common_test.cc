// Unit tests for src/common: PRNG, Zipf sampling, statistics, least squares,
// event-loop passes.
#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/loop_pass.h"
#include "src/common/matrix.h"
#include "src/common/rng.h"
#include "src/common/stats.h"

namespace resest {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.Gaussian());
  EXPECT_NEAR(Mean(xs), 0.0, 0.02);
  EXPECT_NEAR(StdDev(xs), 1.0, 0.02);
}

TEST(RngTest, LogNormalFactorMedianNearOne) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.LogNormalFactor(0.1));
  EXPECT_NEAR(Median(xs), 1.0, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  // Child stream differs from parent's continued stream.
  EXPECT_NE(child.Next(), a.Next());
}

TEST(ZipfTest, UniformWhenZZero) {
  ZipfSampler z(100, 0.0);
  Rng rng(3);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 100000; ++i) counts[static_cast<size_t>(z.Sample(&rng))]++;
  // Each value ~1000 expected; allow generous tolerance.
  for (int v = 1; v <= 100; ++v) EXPECT_GT(counts[static_cast<size_t>(v)], 500);
}

TEST(ZipfTest, SkewConcentratesMassOnSmallValues) {
  ZipfSampler z(1000, 1.5);
  Rng rng(3);
  int head = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) head += (z.Sample(&rng) <= 10);
  // With z=1.5 the top-10 values take the vast majority of the mass.
  EXPECT_GT(head, n / 2);
}

TEST(ZipfTest, SamplesStayInDomain) {
  for (double z : {0.0, 0.5, 1.0, 2.0}) {
    ZipfSampler s(50, z);
    Rng rng(17);
    for (int i = 0; i < 5000; ++i) {
      const int64_t v = s.Sample(&rng);
      EXPECT_GE(v, 1);
      EXPECT_LE(v, 50);
    }
  }
}

TEST(StatsTest, MeanMedianMinMax) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Mean(v), 3.0);
  EXPECT_DOUBLE_EQ(Median(v), 3.0);
  EXPECT_DOUBLE_EQ(Min(v), 1.0);
  EXPECT_DOUBLE_EQ(Max(v), 5.0);
}

TEST(StatsTest, VarianceOfConstantIsZero) {
  std::vector<double> v{2, 2, 2, 2};
  EXPECT_DOUBLE_EQ(Variance(v), 0.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 10.0);
}

TEST(StatsTest, CorrelationSignAndMagnitude) {
  std::vector<double> a{1, 2, 3, 4, 5};
  std::vector<double> b{2, 4, 6, 8, 10};
  EXPECT_NEAR(Correlation(a, b), 1.0, 1e-12);
  std::vector<double> c{10, 8, 6, 4, 2};
  EXPECT_NEAR(Correlation(a, c), -1.0, 1e-12);
}

TEST(StatsTest, L1RelativeErrorMatchesPaperDefinition) {
  // |est - actual| / est, averaged.
  std::vector<double> est{10, 20};
  std::vector<double> act{5, 30};
  // |10-5|/10 = 0.5 ; |20-30|/20 = 0.5 -> mean 0.5
  EXPECT_NEAR(L1RelativeError(est, act), 0.5, 1e-12);
}

TEST(StatsTest, RatioErrorSymmetric) {
  EXPECT_DOUBLE_EQ(RatioError(10, 5), 2.0);
  EXPECT_DOUBLE_EQ(RatioError(5, 10), 2.0);
  EXPECT_DOUBLE_EQ(RatioError(7, 7), 1.0);
}

TEST(StatsTest, RatioBucketsPartition) {
  std::vector<double> est{10, 10, 10};
  std::vector<double> act{10, 17, 30};  // ratios 1.0, 1.7, 3.0
  const RatioBuckets b = ComputeRatioBuckets(est, act);
  EXPECT_NEAR(b.le_1_5, 1.0 / 3, 1e-12);
  EXPECT_NEAR(b.in_1_5_2, 1.0 / 3, 1e-12);
  EXPECT_NEAR(b.gt_2, 1.0 / 3, 1e-12);
  EXPECT_NEAR(b.le_1_5 + b.in_1_5_2 + b.gt_2, 1.0, 1e-12);
}

TEST(WelfordTest, MatchesBatchStatistics) {
  Rng rng(23);
  Welford w;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(0, 10);
    xs.push_back(x);
    w.Add(x);
  }
  EXPECT_NEAR(w.mean(), Mean(xs), 1e-9);
  EXPECT_NEAR(w.variance(), Variance(xs), 1e-9);
}

TEST(MatrixTest, LeastSquaresRecoversCoefficients) {
  // y = 3 x0 - 2 x1 + 1 (with an intercept column of ones).
  Rng rng(31);
  Matrix x(200, 3);
  std::vector<double> y(200);
  for (size_t i = 0; i < 200; ++i) {
    const double a = rng.Uniform(-5, 5), b = rng.Uniform(-5, 5);
    x.at(i, 0) = a;
    x.at(i, 1) = b;
    x.at(i, 2) = 1.0;
    y[i] = 3 * a - 2 * b + 1;
  }
  std::vector<double> beta;
  ASSERT_TRUE(LeastSquares(x, y, &beta));
  EXPECT_NEAR(beta[0], 3.0, 1e-6);
  EXPECT_NEAR(beta[1], -2.0, 1e-6);
  EXPECT_NEAR(beta[2], 1.0, 1e-6);
}

TEST(MatrixTest, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a.at(0, 0) = 0.0;
  a.at(1, 1) = -1.0;
  std::vector<double> x;
  EXPECT_FALSE(CholeskySolve(a, {1.0, 1.0}, 0.0, &x));
}

TEST(MatrixTest, FitScaleExact) {
  std::vector<double> g{1, 2, 3};
  std::vector<double> y{2, 4, 6};
  EXPECT_NEAR(FitScale(g, y), 2.0, 1e-12);
}

TEST(MatrixTest, GramAndTransposeTimes) {
  Matrix x(2, 2);
  x.at(0, 0) = 1;
  x.at(0, 1) = 2;
  x.at(1, 0) = 3;
  x.at(1, 1) = 4;
  const Matrix g = x.Gram();
  EXPECT_DOUBLE_EQ(g.at(0, 0), 10);  // 1+9
  EXPECT_DOUBLE_EQ(g.at(0, 1), 14);  // 2+12
  EXPECT_DOUBLE_EQ(g.at(1, 1), 20);  // 4+16
  const auto xty = x.TransposeTimes({1.0, 1.0});
  EXPECT_DOUBLE_EQ(xty[0], 4);
  EXPECT_DOUBLE_EQ(xty[1], 6);
}

TEST(LoopPassTest, DeferredWorkRunsInOrderWhenTheOutermostPassCloses) {
  EXPECT_FALSE(LoopPass::Active());
  std::vector<int> ran;
  {
    LoopPass pass;
    EXPECT_TRUE(LoopPass::Active());
    LoopPass::Defer([&] { ran.push_back(1); });
    {
      LoopPass nested;  // joins the outer pass
      LoopPass::Defer([&] {
        ran.push_back(2);
        // Still inside the pass: work deferred now runs in the same close.
        EXPECT_TRUE(LoopPass::Active());
        LoopPass::Defer([&] { ran.push_back(4); });
      });
    }
    EXPECT_TRUE(ran.empty()) << "a nested pass must not run the outer's work";
    LoopPass::Defer([&] { ran.push_back(3); });
  }
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_FALSE(LoopPass::Active());

  // Each pass starts empty.
  {
    LoopPass pass;
  }
  EXPECT_EQ(ran.size(), 4u);
}

}  // namespace
}  // namespace resest
