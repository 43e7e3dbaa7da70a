// Tests for src/model: logistic regression, CART, forest, kNN, Platt
// calibration, and classification metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>

#include "src/data/generators.h"
#include "src/data/scaler.h"
#include "src/model/calibration.h"
#include "src/model/decision_tree.h"
#include "src/model/gbm.h"
#include "src/model/knn.h"
#include "src/model/logistic_regression.h"
#include "src/model/metrics.h"
#include "src/model/random_forest.h"
#include "src/model/softmax_regression.h"

namespace xfair {
namespace {

/// Linearly separable toy data: y = 1 iff x0 + x1 > 0.
Dataset SeparableData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> rows;
  std::vector<int> labels, groups;
  for (size_t i = 0; i < n; ++i) {
    double a = rng.Uniform(-2, 2), b = rng.Uniform(-2, 2);
    rows.push_back({a, b});
    labels.push_back(a + b > 0 ? 1 : 0);
    groups.push_back(rng.Bernoulli(0.5) ? 1 : 0);
  }
  Schema schema({FeatureSpec{"x0"}, FeatureSpec{"x1"}}, -1);
  return Dataset(schema, Matrix::FromRows(rows), labels, groups);
}

TEST(LogisticRegression, LearnsSeparableData) {
  Dataset d = SeparableData(500, 1);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(d).ok());
  EXPECT_GT(Accuracy(lr, d), 0.95);
  // Learned direction must be positive on both coordinates.
  EXPECT_GT(lr.weights()[0], 0.0);
  EXPECT_GT(lr.weights()[1], 0.0);
}

TEST(LogisticRegression, RejectsEmptyAndMismatchedWeights) {
  LogisticRegression lr;
  Schema schema({FeatureSpec{"x"}}, -1);
  Dataset empty(schema, Matrix(0, 1), {}, {});
  EXPECT_EQ(lr.Fit(empty).code(), StatusCode::kInvalidArgument);
  Dataset d = SeparableData(10, 2);
  EXPECT_EQ(lr.Fit(d, Vector{1.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(lr.Fit(d, Vector(10, 0.0)).code(),
            StatusCode::kInvalidArgument);
}

TEST(LogisticRegression, GradientMatchesFiniteDifference) {
  Dataset d = SeparableData(200, 3);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(d).ok());
  Vector x = {0.3, -0.7};
  Vector grad = lr.ProbaGradient(x);
  const double eps = 1e-6;
  for (size_t c = 0; c < x.size(); ++c) {
    Vector xp = x, xm = x;
    xp[c] += eps;
    xm[c] -= eps;
    const double fd =
        (lr.PredictProba(xp) - lr.PredictProba(xm)) / (2 * eps);
    EXPECT_NEAR(grad[c], fd, 1e-5);
  }
}

TEST(LogisticRegression, InstanceWeightsShiftModel) {
  // Weighting only class-1 instances should push predictions up.
  Dataset d = SeparableData(300, 4);
  Vector w(d.size(), 1.0);
  for (size_t i = 0; i < d.size(); ++i)
    if (d.label(i) == 1) w[i] = 10.0;
  LogisticRegression plain, weighted;
  ASSERT_TRUE(plain.Fit(d).ok());
  ASSERT_TRUE(weighted.Fit(d, w).ok());
  Vector x = {0.0, 0.0};
  EXPECT_GT(weighted.PredictProba(x), plain.PredictProba(x));
}

TEST(LogisticRegression, MarginAndBoundaryDistance) {
  LogisticRegression lr;
  lr.SetParameters({3.0, 4.0}, 0.0);  // ||w|| = 5
  Vector x = {1.0, 0.5};              // margin = 5
  EXPECT_NEAR(lr.Margin(x), 5.0, 1e-12);
  EXPECT_NEAR(lr.DistanceToBoundary(x), 1.0, 1e-12);
  lr.set_threshold(0.5);
  Vector on_boundary = {0.0, 0.0};
  EXPECT_NEAR(lr.DistanceToBoundary(on_boundary), 0.0, 1e-12);
}

TEST(DecisionTree, LearnsXor) {
  // XOR is non-linear: a depth-2 tree should nail it; LR cannot.
  std::vector<Vector> rows;
  std::vector<int> labels, groups;
  Rng rng(5);
  for (size_t i = 0; i < 400; ++i) {
    double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    rows.push_back({a, b});
    labels.push_back((a > 0) != (b > 0) ? 1 : 0);
    groups.push_back(0);
  }
  Schema schema({FeatureSpec{"x0"}, FeatureSpec{"x1"}}, -1);
  Dataset d(schema, Matrix::FromRows(rows), labels, groups);
  DecisionTree tree;
  DecisionTreeOptions opts;
  opts.max_depth = 5;
  opts.min_samples_leaf = 2;
  ASSERT_TRUE(tree.Fit(d, opts).ok());
  EXPECT_GT(Accuracy(tree, d), 0.93);
}

TEST(DecisionTree, RespectsMaxDepth) {
  Dataset d = SeparableData(300, 6);
  DecisionTree tree;
  DecisionTreeOptions opts;
  opts.max_depth = 1;
  ASSERT_TRUE(tree.Fit(d, opts).ok());
  // Depth 1 means at most 3 nodes (root + two leaves).
  EXPECT_LE(tree.nodes().size(), 3u);
}

TEST(DecisionTree, LeafIndexConsistentWithProba) {
  Dataset d = SeparableData(200, 7);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(d).ok());
  for (size_t i = 0; i < 20; ++i) {
    Vector x = d.instance(i);
    const int leaf = tree.LeafIndex(x);
    EXPECT_DOUBLE_EQ(tree.nodes()[static_cast<size_t>(leaf)].proba,
                     tree.PredictProba(x));
  }
}

TEST(DecisionTree, ZeroWeightsRejected) {
  Dataset d = SeparableData(50, 8);
  DecisionTree tree;
  EXPECT_EQ(tree.Fit(d, {}, Vector(50, 0.0)).code(),
            StatusCode::kInvalidArgument);
}

// The tree fits sort rows by (value, row), which has no strict order once
// a value is NaN: every tree model rejects non-finite features, naming
// the first one's row and column.
TEST(TreeModels, NonFiniteFeaturesRejected) {
  const Dataset good = SeparableData(60, 3);
  for (double v : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE(v);
    Matrix x = good.x();
    x.At(17, 1) = v;
    x.At(40, 0) = v;
    const Dataset bad(good.schema(), x, good.labels(), good.groups());
    GradientBoostedTrees gbm;
    DecisionTree tree;
    RandomForest forest;
    LogisticRegression lr;
    SoftmaxRegression softmax;
    KnnClassifier knn(3);
    for (const Status& st :
         {gbm.Fit(bad), tree.Fit(bad), forest.Fit(bad), lr.Fit(bad),
          softmax.Fit(bad.x(), bad.labels(), 2), knn.Fit(bad)}) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(st.message().find("row 17, column 1"), std::string::npos)
          << st.message();
    }
    EXPECT_FALSE(gbm.fitted());
    EXPECT_FALSE(tree.fitted());
    EXPECT_FALSE(forest.fitted());
    EXPECT_FALSE(lr.fitted());
    EXPECT_FALSE(softmax.fitted());
    EXPECT_FALSE(knn.fitted());
  }
}

// Every tree model checks a row's width against its widest split
// feature once per call, per row and per batch: a short row aborts
// instead of being read past its end.
using TreeModelsDeathTest = ::testing::Test;

TEST(TreeModelsDeathTest, ShortRowsAbort) {
  // The forest fit starts the thread pool; a re-executed child, unlike a
  // forked one, never inherits its locks.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Dataset credit = CreditGen().Generate(300, 14);
  DecisionTree tree;
  RandomForest forest;
  GradientBoostedTrees gbm;
  ASSERT_TRUE(tree.Fit(credit).ok());
  ASSERT_TRUE(forest.Fit(credit).ok());
  ASSERT_TRUE(gbm.Fit(credit).ok());
  for (const Model* model :
       std::initializer_list<const Model*>{&tree, &forest, &gbm}) {
    SCOPED_TRACE(model->name());
    EXPECT_DEATH((void)model->PredictProba(Vector(1, 0.0)),
                 "fewer features than the trees");
    EXPECT_DEATH((void)model->PredictProbaBatch(Matrix(3, 1)),
                 "fewer features than the trees");
  }
}

TEST(DecisionTree, NonFiniteWeightsRejected) {
  const Dataset d = SeparableData(50, 8);
  for (double v : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE(v);
    Vector weights(50, 1.0);
    weights[23] = v;
    DecisionTree tree;
    LogisticRegression lr;
    for (const Status& st :
         {tree.Fit(d, {}, weights), lr.Fit(d, weights)}) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(st.message().find("weight at row 23"), std::string::npos)
          << st.message();
    }
    EXPECT_FALSE(tree.fitted());
    EXPECT_FALSE(lr.fitted());
  }
}

TEST(RandomForest, BeatsSingleStumpOnCredit) {
  CreditGen gen;
  Dataset d = gen.Generate(1200, 9);
  Rng rng(10);
  auto [train, test] = d.Split(0.7, &rng);
  RandomForest forest;
  RandomForestOptions fo;
  fo.num_trees = 30;
  ASSERT_TRUE(forest.Fit(train, fo).ok());
  DecisionTree stump;
  DecisionTreeOptions so;
  so.max_depth = 1;
  ASSERT_TRUE(stump.Fit(train, so).ok());
  EXPECT_GE(Accuracy(forest, test), Accuracy(stump, test));
  EXPECT_GT(Auc(forest, test), 0.7);
}

TEST(RandomForest, ProbaIsMeanOfTrees) {
  Dataset d = SeparableData(200, 11);
  RandomForest forest;
  RandomForestOptions fo;
  fo.num_trees = 5;
  ASSERT_TRUE(forest.Fit(d, fo).ok());
  Vector x = {0.4, -0.2};
  double acc = 0.0;
  for (const auto& t : forest.trees()) acc += t.PredictProba(x);
  EXPECT_NEAR(forest.PredictProba(x), acc / 5.0, 1e-12);
}

TEST(Knn, PredictsByNeighborhood) {
  Dataset d = SeparableData(400, 12);
  KnnClassifier knn(7);
  ASSERT_TRUE(knn.Fit(d).ok());
  EXPECT_GT(Accuracy(knn, d), 0.9);
}

TEST(Knn, NeighborsSortedByDistance) {
  Dataset d = SeparableData(100, 13);
  KnnClassifier knn(5);
  ASSERT_TRUE(knn.Fit(d).ok());
  Vector x = {0.1, 0.1};
  auto nn = knn.Neighbors(x, 5);
  double prev = 0.0;
  for (size_t i : nn) {
    const double dist = Norm2(Sub(d.instance(i), x));
    EXPECT_GE(dist, prev);
    prev = dist;
  }
}

TEST(Knn, RejectsBadK) {
  Dataset d = SeparableData(5, 14);
  KnnClassifier knn(10);
  EXPECT_EQ(knn.Fit(d).code(), StatusCode::kInvalidArgument);
}

TEST(Calibration, ReducesCalibrationError) {
  CreditGen gen;
  Dataset d = gen.Generate(3000, 15);
  Rng rng(16);
  auto [train, rest] = d.Split(0.5, &rng);
  auto [calib, test] = rest.Split(0.5, &rng);
  RandomForest forest;  // Forests are typically over-confident.
  RandomForestOptions fo;
  fo.num_trees = 10;
  fo.max_depth = 10;
  ASSERT_TRUE(forest.Fit(train, fo).ok());
  PlattCalibrator platt(&forest);
  ASSERT_TRUE(platt.Fit(calib).ok());
  EXPECT_LE(ExpectedCalibrationError(platt, test),
            ExpectedCalibrationError(forest, test) + 0.02);
}

TEST(Metrics, ConfusionArithmetic) {
  Confusion c{.tp = 30, .fp = 10, .tn = 50, .fn = 10};
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.8);
  EXPECT_DOUBLE_EQ(c.tpr(), 0.75);
  EXPECT_DOUBLE_EQ(c.fnr(), 0.25);
  EXPECT_NEAR(c.fpr(), 10.0 / 60.0, 1e-12);
  EXPECT_DOUBLE_EQ(c.precision(), 0.75);
  EXPECT_DOUBLE_EQ(c.positive_rate(), 0.4);
}

TEST(Metrics, AucPerfectAndRandom) {
  Dataset d = SeparableData(300, 17);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(d).ok());
  EXPECT_GT(Auc(lr, d), 0.98);

  // Constant scores give AUC 0.5 via midranks.
  LogisticRegression flat;
  flat.SetParameters({0.0, 0.0}, 0.0);
  EXPECT_NEAR(Auc(flat, d), 0.5, 1e-12);
}

TEST(Metrics, ConfusionOnSubsetOnly) {
  Dataset d = SeparableData(100, 18);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(d).ok());
  auto g1 = d.GroupIndices(1);
  Confusion c = EvaluateConfusion(lr, d.Subset(g1));
  EXPECT_EQ(c.total(), g1.size());
}

}  // namespace
}  // namespace xfair
