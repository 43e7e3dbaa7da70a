// Golden equivalence tests for the polynomial tree fast paths
// (src/explain/tree_shap.h, src/util/kdtree.h, gopher's bitset lattice
// engine): every fast path is checked against the exponential /
// brute-force reference it replaces.

#include "src/explain/tree_shap.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/data/generators.h"
#include "src/model/gbm.h"
#include "src/model/knn.h"
#include "src/model/logistic_regression.h"
#include "src/obs/obs.h"
#include "src/unfair/fairness_shap.h"
#include "src/unfair/gopher.h"
#include "src/util/kdtree.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "tests/oracles/subgroup_oracle.h"
#include "tests/oracles/tree_shap_oracle.h"

namespace xfair {
namespace {

constexpr double kTol = 1e-9;

/// The masking game ShapExplainInstance evaluates — the reference for the
/// interventional algorithm.
using oracles::MaskingGame;

void ExpectNearVector(const Vector& a, const Vector& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], tol) << "feature " << i;
}

double Total(const Vector& v) {
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc;
}

#ifndef XFAIR_OBS_DISABLED
/// Reads one obs counter by name (0 if it never ticked).
uint64_t CounterValue(const std::string& name) {
  for (const auto& c : obs::SnapshotCounters()) {
    if (c.name == name) return c.value;
  }
  return 0;
}
#endif  // XFAIR_OBS_DISABLED

class TreeShapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = CreditGen().Generate(600, 71);
    for (size_t i = 0; i < 5; ++i) instances_.push_back(11 * i + 3);
  }

  Dataset data_;
  std::vector<size_t> instances_;
};

TEST_F(TreeShapTest, InterventionalMatchesExactShapleyOnTree) {
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data_).ok());
  Matrix background(30, data_.num_features());
  for (size_t b = 0; b < background.rows(); ++b)
    for (size_t c = 0; c < background.cols(); ++c)
      background.At(b, c) = data_.x().At(b, c);
  for (size_t i : instances_) {
    const Vector x = data_.instance(i);
    const TreeShapExplanation fast =
        InterventionalTreeShap(tree, background, x);
    const Vector exact =
        ExactShapley(MaskingGame(tree, background, x), x.size());
    ExpectNearVector(fast.phi, exact, kTol);
    EXPECT_NEAR(fast.base_value + Total(fast.phi), tree.PredictProba(x),
                kTol);
  }
}

TEST_F(TreeShapTest, InterventionalMatchesExactShapleyOnForest) {
  RandomForest forest;
  RandomForestOptions opts;
  opts.num_trees = 8;
  ASSERT_TRUE(forest.Fit(data_, opts).ok());
  Matrix background(20, data_.num_features());
  for (size_t b = 0; b < background.rows(); ++b)
    for (size_t c = 0; c < background.cols(); ++c)
      background.At(b, c) = data_.x().At(3 * b, c);
  for (size_t i : instances_) {
    const Vector x = data_.instance(i);
    const TreeShapExplanation fast =
        InterventionalTreeShap(forest, background, x);
    const Vector exact =
        ExactShapley(MaskingGame(forest, background, x), x.size());
    ExpectNearVector(fast.phi, exact, kTol);
    EXPECT_NEAR(fast.base_value + Total(fast.phi), forest.PredictProba(x),
                kTol);
  }
}

TEST_F(TreeShapTest, DecisionTreeIsTheOneTreeForestBitForBit) {
  // Both overloads run one engine over a ShapModel; a tree's model is the
  // one-tree forest's, so the two must agree at 0 ulp, not merely closely.
  RandomForest forest;
  RandomForestOptions opts;
  opts.num_trees = 1;
  ASSERT_TRUE(forest.Fit(data_, opts).ok());
  ASSERT_EQ(forest.trees().size(), 1u);
  const DecisionTree& tree = forest.trees()[0];
  Matrix background(30, data_.num_features());
  for (size_t b = 0; b < background.rows(); ++b)
    background.SetRow(b, data_.instance(4 * b + 1));
  for (size_t i : instances_) {
    const Vector x = data_.instance(i);
    const TreeShapExplanation t = InterventionalTreeShap(tree, background, x);
    const TreeShapExplanation f =
        InterventionalTreeShap(forest, background, x);
    EXPECT_EQ(t.base_value, f.base_value) << "instance " << i;
    ASSERT_EQ(t.phi.size(), f.phi.size());
    for (size_t c = 0; c < t.phi.size(); ++c)
      EXPECT_EQ(t.phi[c], f.phi[c]) << "instance " << i << " f " << c;
  }
  Matrix xs(50, data_.num_features());
  for (size_t i = 0; i < xs.rows(); ++i) xs.SetRow(i, data_.instance(200 + i));
  const TreeShapBatchExplanation tb =
      InterventionalTreeShapBatch(tree, background, xs);
  const TreeShapBatchExplanation fb =
      InterventionalTreeShapBatch(forest, background, xs);
  for (size_t i = 0; i < xs.rows(); ++i) {
    EXPECT_EQ(tb.base_values[i], fb.base_values[i]) << "row " << i;
    for (size_t c = 0; c < xs.cols(); ++c)
      EXPECT_EQ(tb.phi.At(i, c), fb.phi.At(i, c)) << "row " << i << " f " << c;
  }
}

TEST_F(TreeShapTest, FeaturesOffEveryPathGetExactlyZero) {
  // Shapley's dummy axiom: a feature no split reads cannot change any
  // coalition's value, so its attribution is exactly 0.0 (no walk ever
  // touches its slot), per instance and batched.
  DecisionTreeOptions topts;
  topts.max_depth = 2;
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data_, topts).ok());
  RandomForestOptions fopts;
  fopts.num_trees = 3;
  fopts.max_depth = 1;
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(data_, fopts).ok());
  const size_t d = data_.num_features();
  std::vector<bool> tree_reads(d, false), forest_reads(d, false);
  for (const TreeNode& n : tree.nodes())
    if (n.feature >= 0) tree_reads[static_cast<size_t>(n.feature)] = true;
  for (const DecisionTree& t : forest.trees())
    for (const TreeNode& n : t.nodes())
      if (n.feature >= 0) forest_reads[static_cast<size_t>(n.feature)] = true;
  ASSERT_LT(std::count(tree_reads.begin(), tree_reads.end(), true),
            static_cast<long>(d));
  ASSERT_LT(std::count(forest_reads.begin(), forest_reads.end(), true),
            static_cast<long>(d));
  Matrix background(20, d);
  for (size_t b = 0; b < background.rows(); ++b)
    background.SetRow(b, data_.instance(3 * b));
  Matrix xs(40, d);
  for (size_t i = 0; i < xs.rows(); ++i) xs.SetRow(i, data_.instance(300 + i));
  const TreeShapBatchExplanation tb =
      InterventionalTreeShapBatch(tree, background, xs);
  const TreeShapBatchExplanation fb =
      InterventionalTreeShapBatch(forest, background, xs);
  for (size_t i = 0; i < xs.rows(); ++i) {
    const Vector t = InterventionalTreeShap(tree, background, xs.Row(i)).phi;
    const Vector f =
        InterventionalTreeShap(forest, background, xs.Row(i)).phi;
    for (size_t c = 0; c < d; ++c) {
      if (!tree_reads[c]) {
        EXPECT_EQ(t[c], 0.0) << "tree row " << i << " f " << c;
        EXPECT_EQ(tb.phi.At(i, c), 0.0) << "tree row " << i << " f " << c;
      }
      if (!forest_reads[c]) {
        EXPECT_EQ(f[c], 0.0) << "forest row " << i << " f " << c;
        EXPECT_EQ(fb.phi.At(i, c), 0.0) << "forest row " << i << " f " << c;
      }
    }
  }
}

TEST_F(TreeShapTest, OneBackgroundRowGameIsAntisymmetric) {
  // With one background row z, v_{x,z}(S) = f(x_S, z_~S) = v_{z,x}(~S),
  // so swapping the explained row and the background row negates every
  // attribution, and the base value is f(z). Explaining z against itself
  // leaves every feature at exactly 0.
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data_).ok());
  RandomForest forest;
  RandomForestOptions opts;
  opts.num_trees = 6;
  ASSERT_TRUE(forest.Fit(data_, opts).ok());
  const auto expect_antisymmetric = [&](const auto& model) {
    const auto explain = [&](const Vector& x, const Vector& z) {
      Matrix background(1, z.size());
      background.SetRow(0, z);
      return InterventionalTreeShap(model, background, x);
    };
    for (size_t i : instances_) {
      const Vector x = data_.instance(i);
      const Vector z = data_.instance(i + 250);
      const TreeShapExplanation xz = explain(x, z);
      const TreeShapExplanation zx = explain(z, x);
      EXPECT_NEAR(xz.base_value, model.PredictProba(z), kTol);
      EXPECT_NEAR(zx.base_value, model.PredictProba(x), kTol);
      for (size_t c = 0; c < x.size(); ++c)
        EXPECT_NEAR(xz.phi[c], -zx.phi[c], kTol)
            << model.name() << " instance " << i << " f " << c;
      const TreeShapExplanation zz = explain(z, z);
      EXPECT_NEAR(zz.base_value, model.PredictProba(z), kTol);
      for (size_t c = 0; c < z.size(); ++c)
        EXPECT_EQ(zz.phi[c], 0.0)
            << model.name() << " instance " << i << " f " << c;
    }
  };
  expect_antisymmetric(tree);
  expect_antisymmetric(forest);
}

TEST_F(TreeShapTest, ShapExplainInstanceDispatchesTreesToTreeShap) {
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data_).ok());
  RandomForest forest;
  RandomForestOptions opts;
  opts.num_trees = 8;
  ASSERT_TRUE(forest.Fit(data_, opts).ok());
  std::vector<size_t> keep;
  for (size_t i = 0; i < 25; ++i) keep.push_back(i);
  const Dataset background = data_.Subset(keep);
  const Vector x = data_.instance(100);
  Rng rng(5);
  const Vector via_dispatch =
      ShapExplainInstance(forest, background, x, 50, &rng);
  const TreeShapExplanation direct =
      InterventionalTreeShap(forest, background.x(), x);
  // Same code path — bit-identical, not merely close.
  ASSERT_EQ(via_dispatch.size(), direct.phi.size());
  for (size_t c = 0; c < via_dispatch.size(); ++c)
    EXPECT_EQ(via_dispatch[c], direct.phi[c]);
  // ShapExplainBatch, the serving route, equals the per-instance route
  // row for row at 0 ulp on both tree models.
  Matrix xs(60, data_.num_features());
  for (size_t i = 0; i < xs.rows(); ++i) xs.SetRow(i, data_.instance(100 + i));
  const Model* models[] = {&tree, &forest};
  for (const Model* model : models) {
    const Matrix batch = ShapExplainBatch(*model, background, xs, 50, &rng);
    ASSERT_EQ(batch.rows(), xs.rows());
    ASSERT_EQ(batch.cols(), xs.cols());
    for (size_t i = 0; i < xs.rows(); ++i) {
      const Vector one =
          ShapExplainInstance(*model, background, xs.Row(i), 50, &rng);
      for (size_t c = 0; c < xs.cols(); ++c)
        EXPECT_EQ(batch.At(i, c), one[c])
            << model->name() << " row " << i << " f " << c;
    }
  }
}

TEST_F(TreeShapTest, FairnessShapTreeFastPathMatchesGenericEngine) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  const Dataset data = CreditGen(cfg).Generate(500, 73);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data).ok());
  const FairnessShapOptions opts;  // kMask by default.
  // Behind the black-box wrapper the tree takes the generic engine.
  const FairnessShapReport fast = ExplainParityWithShapley(tree, data, opts);
  const FairnessShapReport slow =
      ExplainParityWithShapley(oracles::BlackBoxModel(tree), data, opts);
  // d = 8 <= 10, so the generic engine is ExactShapley: both sides are
  // exact solutions of the same game.
  ExpectNearVector(fast.contributions, slow.contributions, kTol);
  EXPECT_DOUBLE_EQ(fast.full_gap, slow.full_gap);
  EXPECT_DOUBLE_EQ(fast.baseline_gap, slow.baseline_gap);
  EXPECT_NEAR(Total(fast.contributions), fast.full_gap - fast.baseline_gap,
              kTol);
}

TEST_F(TreeShapTest, GbmStaysOnTheGenericMaskingEngine) {
  // sigmoid(sum of trees) does not factor over paths, so GBMs are not
  // routed to TreeSHAP: ShapExplainInstance and ShapExplainBatch solve the
  // same masking game by coalition enumeration (d = 8 <= 10).
  GradientBoostedTrees gbm;
  GbmOptions opts;
  opts.num_rounds = 15;
  ASSERT_TRUE(gbm.Fit(data_, opts).ok());
  std::vector<size_t> keep;
  for (size_t i = 0; i < 10; ++i) keep.push_back(6 * i);
  const Dataset background = data_.Subset(keep);
  Matrix xs(2, data_.num_features());
  xs.SetRow(0, data_.instance(instances_[0]));
  xs.SetRow(1, data_.instance(instances_[1]));
#ifndef XFAIR_OBS_DISABLED
  const uint64_t iv_calls = CounterValue("tree_shap/interventional_calls");
  const uint64_t batch_calls = CounterValue("tree_shap/batch_calls");
#endif
  Rng rng(17);
  const Matrix batch = ShapExplainBatch(gbm, background, xs, 50, &rng);
  ASSERT_EQ(batch.rows(), xs.rows());
  ASSERT_EQ(batch.cols(), xs.cols());
  double base = 0.0;
  for (size_t b = 0; b < background.size(); ++b)
    base += gbm.PredictProba(background.instance(b));
  base /= static_cast<double>(background.size());
  for (size_t i = 0; i < xs.rows(); ++i) {
    const Vector x = xs.Row(i);
    const Vector phi = ShapExplainInstance(gbm, background, x, 50, &rng);
    const Vector exact =
        ExactShapley(MaskingGame(gbm, background.x(), x), x.size());
    ExpectNearVector(phi, exact, kTol);
    ExpectNearVector(batch.Row(i), exact, kTol);
    EXPECT_NEAR(base + Total(phi), gbm.PredictProba(x), kTol);
  }
#ifndef XFAIR_OBS_DISABLED
  EXPECT_EQ(CounterValue("tree_shap/interventional_calls"), iv_calls);
  EXPECT_EQ(CounterValue("tree_shap/batch_calls"), batch_calls);
#endif
}

// --- Batched engines --------------------------------------------------
//
// The batch entry points promise bit-identity with their per-instance
// references, not closeness: every comparison below is EXPECT_EQ (0 ulp).

TEST_F(TreeShapTest, InterventionalBatchMatchesPerInstanceBitForBit) {
  DecisionTree tree;
  RandomForest forest;
  RandomForestOptions fopts;
  fopts.num_trees = 7;
  ASSERT_TRUE(tree.Fit(data_).ok());
  ASSERT_TRUE(forest.Fit(data_, fopts).ok());
  Matrix background(40, data_.num_features());
  for (size_t b = 0; b < background.rows(); ++b)
    for (size_t c = 0; c < background.cols(); ++c)
      background.At(b, c) = data_.x().At(2 * b, c);
  Matrix xs(120, data_.num_features());
  for (size_t i = 0; i < xs.rows(); ++i) xs.SetRow(i, data_.instance(i));
  const TreeShapBatchExplanation tb =
      InterventionalTreeShapBatch(tree, background, xs);
  const TreeShapBatchExplanation fb =
      InterventionalTreeShapBatch(forest, background, xs);
  for (size_t i = 0; i < xs.rows(); ++i) {
    const TreeShapExplanation t1 =
        InterventionalTreeShap(tree, background, xs.Row(i));
    const TreeShapExplanation f1 =
        InterventionalTreeShap(forest, background, xs.Row(i));
    EXPECT_EQ(tb.base_values[i], t1.base_value);
    EXPECT_EQ(fb.base_values[i], f1.base_value);
    for (size_t c = 0; c < xs.cols(); ++c) {
      EXPECT_EQ(tb.phi.At(i, c), t1.phi[c]) << "row " << i << " f " << c;
      EXPECT_EQ(fb.phi.At(i, c), f1.phi[c]) << "row " << i << " f " << c;
    }
  }
}

TEST_F(TreeShapTest, BatchIntoReshapesTheCallersBuffers) {
  // The Into forms reuse the caller's buffers across calls of any shape
  // and model: each call leaves exactly its own rows, no stale values.
  DecisionTree tree;
  RandomForest forest;
  RandomForestOptions fopts;
  fopts.num_trees = 5;
  ASSERT_TRUE(tree.Fit(data_).ok());
  ASSERT_TRUE(forest.Fit(data_, fopts).ok());
  const size_t d = data_.num_features();
  Matrix background(12, d);
  for (size_t b = 0; b < background.rows(); ++b)
    background.SetRow(b, data_.instance(7 * b));
  Matrix wide(90, d), narrow(30, d);
  for (size_t i = 0; i < wide.rows(); ++i) wide.SetRow(i, data_.instance(i));
  for (size_t i = 0; i < narrow.rows(); ++i)
    narrow.SetRow(i, data_.instance(400 + i));
  Matrix phi;
  Vector base;
  InterventionalTreeShapBatchInto(forest, background, wide, &phi, &base);
  ASSERT_EQ(phi.rows(), wide.rows());
  ASSERT_EQ(phi.cols(), d);
  ASSERT_EQ(base.size(), wide.rows());
  const auto expect_narrow_rows = [&](const auto& model) {
    ASSERT_EQ(phi.rows(), narrow.rows());
    ASSERT_EQ(phi.cols(), d);
    ASSERT_EQ(base.size(), narrow.rows());
    for (size_t i = 0; i < narrow.rows(); ++i) {
      const TreeShapExplanation one =
          InterventionalTreeShap(model, background, narrow.Row(i));
      EXPECT_EQ(base[i], one.base_value) << model.name() << " row " << i;
      for (size_t c = 0; c < d; ++c)
        EXPECT_EQ(phi.At(i, c), one.phi[c])
            << model.name() << " row " << i << " f " << c;
    }
  };
  // Shrink, then keep the shape but switch the model.
  InterventionalTreeShapBatchInto(tree, background, narrow, &phi, &base);
  expect_narrow_rows(tree);
  InterventionalTreeShapBatchInto(forest, background, narrow, &phi, &base);
  expect_narrow_rows(forest);
  // An empty batch leaves empty buffers of the right width.
  InterventionalTreeShapBatchInto(tree, background, Matrix(0, d), &phi,
                                  &base);
  EXPECT_EQ(phi.rows(), 0u);
  EXPECT_EQ(phi.cols(), d);
  EXPECT_TRUE(base.empty());
}

TEST_F(TreeShapTest, ThresholdedSweepMatchesLoopedWalksBitForBit) {
  // 1300 sampled rows span a full 1024-instance tile plus a ragged tail,
  // with signed non-uniform weights shaped like the fairness game's.
  const Dataset wide = CreditGen().Generate(1300, 75);
  const size_t d = wide.num_features();
  Vector z(d, 0.0);
  for (size_t i = 0; i < wide.size(); ++i)
    for (size_t c = 0; c < d; ++c) z[c] += wide.x().At(i, c);
  for (size_t c = 0; c < d; ++c) z[c] /= static_cast<double>(wide.size());
  std::vector<size_t> rows(wide.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Vector weights(rows.size());
  for (size_t i = 0; i < rows.size(); ++i)
    weights[i] = (wide.group(i) == 0 ? 1.0 : -1.0) /
                 (1.0 + static_cast<double>(i % 7));
  // Depth 6 keeps every path within the leaf-memo budget; depth 9 with a
  // tiny leaf floor pushes paths past it, exercising the unmemoized branch.
  for (size_t depth : {size_t{6}, size_t{9}}) {
    DecisionTreeOptions opts;
    opts.max_depth = depth;
    opts.min_samples_leaf = 2;
    DecisionTree tree;
    ASSERT_TRUE(tree.Fit(wide, opts).ok());
    const Vector batched = InterventionalTreeShapThresholded(
        tree, wide.x(), rows, weights, z, tree.threshold());
    const Vector looped = oracles::InterventionalTreeShapThresholdedLooped(
        tree, wide.x(), rows, weights, z, tree.threshold());
    ASSERT_EQ(batched.size(), d);
    ASSERT_EQ(looped.size(), d);
    for (size_t c = 0; c < d; ++c)
      EXPECT_EQ(batched[c], looped[c]) << "depth " << depth << " f " << c;
    // Warm arenas and leaf memos must not change a single bit.
    const Vector again = InterventionalTreeShapThresholded(
        tree, wide.x(), rows, weights, z, tree.threshold());
    for (size_t c = 0; c < d; ++c)
      EXPECT_EQ(again[c], batched[c]) << "depth " << depth << " f " << c;
  }
}

#ifndef XFAIR_OBS_DISABLED
TEST_F(TreeShapTest, BatchSteadyStateGrowsNoArenas) {
  SetParallelThreads(1);  // One worker arena, deterministic accounting.
  RandomForest forest;
  RandomForestOptions opts;
  opts.num_trees = 9;
  ASSERT_TRUE(forest.Fit(data_, opts).ok());
  Matrix background(20, data_.num_features());
  for (size_t b = 0; b < background.rows(); ++b)
    background.SetRow(b, data_.instance(5 * b));
  Matrix phi;
  Vector base;
  const auto batch = [&] {
    InterventionalTreeShapBatchInto(forest, background, data_.x(), &phi,
                                    &base);
  };
  // Two warmup calls: the first sizes the arena, the second proves the
  // shape converged.
  batch();
  batch();
  const uint64_t grows = CounterValue("tree_shap/arena_grows");
  const uint64_t reuses = CounterValue("tree_shap/arena_reuses");
  batch();
  EXPECT_EQ(CounterValue("tree_shap/arena_grows") - grows, 0u)
      << "steady-state batch call grew an arena";
  EXPECT_GE(CounterValue("tree_shap/arena_reuses") - reuses, 1u);
  SetParallelThreads(0);
}

TEST_F(TreeShapTest, ThresholdedSweepSteadyStateGrowsNoArenas) {
  SetParallelThreads(1);  // One worker arena, deterministic accounting.
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data_).ok());
  const size_t d = data_.num_features();
  Vector z(d, 0.0);
  for (size_t i = 0; i < data_.size(); ++i)
    for (size_t c = 0; c < d; ++c) z[c] += data_.x().At(i, c);
  for (size_t c = 0; c < d; ++c) z[c] /= static_cast<double>(data_.size());
  std::vector<size_t> rows(data_.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const Vector weights(rows.size(), 1.0 / static_cast<double>(rows.size()));
  const auto sweep = [&] {
    return InterventionalTreeShapThresholded(tree, data_.x(), rows, weights,
                                             z, tree.threshold());
  };
  // Two warmup calls: the first sizes the arenas, the second proves the
  // shape converged.
  sweep();
  sweep();
  const uint64_t grows = CounterValue("tree_shap/arena_grows");
  const uint64_t reuses = CounterValue("tree_shap/arena_reuses");
  sweep();
  EXPECT_EQ(CounterValue("tree_shap/arena_grows") - grows, 0u)
      << "steady-state thresholded sweep grew an arena";
  EXPECT_GE(CounterValue("tree_shap/arena_reuses") - reuses, 1u);
  SetParallelThreads(0);
}

TEST_F(TreeShapTest, NodeCacheBuildsOncePerFit) {
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data_).ok());
  Matrix background(3, data_.num_features());
  for (size_t b = 0; b < background.rows(); ++b)
    background.SetRow(b, data_.instance(b + 1));
  const uint64_t builds = CounterValue("tree_shap/node_cache_builds");
  for (int r = 0; r < 3; ++r) {
    (void)InterventionalTreeShap(tree, background, data_.instance(0));
  }
  EXPECT_EQ(CounterValue("tree_shap/node_cache_builds") - builds, 1u)
      << "same fitted model should convert to ShapNodes exactly once";
  // Refitting invalidates the cached conversion.
  ASSERT_TRUE(tree.Fit(data_).ok());
  (void)InterventionalTreeShap(tree, background, data_.instance(0));
  EXPECT_EQ(CounterValue("tree_shap/node_cache_builds") - builds, 2u);
}
#endif  // XFAIR_OBS_DISABLED

// --- KD-tree ----------------------------------------------------------

/// Brute-force (squared distance, index) reference over matrix rows.
std::vector<size_t> BruteKnn(const Matrix& pts, const double* q, size_t k) {
  std::vector<std::pair<double, size_t>> dist(pts.rows());
  for (size_t i = 0; i < pts.rows(); ++i) {
    double acc = 0.0;
    for (size_t c = 0; c < pts.cols(); ++c) {
      const double diff = pts.At(i, c) - q[c];
      acc += diff * diff;
    }
    dist[i] = {acc, i};
  }
  std::sort(dist.begin(), dist.end());
  std::vector<size_t> out(k);
  for (size_t i = 0; i < k; ++i) out[i] = dist[i].second;
  return out;
}

TEST(KdTree, MatchesBruteForceIncludingDuplicateRowTies) {
  // Duplicate rows force exact-distance ties: the index must order them
  // by ascending row id exactly as the stable brute force does.
  Matrix pts(7, 2);
  const double raw[7][2] = {{0, 0}, {1, 0}, {1, 0}, {0, 1},
                            {1, 0}, {2, 2}, {0, 0}};
  for (size_t r = 0; r < 7; ++r)
    for (size_t c = 0; c < 2; ++c) pts.At(r, c) = raw[r][c];
  const KdTree kd(pts, /*leaf_size=*/1);
  const double q[2] = {1.0, 0.0};
  EXPECT_EQ(kd.KNearest(q, 4), (std::vector<size_t>{1, 2, 4, 0}));
  for (size_t k = 1; k <= 7; ++k) {
    EXPECT_EQ(kd.KNearest(q, k), BruteKnn(pts, q, k)) << "k=" << k;
  }
  // Self-queries: the row itself is distance zero and must come first.
  for (size_t r = 0; r < 7; ++r) {
    const auto nn = kd.KNearest(pts.RowPtr(r), 7);
    EXPECT_EQ(nn, BruteKnn(pts, pts.RowPtr(r), 7)) << "row " << r;
  }
}

TEST(KdTree, AllDuplicatePointsDegenerateToOneLeaf) {
  // Zero spread in every dimension: the build must keep a single leaf
  // (split_dim stays -1) instead of recursing forever, and queries must
  // return rows in ascending id order (all distances tie).
  Matrix pts(9, 3);
  for (size_t r = 0; r < 9; ++r)
    for (size_t c = 0; c < 3; ++c) pts.At(r, c) = 4.25;
  const KdTree kd(pts, /*leaf_size=*/2);
  const double q[3] = {4.25, 4.25, 4.25};
  for (size_t k = 1; k <= 9; ++k) {
    EXPECT_EQ(kd.KNearest(q, k), BruteKnn(pts, q, k)) << "k=" << k;
  }
  const double far[3] = {-100.0, 0.0, 50.0};
  EXPECT_EQ(kd.KNearest(far, 9), BruteKnn(pts, far, 9));
}

TEST(KdTree, ZeroVarianceDimensionsNeverSplit) {
  // Only dimension 1 varies; dimensions 0 and 2 are constant. Splits must
  // all land on dimension 1 and queries must still match brute force,
  // including ties between rows identical in the varying dimension.
  Matrix pts(12, 3);
  const double vary[12] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 1};
  for (size_t r = 0; r < 12; ++r) {
    pts.At(r, 0) = 7.0;
    pts.At(r, 1) = vary[r];
    pts.At(r, 2) = -2.0;
  }
  const KdTree kd(pts, /*leaf_size=*/1);
  for (size_t qi : {0u, 5u, 11u}) {
    for (size_t k = 1; k <= 12; ++k) {
      EXPECT_EQ(kd.KNearest(pts.RowPtr(qi), k),
                BruteKnn(pts, pts.RowPtr(qi), k))
          << "query " << qi << " k=" << k;
    }
  }
  const double between[3] = {7.0, 4.5, -2.0};
  EXPECT_EQ(kd.KNearest(between, 12), BruteKnn(pts, between, 12));
}

TEST(KdTree, MatchesBruteForceOnRealisticData) {
  const Dataset data = CreditGen().Generate(400, 81);
  const KdTree kd(data.x());
  for (size_t qi : {0u, 17u, 200u, 399u}) {
    const double* q = data.x().RowPtr(qi);
    for (size_t k : {1u, 5u, 32u, 400u}) {
      EXPECT_EQ(kd.KNearest(q, k), BruteKnn(data.x(), q, k))
          << "query " << qi << " k=" << k;
    }
  }
}

TEST(KdTree, KnnClassifierIndexAgreesWithBruteForceScan) {
  const Dataset data = CreditGen().Generate(350, 82);
  KnnClassifier knn(5);
  ASSERT_TRUE(knn.Fit(data).ok());
  const Dataset probe = CreditGen().Generate(40, 83);
  for (size_t i = 0; i < probe.size(); ++i) {
    const Vector x = probe.instance(i);
    for (size_t k : {1u, 5u, 25u}) {
      EXPECT_EQ(knn.Neighbors(x, k), knn.NeighborsBruteForce(x, k))
          << "probe " << i << " k=" << k;
    }
  }
  EXPECT_EQ(knn.Neighbors(probe.instance(0), data.size()),
            knn.NeighborsBruteForce(probe.instance(0), data.size()));
}

// --- Gopher bitset lattice engine -------------------------------------

// The vertical-bitset engine must be bit-identical (0 ulp) to the looped
// oracle (tests/oracles/subgroup_oracle.h) at every depth, including
// ragged n % 64 != 0 (400 = 6*64 + 16) and exact multiples (448 = 7*64).
TEST(GopherBitsetEngine, MatchesLoopedOracleBitForBitAtEveryDepth) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  for (size_t n : {400u, 448u}) {
    const Dataset data = CreditGen(cfg).Generate(n, 91);
    LogisticRegression model;
    ASSERT_TRUE(model.Fit(data).ok());
    for (size_t depth : {1u, 2u, 3u, 4u}) {
      GopherOptions opts;
      opts.max_conditions = depth;
      opts.min_support = 0.05;  // Keeps depth 4 tractable.
      opts.optimistic_prune = false;  // Exact examined counts.
      const auto fast = ExplainUnfairnessByPatterns(model, data, opts);
      const auto slow =
          oracles::ExplainUnfairnessByPatternsLooped(model, data, opts);
      ASSERT_TRUE(fast.ok() && slow.ok());
      EXPECT_EQ(fast->patterns_examined, slow->patterns_examined)
          << "n=" << n << " depth=" << depth;
      EXPECT_EQ(fast->original_gap, slow->original_gap);
      ASSERT_EQ(fast->patterns.size(), slow->patterns.size());
      for (size_t i = 0; i < fast->patterns.size(); ++i) {
        EXPECT_EQ(fast->patterns[i].description,
                  slow->patterns[i].description);
        EXPECT_EQ(fast->patterns[i].support, slow->patterns[i].support);
        EXPECT_EQ(fast->patterns[i].estimated_gap_change,
                  slow->patterns[i].estimated_gap_change);
        EXPECT_EQ(fast->patterns[i].verified_gap_change,
                  slow->patterns[i].verified_gap_change);
      }
    }
  }
}

// The optimistic bound only skips subtrees that provably cannot reach the
// top-k: the reported patterns are identical with pruning on and off, and
// pruning never examines more.
TEST(GopherBitsetEngine, OptimisticPruneKeepsTopKExact) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  const Dataset data = CreditGen(cfg).Generate(500, 92);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  GopherOptions pruned_opts;
  pruned_opts.max_conditions = 3;
  pruned_opts.min_support = 0.03;
  pruned_opts.optimistic_prune = true;
  GopherOptions full_opts = pruned_opts;
  full_opts.optimistic_prune = false;
  const auto pruned = ExplainUnfairnessByPatterns(model, data, pruned_opts);
  const auto full = ExplainUnfairnessByPatterns(model, data, full_opts);
  ASSERT_TRUE(pruned.ok() && full.ok());
  EXPECT_LE(pruned->patterns_examined, full->patterns_examined);
  EXPECT_EQ(full->bound_pruned, 0u);
  ASSERT_EQ(pruned->patterns.size(), full->patterns.size());
  for (size_t i = 0; i < pruned->patterns.size(); ++i) {
    EXPECT_EQ(pruned->patterns[i].description, full->patterns[i].description);
    EXPECT_EQ(pruned->patterns[i].support, full->patterns[i].support);
    EXPECT_EQ(pruned->patterns[i].estimated_gap_change,
              full->patterns[i].estimated_gap_change);
  }
}

// Regression for the dropped dense pair table: a schema with num_sids >
// 4096 (the old table's hard cap, where it fell back to per-candidate row
// scans after sizing a num_sids^2 buffer) still routes through the
// lattice engine and matches the oracle exactly.
TEST(GopherBitsetEngine, HighCardinalitySchemaStaysOnFastPath) {
  // Two low-cardinality "real" features plus enough continuous noise
  // columns to push num_sids past 4096 at 16 bins each.
  const size_t n = 450, noise = 258;
  Rng rng(93);
  Matrix x(n, 2 + noise);
  std::vector<int> labels(n);
  std::vector<int> groups(n);
  for (size_t i = 0; i < n; ++i) {
    const int g = static_cast<int>(i % 2);
    groups[i] = g;
    x.At(i, 0) = static_cast<double>(g);
    x.At(i, 1) = static_cast<double>(rng.Below(3));
    for (size_t f = 0; f < noise; ++f) x.At(i, 2 + f) = rng.Uniform();
    const double z = 0.8 * x.At(i, 1) - 0.7 * static_cast<double>(g) - 0.3;
    labels[i] = z + 0.5 * rng.Normal() > 0.0 ? 1 : 0;
  }
  std::vector<FeatureSpec> specs(2 + noise);
  for (size_t f = 0; f < specs.size(); ++f)
    specs[f].name = std::string("f").append(std::to_string(f));
  const Dataset data(Schema(std::move(specs), /*sensitive_index=*/0),
                     std::move(x), std::move(labels), std::move(groups));
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  GopherOptions opts;
  opts.bins = 16;         // Noise columns get 16 quantile bins...
  opts.min_support = 0.2; // ...all far below the support floor.
  opts.optimistic_prune = false;
  Discretizer disc(data, opts.bins);
  size_t num_sids = 0;
  for (size_t f = 0; f < data.num_features(); ++f) num_sids += disc.NumBins(f);
  ASSERT_GT(num_sids, 4096u);
  const auto fast = ExplainUnfairnessByPatterns(model, data, opts);
  const auto slow =
      oracles::ExplainUnfairnessByPatternsLooped(model, data, opts);
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_EQ(fast->patterns_examined, slow->patterns_examined);
  ASSERT_EQ(fast->patterns.size(), slow->patterns.size());
  for (size_t i = 0; i < fast->patterns.size(); ++i) {
    EXPECT_EQ(fast->patterns[i].support, slow->patterns[i].support);
    EXPECT_EQ(fast->patterns[i].estimated_gap_change,
              slow->patterns[i].estimated_gap_change);
  }
}

}  // namespace
}  // namespace xfair
