// Failure injection and degenerate-input behavior: the library must fail
// loudly (Status) or degrade gracefully (defined values) on empty groups,
// constant features, one-class data, trivial models, and exhausted
// searches — never crash or return garbage.

#include <gtest/gtest.h>

#include <cmath>

#include "src/data/generators.h"
#include "src/data/scaler.h"
#include "src/explain/counterfactual.h"
#include "src/fairness/group_metrics.h"
#include "src/fairness/individual_metrics.h"
#include "src/mitigate/postprocess.h"
#include "src/mitigate/preprocess.h"
#include "src/model/decision_tree.h"
#include "src/model/logistic_regression.h"
#include "src/model/metrics.h"
#include "src/unfair/ares.h"
#include "src/unfair/burden.h"
#include "src/unfair/cet.h"
#include "src/unfair/facts.h"
#include "src/unfair/globece.h"

namespace xfair {
namespace {

/// Model that always predicts the favorable class.
class AlwaysYes final : public Model {
 public:
  double PredictProba(const Vector&) const override { return 0.99; }
  std::string name() const override { return "yes"; }
};

/// Model that never predicts the favorable class.
class AlwaysNo final : public Model {
 public:
  double PredictProba(const Vector&) const override { return 0.01; }
  std::string name() const override { return "no"; }
};

Dataset SingleGroupData(int group, size_t n = 60) {
  Dataset d = CreditGen().Generate(n * 3, 401);
  return d.Subset(d.GroupIndices(group));
}

TEST(Degenerate, MetricsWithEmptyGroupAreDefined) {
  Dataset d = SingleGroupData(1);
  AlwaysYes model;
  // Positive rate of the empty group reads as 0; values stay finite.
  EXPECT_TRUE(std::isfinite(StatisticalParityDifference(model, d)));
  GroupFairnessReport r = EvaluateGroupFairness(model, d);
  EXPECT_TRUE(std::isfinite(r.disparate_impact_ratio));
  EXPECT_EQ(r.non_protected_group.total(), 0u);
  EXPECT_TRUE(std::isfinite(r.statistical_parity_difference));
}

TEST(Degenerate, AlwaysYesModelHasNoNegativesToExplain) {
  Dataset d = CreditGen().Generate(200, 402);
  AlwaysYes model;
  Rng rng(403);
  auto burden =
      ComputeBurden(model, d, BurdenScope::kAllNegatives, {}, &rng);
  EXPECT_EQ(burden.counterfactuals_protected, 0u);
  EXPECT_EQ(burden.counterfactuals_non_protected, 0u);
  EXPECT_DOUBLE_EQ(burden.burden_gap, 0.0);

  auto facts = RunFacts(model, d, {});
  EXPECT_TRUE(facts.ranked_subgroups.empty());
  EXPECT_EQ(facts.subgroups_examined, 0u);

  auto ares = BuildRecourseSet(model, d, {});
  EXPECT_EQ(ares.num_rules, 0u);
  EXPECT_DOUBLE_EQ(ares.total_recourse_rate, 0.0);

  auto cet = BuildCounterfactualTree(model, d, {});
  EXPECT_EQ(cet.num_leaves, 1u);  // Trivial empty tree.
}

TEST(Degenerate, AlwaysNoModelExhaustsCfSearchGracefully) {
  Dataset d = CreditGen().Generate(50, 404);
  AlwaysNo model;
  Rng rng(405);
  CounterfactualConfig cfg;
  cfg.max_iterations = 10;  // Keep the doomed search cheap.
  auto r = GrowingSpheresCounterfactual(model, d.schema(), d.instance(0),
                                        cfg, &rng);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.counterfactual, d.instance(0));
  // GLOBE-CE degrades to zero coverage rather than failing.
  GlobeCeOptions opts;
  opts.cf_config.max_iterations = 10;
  opts.direction_sample = 5;
  auto globe = FitGlobeCe(model, d, opts, &rng);
  EXPECT_DOUBLE_EQ(globe.protected_group.coverage, 0.0);
  EXPECT_DOUBLE_EQ(globe.protected_group.mean_cost, 0.0);
}

TEST(Degenerate, ConstantFeatureSurvivesTraining) {
  // Replace a column with a constant; scaler and trainers must cope.
  Dataset d = CreditGen().Generate(150, 406);
  Matrix x = d.x();
  for (size_t i = 0; i < x.rows(); ++i) x.At(i, 2) = 5.0;
  Dataset constant(d.schema(), std::move(x), d.labels(), d.groups());

  StandardScaler scaler;
  scaler.Fit(constant);
  Dataset scaled = scaler.Transform(constant);
  for (size_t i = 0; i < 10; ++i)
    EXPECT_TRUE(std::isfinite(scaled.x().At(i, 2)));

  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(constant).ok());
  EXPECT_TRUE(std::isfinite(lr.PredictProba(constant.instance(0))));

  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(constant).ok());
  EXPECT_TRUE(tree.fitted());
}

TEST(Degenerate, OneClassLabelsAreHandled) {
  Dataset d = CreditGen().Generate(120, 407);
  std::vector<int> ones(d.size(), 1);
  Dataset all_pos(d.schema(), d.x(), ones, d.groups());
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(all_pos).ok());
  // Model should learn to predict the only class it has seen.
  EXPECT_GT(Accuracy(lr, all_pos), 0.95);
  EXPECT_NEAR(Auc(lr, all_pos), 0.5, 1e-12);  // Defined fallback.
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(all_pos).ok());
  EXPECT_EQ(tree.nodes().size(), 1u);  // Pure root: no split.
}

TEST(Degenerate, MassagingWithNoCandidatesIsNoOp) {
  // All protected instances already positive, all non-protected negative:
  // no promotion/demotion pairs exist.
  std::vector<Vector> rows;
  std::vector<int> labels, groups;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({static_cast<double>(i)});
    labels.push_back(i % 2);
    groups.push_back(i % 2);  // group == label: promote set empty.
  }
  Schema schema({FeatureSpec{"v"}}, -1);
  Dataset d(schema, Matrix::FromRows(rows), labels, groups);
  AlwaysYes ranker;
  Dataset massaged = MassageLabels(d, ranker, 10);
  EXPECT_EQ(massaged.labels(), d.labels());
}

TEST(Degenerate, ThresholdSearchWithExtremeScores) {
  // Scores saturated at 0.99 / 0.01: the grid must still return a valid
  // wrapper (decisions may be all-or-nothing per group).
  Dataset d = CreditGen().Generate(300, 408);
  AlwaysYes model;
  auto wrapped = FitGroupThresholds(model, d, {});
  ASSERT_TRUE(wrapped.ok());
  EXPECT_GT(wrapped->threshold_protected(), 0.0);
  EXPECT_LT(wrapped->threshold_protected(), 1.0);
}

TEST(Degenerate, LipschitzOnTinyData) {
  Dataset d = CreditGen().Generate(2, 409);
  LogisticRegression lr;
  lr.SetParameters(Vector(d.num_features(), 0.0), 0.0);
  Rng rng(410);
  EXPECT_DOUBLE_EQ(LipschitzViolationRate(lr, d, 1.0, 10, &rng), 0.0);
  Dataset one = d.Subset({0});
  EXPECT_DOUBLE_EQ(LipschitzViolationRate(lr, one, 1.0, 10, &rng), 0.0);
}

TEST(Degenerate, KnnConsistencyWithFewerPointsThanK) {
  Dataset d = CreditGen().Generate(4, 411);
  LogisticRegression lr;
  lr.SetParameters(Vector(d.num_features(), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(KnnConsistency(lr, d, 10), 1.0);
}

TEST(Degenerate, SubsetOfNothing) {
  Dataset d = CreditGen().Generate(10, 412);
  Dataset empty = d.Subset({});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_DOUBLE_EQ(empty.BaseRate(1), 0.0);
  EXPECT_TRUE(empty.GroupIndices(0).empty());
}

TEST(Degenerate, WachterOnZeroGradientModel) {
  Dataset d = CreditGen().Generate(50, 413);
  LogisticRegression flat;
  flat.SetParameters(Vector(d.num_features(), 0.0), -1.0);  // Always no.
  auto r = WachterCounterfactual(flat, d.schema(), d.instance(0), {});
  EXPECT_FALSE(r.valid);  // Flat gradient: search reports failure.
}

}  // namespace
}  // namespace xfair
