// Tests for the §V-extension modules: diverse counterfactuals,
// explanation-quality fairness, drift monitoring, the combined tradeoff
// score, and multiclass fairness.

#include <gtest/gtest.h>

#include <cmath>

#include "src/data/generators.h"
#include "src/explain/diverse.h"
#include "src/fairness/drift.h"
#include "src/fairness/tradeoff.h"
#include "src/mitigate/inprocess.h"
#include "src/model/random_forest.h"
#include "src/model/softmax_regression.h"
#include "src/unfair/explanation_quality.h"

namespace xfair {
namespace {

struct Fixture {
  Dataset data;
  LogisticRegression model;

  static Fixture Make(double shift = 1.0, uint64_t seed = 201) {
    BiasConfig cfg;
    cfg.score_shift = shift;
    Fixture f{CreditGen(cfg).Generate(900, seed), {}};
    XFAIR_CHECK(f.model.Fit(f.data).ok());
    return f;
  }

  size_t Negative() const {
    for (size_t i = 0; i < data.size(); ++i)
      if (model.Predict(data.instance(i)) == 0) return i;
    XFAIR_CHECK(false);
    return 0;
  }
};

// --- diverse counterfactuals ---

TEST(DiverseCf, ProducesSeparatedValidCounterfactuals) {
  auto f = Fixture::Make();
  Rng rng(1);
  DiverseCfOptions opts;
  opts.k = 3;
  auto set = GenerateDiverseCounterfactuals(
      f.model, f.data.schema(), f.data.instance(f.Negative()), opts, &rng);
  ASSERT_GE(set.results.size(), 2u);
  for (const auto& r : set.results) {
    EXPECT_TRUE(r.valid);
    EXPECT_EQ(f.model.Predict(r.counterfactual), 1);
  }
  EXPECT_GE(set.min_pairwise_distance, kDiverseMinSeparation);
  EXPECT_GT(set.mean_cost, 0.0);
}

TEST(DiverseCf, SingleCfHasZeroPairwiseDistance) {
  auto f = Fixture::Make();
  Rng rng(2);
  DiverseCfOptions opts;
  opts.k = 1;
  auto set = GenerateDiverseCounterfactuals(
      f.model, f.data.schema(), f.data.instance(f.Negative()), opts, &rng);
  EXPECT_EQ(set.results.size(), 1u);
  EXPECT_DOUBLE_EQ(set.min_pairwise_distance, 0.0);
}

TEST(DiverseCf, RespectsImmutablesAcrossTheSet) {
  auto f = Fixture::Make();
  Rng rng(3);
  const size_t i = f.Negative();
  const Vector x = f.data.instance(i);
  DiverseCfOptions opts;
  opts.k = 3;
  auto set = GenerateDiverseCounterfactuals(f.model, f.data.schema(), x,
                                            opts, &rng);
  for (const auto& r : set.results) {
    EXPECT_DOUBLE_EQ(r.counterfactual[0], x[0]);  // protected
    EXPECT_DOUBLE_EQ(r.counterfactual[1], x[1]);  // age
  }
}

// --- explanation-quality fairness ---

TEST(ExplanationQuality, ReportsBothGroupsOnBiasedData) {
  auto f = Fixture::Make();
  Rng rng(4);
  ExplanationQualityOptions opts;
  opts.sample_per_group = 12;
  auto report = AuditExplanationQuality(f.model, f.data, opts, &rng);
  EXPECT_EQ(report.sampled_protected, 12u);
  EXPECT_EQ(report.sampled_non_protected, 12u);
  // Fidelity is an R^2-like quantity.
  EXPECT_LE(report.fidelity_protected, 1.0);
  EXPECT_LE(report.fidelity_non_protected, 1.0);
  EXPECT_GT(report.fidelity_protected, 0.0);
  // Gaps are consistent with their components.
  EXPECT_NEAR(report.fidelity_gap,
              report.fidelity_non_protected - report.fidelity_protected,
              1e-12);
  EXPECT_NEAR(report.instability_gap,
              report.instability_protected -
                  report.instability_non_protected,
              1e-12);
}

TEST(ExplanationQuality, StabilityProbeDetectsJumpyModel) {
  // A deep forest has jumpier local behavior than a linear model, so its
  // explanations should be less stable.
  Dataset data = CreditGen().Generate(600, 202);
  LogisticRegression linear;
  ASSERT_TRUE(linear.Fit(data).ok());
  RandomForest forest;
  RandomForestOptions fo;
  fo.num_trees = 10;
  fo.max_depth = 10;
  ASSERT_TRUE(forest.Fit(data, fo).ok());
  Rng rng(5);
  ExplanationQualityOptions opts;
  opts.sample_per_group = 10;
  auto linear_report = AuditExplanationQuality(linear, data, opts, &rng);
  auto forest_report = AuditExplanationQuality(forest, data, opts, &rng);
  const double linear_instability = linear_report.instability_protected +
                                    linear_report.instability_non_protected;
  const double forest_instability = forest_report.instability_protected +
                                    forest_report.instability_non_protected;
  EXPECT_GT(forest_instability, linear_instability);
}

// --- drift monitoring ---

TEST(Drift, NoAlarmOnStableFairStream) {
  BiasConfig fair;
  fair.score_shift = 0.0;
  fair.label_bias = 0.0;
  fair.proxy_strength = 0.0;
  fair.qualification_gap = 0.0;
  Dataset train = CreditGen(fair).Generate(800, 203);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(train).ok());
  FairnessDriftMonitor monitor;
  for (uint64_t b = 0; b < 6; ++b) {
    monitor.ObserveBatch(model, CreditGen(fair).Generate(400, 300 + b));
  }
  EXPECT_FALSE(monitor.alarm());
  EXPECT_NEAR(monitor.TrendSlope(), 0.0, 0.02);
}

TEST(Drift, AlarmsWhenPopulationShifts) {
  // Model trained on fair data, then the population drifts toward the
  // planted-bias regime: the monitored gap grows and trips the alarm.
  BiasConfig fair;
  fair.score_shift = 0.0;
  fair.label_bias = 0.0;
  fair.proxy_strength = 0.0;
  fair.qualification_gap = 0.0;
  Dataset train = CreditGen(fair).Generate(800, 204);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(train).ok());
  DriftMonitorOptions opts;
  opts.tolerance = 0.08;
  opts.patience = 2;
  FairnessDriftMonitor monitor(opts);
  for (uint64_t b = 0; b < 8; ++b) {
    BiasConfig drifting;
    drifting.score_shift = 0.25 * static_cast<double>(b);
    drifting.qualification_gap = 0.25 * static_cast<double>(b);
    monitor.ObserveBatch(model,
                         CreditGen(drifting).Generate(500, 400 + b));
  }
  EXPECT_TRUE(monitor.alarm());
  EXPECT_GT(monitor.TrendSlope(), 0.01)
      << "gap should trend upward across batches";
  EXPECT_EQ(monitor.num_batches(), 8u);
}

TEST(Drift, TrendSlopeMatchesLinearSeries) {
  FairnessDriftMonitor monitor;
  // Feed a synthetic linear gap series through a stub: use ObserveBatch
  // indirectly by constructing datasets is overkill here; instead verify
  // the slope arithmetic via a crafted monitor history using batches with
  // controlled gaps. A constant model + controlled group labels gives an
  // exact gap.
  Schema schema({FeatureSpec{"decision", FeatureKind::kBinary}}, -1);
  LogisticRegression lookup;
  lookup.SetParameters({100.0}, -50.0);  // predicts x0 >= 0.5.
  for (int b = 0; b < 4; ++b) {
    // Gap = b * 0.2: G- all favorable; G+ favorable rate 1 - 0.2 b.
    std::vector<Vector> rows;
    std::vector<int> labels, groups;
    for (int i = 0; i < 10; ++i) {
      rows.push_back({1.0});
      labels.push_back(1);
      groups.push_back(0);
    }
    for (int i = 0; i < 10; ++i) {
      rows.push_back({i < 10 - 2 * b ? 1.0 : 0.0});
      labels.push_back(1);
      groups.push_back(1);
    }
    Dataset batch(schema, Matrix::FromRows(rows), labels, groups);
    monitor.ObserveBatch(lookup, batch);
  }
  EXPECT_NEAR(monitor.TrendSlope(), 0.2, 1e-9);
}

// --- combined tradeoff score ---

TEST(Tradeoff, ScoresAreInUnitInterval) {
  auto f = Fixture::Make();
  auto score = EvaluateTradeoff(f.model, f.data);
  EXPECT_GT(score.utility, 0.5);
  EXPECT_LE(score.utility, 1.0);
  EXPECT_GE(score.fairness, 0.0);
  EXPECT_LE(score.fairness, 1.0);
  EXPECT_GT(score.explainability, 0.5);
  EXPECT_GT(score.combined, 0.0);
  EXPECT_LE(score.combined, 1.0);
}

TEST(Tradeoff, FairModelScoresHigherOnFairnessAxis) {
  auto f = Fixture::Make();
  FairTrainingOptions opts;
  opts.lambda = 10.0;
  auto fair_model = TrainFairLogisticRegression(f.data, opts);
  ASSERT_TRUE(fair_model.ok());
  auto base = EvaluateTradeoff(f.model, f.data);
  auto fair = EvaluateTradeoff(*fair_model, f.data);
  EXPECT_GT(fair.fairness, base.fairness);
}

TEST(Tradeoff, WeightsSteerTheAggregate) {
  auto f = Fixture::Make();
  TradeoffWeights fairness_only{0.0, 1.0, 0.0};
  TradeoffWeights utility_only{1.0, 0.0, 0.0};
  auto fscore = EvaluateTradeoff(f.model, f.data, fairness_only);
  auto uscore = EvaluateTradeoff(f.model, f.data, utility_only);
  EXPECT_NEAR(fscore.combined, fscore.fairness, 1e-9);
  EXPECT_NEAR(uscore.combined, uscore.utility, 1e-9);
}

// --- multiclass ---

TEST(Multiclass, LearnsThreeTiers) {
  auto data = GenerateMulticlassCredit(1200, 0.0, 205);
  SoftmaxRegression model;
  ASSERT_TRUE(model.Fit(data.x, data.labels, 3).ok());
  EXPECT_GT(MulticlassAccuracy(model, data.x, data.labels), 0.6);
  // Probabilities are a distribution.
  Vector probs = model.PredictProba(data.x.Row(0));
  double sum = 0.0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Multiclass, ParityGapTracksPlantedShift) {
  auto fair = GenerateMulticlassCredit(3000, 0.0, 206);
  auto biased = GenerateMulticlassCredit(3000, 1.2, 206);
  SoftmaxRegression fair_model, biased_model;
  ASSERT_TRUE(fair_model.Fit(fair.x, fair.labels, 3).ok());
  ASSERT_TRUE(biased_model.Fit(biased.x, biased.labels, 3).ok());
  const double fair_gap =
      MulticlassParityGap(fair_model, fair.x, fair.groups);
  const double biased_gap =
      MulticlassParityGap(biased_model, biased.x, biased.groups);
  EXPECT_LT(fair_gap, 0.12);
  EXPECT_GT(biased_gap, fair_gap + 0.1);
}

TEST(Multiclass, ParityProfileShowsWhichTierDrives) {
  auto data = GenerateMulticlassCredit(3000, 1.2, 207);
  SoftmaxRegression model;
  ASSERT_TRUE(model.Fit(data.x, data.labels, 3).ok());
  Vector profile = MulticlassParityProfile(model, data.x, data.groups);
  ASSERT_EQ(profile.size(), 3u);
  // G+ is over-represented in "deny" (profile[0] < 0: G- gets it less)
  // and under-represented in "approve" (profile[2] > 0).
  EXPECT_LT(profile[0], 0.0);
  EXPECT_GT(profile[2], 0.0);
  // Profile entries sum to ~0 (both are distributions over classes).
  EXPECT_NEAR(profile[0] + profile[1] + profile[2], 0.0, 1e-9);
}

TEST(Multiclass, FitRejectsBadInput) {
  SoftmaxRegression model;
  Matrix x(5, 2);
  EXPECT_FALSE(model.Fit(x, {0, 1, 2, 0, 9}, 3).ok());   // Out of range.
  EXPECT_FALSE(model.Fit(x, {0, 1}, 3).ok());            // Size mismatch.
  EXPECT_FALSE(model.Fit(x, {0, 0, 0, 0, 0}, 1).ok());   // One class.
  EXPECT_FALSE(model.Fit(Matrix(0, 2), {}, 3).ok());     // Empty.
}

}  // namespace
}  // namespace xfair
