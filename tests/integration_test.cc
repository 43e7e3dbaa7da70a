// Integration tests: multi-module pipelines that mirror how a user would
// chain the library — audit -> explain -> mitigate -> re-audit, fitted
// SCMs feeding causal explainers, CSV round-trips into audits, and
// cross-checks between independent implementations of the same quantity.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "src/core/registry.h"
#include "src/data/csv.h"
#include "src/unfair/actions.h"
#include "src/data/generators.h"
#include "src/explain/influence.h"
#include "src/fairness/group_metrics.h"
#include "src/fairness/tradeoff.h"
#include "src/mitigate/inprocess.h"
#include "src/mitigate/postprocess.h"
#include "src/mitigate/preprocess.h"
#include "src/model/gbm.h"
#include "src/unfair/burden.h"
#include "src/unfair/causal_path.h"
#include "src/unfair/facts.h"
#include "src/unfair/fairness_shap.h"
#include "src/unfair/gopher.h"

namespace xfair {
namespace {

TEST(Integration, AuditExplainMitigateReauditLoop) {
  // The canonical workflow of the paper's three directions, end to end.
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  cfg.label_bias = 0.1;
  Dataset all = CreditGen(cfg).Generate(2000, 601);
  Rng rng(602);
  auto [train, test] = all.Split(0.6, &rng);

  // Audit.
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(train).ok());
  const double gap_before =
      std::fabs(StatisticalParityDifference(model, test));
  ASSERT_GT(gap_before, 0.2) << "fixture must start unfair";

  // Explain (E): burden confirms the disparity in effort space.
  auto burden =
      ComputeBurden(model, test, BurdenScope::kAllNegatives, {}, &rng);
  EXPECT_GT(burden.burden_gap, 0.0);

  // Explain (U): Shapley names the features; Gopher names the data.
  auto shap = ExplainParityWithShapley(model, test, {});
  EXPECT_GT(shap.contributions[shap.ranked_features[0]], 0.05);
  auto gopher = ExplainUnfairnessByPatterns(model, train, {});
  ASSERT_TRUE(gopher.ok());
  ASSERT_FALSE(gopher->patterns.empty());

  // Mitigate (M): act on the diagnosis with all three stages; each must
  // beat the audited baseline on held-out data.
  LogisticRegression reweighed;
  ASSERT_TRUE(reweighed.Fit(train, ReweighingWeights(train)).ok());
  EXPECT_LT(std::fabs(StatisticalParityDifference(reweighed, test)),
            gap_before);

  FairTrainingOptions fair_opts;
  fair_opts.lambda = 10.0;
  auto fair = TrainFairLogisticRegression(train, fair_opts);
  ASSERT_TRUE(fair.ok());
  EXPECT_LT(std::fabs(StatisticalParityDifference(*fair, test)),
            gap_before);

  auto thresholds = FitGroupThresholds(model, train, {});
  ASSERT_TRUE(thresholds.ok());
  EXPECT_LT(std::fabs(StatisticalParityDifference(*thresholds, test)),
            gap_before);

  // Re-audit on the combined tradeoff: mitigation should not destroy the
  // aggregate score.
  const double combined_before = EvaluateTradeoff(model, test).combined;
  const double combined_after = EvaluateTradeoff(*fair, test).combined;
  EXPECT_GT(combined_after, combined_before - 0.05);
}

TEST(Integration, FittedScmMatchesGroundTruthDecomposition) {
  // Fit an SCM from generated data (structure known, parameters not) and
  // verify the causal-path decomposition through the *fitted* SCM agrees
  // with the ground-truth one.
  CausalWorld truth = MakeCreditWorld(1.0);
  Dataset data = truth.GenerateDataset(4000, 603);
  CausalWorld fitted = MakeCreditWorld(1.0);  // Same graph...
  ASSERT_TRUE(fitted.scm.FitFromData(data.x()).ok());  // ...new params.
  // Fitted edge weights recover the generating mechanism.
  auto income = truth.scm.dag().IndexOf("income");
  auto savings = truth.scm.dag().IndexOf("savings");
  ASSERT_TRUE(income.ok() && savings.ok());
  EXPECT_NEAR(fitted.scm.EdgeWeight(truth.sensitive, *income), -1.0, 0.1);
  EXPECT_NEAR(fitted.scm.EdgeWeight(*income, *savings), 0.8, 0.05);

  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  auto via_truth = DecomposeDisparityByPaths(model, truth, 3000, 604);
  auto via_fit = DecomposeDisparityByPaths(model, fitted, 3000, 604);
  ASSERT_EQ(via_truth.paths.size(), via_fit.paths.size());
  EXPECT_NEAR(via_fit.total_disparity, via_truth.total_disparity, 0.05);
  // Top path agrees between fitted and ground-truth worlds.
  EXPECT_EQ(via_fit.paths[0].description, via_truth.paths[0].description);
}

TEST(Integration, CsvRoundTripPreservesAuditResults) {
  // Export -> infer schema -> reimport -> retrain must reproduce the
  // original audit (same data, same deterministic trainer).
  BiasConfig cfg;
  cfg.score_shift = 0.9;
  Dataset original = CreditGen(cfg).Generate(800, 605);
  LogisticRegression model_a;
  ASSERT_TRUE(model_a.Fit(original).ok());

  const std::string path = "/tmp/xfair_integration.csv";
  ASSERT_TRUE(WriteCsv(original, path).ok());
  auto schema = InferSchemaFromCsv(path);
  ASSERT_TRUE(schema.ok());
  auto reloaded = ReadCsv(*schema, path);
  ASSERT_TRUE(reloaded.ok());
  LogisticRegression model_b;
  ASSERT_TRUE(model_b.Fit(*reloaded).ok());

  EXPECT_NEAR(StatisticalParityDifference(model_a, original),
              StatisticalParityDifference(model_b, *reloaded), 0.02);
  EXPECT_NEAR(Accuracy(model_a, original), Accuracy(model_b, *reloaded),
              0.02);
  std::remove(path.c_str());
}

TEST(Integration, FactsAndBurdenAgreeOnWhoIsWorseOff) {
  // Two independent §IV-A lenses must agree about the direction of
  // recourse unfairness on the same model.
  BiasConfig cfg;
  cfg.score_shift = 1.2;
  Dataset data = CreditGen(cfg).Generate(900, 606);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  Rng rng(607);
  auto burden =
      ComputeBurden(model, data, BurdenScope::kAllNegatives, {}, &rng);
  auto facts = RunFacts(model, data, {});
  EXPECT_GT(burden.burden_gap, 0.0);
  EXPECT_GT(facts.overall_effectiveness_gap, 0.0)
      << "both lenses should indict the same group";
}

TEST(Integration, InfluenceAgreesWithGopherTopPattern) {
  // Gopher's pattern scoring is a sum of per-instance influences: summing
  // InfluenceOnParityGap over the pattern's members must reproduce the
  // pattern's estimated effect.
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data = CreditGen(cfg).Generate(600, 608);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  GopherOptions opts;
  opts.top_k = 1;
  auto report = ExplainUnfairnessByPatterns(model, data, opts);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->patterns.empty());
  const auto& top = report->patterns.front();

  auto analyzer = InfluenceAnalyzer::Create(model, data);
  ASSERT_TRUE(analyzer.ok());
  const Vector influence = analyzer->InfluenceOnParityGap(data);
  // Re-match the pattern by hand through the same discretizer config.
  Discretizer disc(data, opts.bins);
  double manual = 0.0;
  size_t support = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    bool match = true;
    for (const auto& [f, b] : top.conditions) {
      if (disc.BinOf(f, data.x().At(i, f)) != b) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    manual += influence[i];
    ++support;
  }
  EXPECT_EQ(support, top.support);
  EXPECT_NEAR(manual, top.estimated_gap_change, 1e-9);
}

TEST(Integration, BlackBoxPipelineWorksOnGbm) {
  // Every black-box component must run unchanged on the boosted model.
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data = CreditGen(cfg).Generate(900, 609);
  GradientBoostedTrees gbm;
  ASSERT_TRUE(gbm.Fit(data).ok());
  Rng rng(610);

  GroupFairnessReport audit = EvaluateGroupFairness(gbm, data);
  EXPECT_GT(audit.statistical_parity_difference, 0.1);

  auto burden =
      ComputeBurden(gbm, data, BurdenScope::kAllNegatives, {}, &rng);
  EXPECT_GT(burden.counterfactuals_protected +
                burden.counterfactuals_non_protected,
            20u);

  auto facts = RunFacts(gbm, data, {});
  EXPECT_GT(facts.subgroups_examined, 0u);

  auto shap = ExplainParityWithShapley(gbm, data, {});
  double sum = 0.0;
  for (double c : shap.contributions) sum += c;
  EXPECT_NEAR(sum, shap.full_gap - shap.baseline_gap, 1e-9);

  auto thresholds = FitGroupThresholds(gbm, data, {});
  ASSERT_TRUE(thresholds.ok());
  EXPECT_LT(std::fabs(StatisticalParityDifference(*thresholds, data)),
            std::fabs(audit.statistical_parity_difference));
}

TEST(Integration, RegistryMeasurementsAreInternallyConsistent) {
  // The Table I runner for [72] must agree with a direct ComputeBurden
  // call on the same fixtures — the registry is a view, not a fork.
  const RunContext ctx = RunContext::Make(611);
  Rng rng(ctx.seed);
  auto direct = ComputeBurden(ctx.credit_model, ctx.credit,
                              BurdenScope::kAllNegatives, {}, &rng);
  std::string measured;
  for (const auto& a : ApproachRegistry()) {
    if (a.citation == "[72]") measured = a.runner(ctx);
  }
  char expected[128];
  std::snprintf(expected, sizeof(expected), "gap=%.3f",
                direct.burden_gap);
  EXPECT_NE(measured.find(expected), std::string::npos)
      << "registry said '" << measured << "', direct computation gap="
      << direct.burden_gap;
}

}  // namespace
}  // namespace xfair
