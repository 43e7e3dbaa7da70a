// Experiment F1 — regenerates Figure 1 ("Taxonomy of Fairness
// Approaches") as an executable artifact: every leaf of the taxonomy
// (level x criterion x mitigation stage x task) is exercised on the
// planted-bias fixtures and printed with a live measured value, so the
// figure's structure is backed by running code rather than citations.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "src/core/registry.h"
#include "src/fairness/group_metrics.h"
#include "src/fairness/individual_metrics.h"
#include "src/fairness/ranking_metrics.h"
#include "src/mitigate/inprocess.h"
#include "src/mitigate/postprocess.h"
#include "src/mitigate/preprocess.h"
#include "src/rec/recwalk.h"
#include "src/util/table.h"

namespace xfair {
namespace {

const RunContext& Ctx() {
  static const RunContext* ctx = new RunContext(RunContext::Make(41));
  return *ctx;
}

std::string F(double v) { return FormatDouble(v, 3); }

void PrintLevelAndCriteria() {
  const RunContext& ctx = Ctx();
  AsciiTable t({"Branch", "Leaf", "Metric", "Measured"});

  // Group / observational: base rates, accuracy-based, calibration.
  GroupFairnessReport g = EvaluateGroupFairness(ctx.credit_model, ctx.credit);
  t.AddRow({"Level: group", "base rates", "statistical parity diff",
            F(g.statistical_parity_difference)});
  t.AddRow({"Level: group", "base rates", "disparate impact ratio",
            F(g.disparate_impact_ratio)});
  t.AddRow({"Level: group", "accuracy-based", "equal opportunity diff",
            F(g.equal_opportunity_difference)});
  t.AddRow({"Level: group", "accuracy-based", "equalized odds diff",
            F(g.equalized_odds_difference)});
  t.AddRow({"Level: group", "accuracy-based", "predictive parity diff",
            F(g.predictive_parity_difference)});
  t.AddRow({"Level: group", "calibration-based", "calibration gap",
            F(g.calibration_gap)});

  // Individual / observational: distance-based.
  Rng rng(1);
  t.AddRow({"Level: individual", "distance-based",
            "Lipschitz violations (L=0.5)",
            F(LipschitzViolationRate(ctx.credit_model, ctx.credit, 0.5,
                                     2000, &rng))});
  t.AddRow({"Level: individual", "distance-based", "kNN consistency (k=5)",
            F(KnnConsistency(ctx.credit_model, ctx.credit, 5))});

  // Individual / causal: counterfactual fairness.
  t.AddRow({"Criteria: causal", "counterfactual fairness",
            "CF fairness gap (flip S)",
            F(CounterfactualFairnessGap(ctx.world_model, ctx.world, 500,
                                        2))});
  t.AddRow({"Criteria: causal", "causal effect",
            "total effect of S on income",
            F(ctx.world.scm.TotalEffect(
                ctx.world.sensitive,
                *ctx.world.scm.dag().IndexOf("income"), 0.0, 1.0))});
  std::printf("\n=== Figure 1 (a): level & criteria, measured ===\n%s\n",
              t.ToString().c_str());
}

void PrintMitigationStages() {
  const RunContext& ctx = Ctx();
  AsciiTable t({"Stage", "Method", "Parity gap", "Accuracy"});
  const double base_gap =
      StatisticalParityDifference(ctx.credit_model, ctx.credit);
  t.AddRow({"(none)", "baseline logistic", F(base_gap),
            F(Accuracy(ctx.credit_model, ctx.credit))});

  LogisticRegression reweighed;
  XFAIR_CHECK(
      reweighed.Fit(ctx.credit, ReweighingWeights(ctx.credit)).ok());
  t.AddRow({"Pre-processing", "reweighing",
            F(StatisticalParityDifference(reweighed, ctx.credit)),
            F(Accuracy(reweighed, ctx.credit))});

  Dataset massaged = MassageLabels(ctx.credit, ctx.credit_model, 60);
  LogisticRegression on_massaged;
  XFAIR_CHECK(on_massaged.Fit(massaged).ok());
  t.AddRow({"Pre-processing", "massaging (60 pairs)",
            F(StatisticalParityDifference(on_massaged, ctx.credit)),
            F(Accuracy(on_massaged, ctx.credit))});

  FairTrainingOptions fair_opts;
  fair_opts.lambda = 10.0;
  auto fair_lr = TrainFairLogisticRegression(ctx.credit, fair_opts);
  XFAIR_CHECK(fair_lr.ok());
  t.AddRow({"In-processing", "parity-penalized logistic (lambda=10)",
            F(StatisticalParityDifference(*fair_lr, ctx.credit)),
            F(Accuracy(*fair_lr, ctx.credit))});

  auto thresholds = FitGroupThresholds(ctx.credit_model, ctx.credit, {});
  XFAIR_CHECK(thresholds.ok());
  t.AddRow({"Post-processing", "group thresholds",
            F(StatisticalParityDifference(*thresholds, ctx.credit)),
            F(Accuracy(*thresholds, ctx.credit))});
  std::printf("=== Figure 1 (b): mitigation stages, measured ===\n%s\n",
              t.ToString().c_str());
}

void PrintTasks() {
  const RunContext& ctx = Ctx();
  AsciiTable t({"Task", "Metric", "Measured"});
  t.AddRow({"Classification", "statistical parity diff",
            F(StatisticalParityDifference(ctx.credit_model, ctx.credit))});

  RecWalkScorer scorer(&ctx.rec.interactions);
  t.AddRow({"Recommendation", "protected-item exposure share (top-10)",
            F(RecExposureShare(scorer, ctx.rec.interactions,
                               ctx.rec.item_groups, 10))});

  // Ranking: probability-based fairness of the income ranking.
  std::vector<std::pair<double, size_t>> scored(ctx.credit.size());
  for (size_t i = 0; i < ctx.credit.size(); ++i)
    scored[i] = {-ctx.credit.x().At(i, 2), i};
  std::sort(scored.begin(), scored.end());
  std::vector<size_t> ranking;
  std::vector<int> tuple_groups(ctx.credit.size());
  for (size_t i = 0; i < ctx.credit.size(); ++i) {
    ranking.push_back(scored[i].second);
    tuple_groups[i] = ctx.credit.group(i);
  }
  ranking.resize(100);
  t.AddRow({"Ranking", "fair-prefix p-value (income ranking, top-100)",
            F(*FairPrefixPValue(ranking, tuple_groups))});
  t.AddRow({"Ranking", "exposure gap (income ranking, top-100)",
            F(*ExposureGap(ranking, tuple_groups))});

  t.AddRow({"Graphs", "SGC parity gap on homophilous SBM",
            F(SgcParityGap(ctx.sgc, ctx.graph.groups))});
  std::printf("=== Figure 1 (c): tasks & modalities, measured ===\n%s\n",
              t.ToString().c_str());
}

void PrintOnce() {
  static bool printed = false;
  if (printed) return;
  printed = true;
  PrintLevelAndCriteria();
  PrintMitigationStages();
  PrintTasks();
}

void BM_Fig1GroupMetrics(benchmark::State& state) {
  PrintOnce();
  const RunContext& ctx = Ctx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateGroupFairness(ctx.credit_model, ctx.credit));
  }
}
BENCHMARK(BM_Fig1GroupMetrics)->Unit(benchmark::kMillisecond);

void BM_Fig1IndividualMetrics(benchmark::State& state) {
  PrintOnce();
  const RunContext& ctx = Ctx();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LipschitzViolationRate(
        ctx.credit_model, ctx.credit, 0.5, 500, &rng));
  }
}
BENCHMARK(BM_Fig1IndividualMetrics)->Unit(benchmark::kMillisecond);

void BM_Fig1CounterfactualFairness(benchmark::State& state) {
  PrintOnce();
  const RunContext& ctx = Ctx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CounterfactualFairnessGap(ctx.world_model, ctx.world, 200, 4));
  }
}
BENCHMARK(BM_Fig1CounterfactualFairness)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xfair
