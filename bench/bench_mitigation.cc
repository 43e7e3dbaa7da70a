// Experiment A9 (paper §II, mitigation stages): the fairness-accuracy
// frontier across pre-, in-, and post-processing on held-out data —
// the tradeoff the Figure 1 taxonomy implies. Also an ablation on the
// in-processing penalty weight.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "src/data/generators.h"
#include "src/fairness/group_metrics.h"
#include "src/mitigate/inprocess.h"
#include "src/mitigate/postprocess.h"
#include "src/mitigate/preprocess.h"
#include "src/util/table.h"

namespace xfair {
namespace {

struct Split {
  Dataset train, test;
};

Split MakeSplit(uint64_t seed = 151) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  cfg.label_bias = 0.1;
  Dataset all = CreditGen(cfg).Generate(3000, seed);
  Rng rng(seed + 1);
  auto [train, test] = all.Split(0.6, &rng);
  return {std::move(train), std::move(test)};
}

void AddRow(AsciiTable* t, const std::string& stage,
            const std::string& method, const Model& model,
            const Dataset& test) {
  GroupFairnessReport r = EvaluateGroupFairness(model, test);
  t->AddRow({stage, method, FormatDouble(r.accuracy),
             FormatDouble(r.statistical_parity_difference),
             FormatDouble(r.equal_opportunity_difference),
             FormatDouble(r.equalized_odds_difference)});
}

void PrintOnce() {
  static bool printed = false;
  if (printed) return;
  printed = true;
  Split s = MakeSplit();
  LogisticRegression baseline;
  XFAIR_CHECK(baseline.Fit(s.train).ok());

  AsciiTable t({"stage", "method", "accuracy", "parity", "eq. opp.",
                "eq. odds"});
  AddRow(&t, "(none)", "baseline logistic", baseline, s.test);

  LogisticRegression reweighed;
  XFAIR_CHECK(
      reweighed.Fit(s.train, ReweighingWeights(s.train)).ok());
  AddRow(&t, "pre", "reweighing", reweighed, s.test);

  Dataset massaged = MassageLabels(s.train, baseline, 100);
  LogisticRegression on_massaged;
  XFAIR_CHECK(on_massaged.Fit(massaged).ok());
  AddRow(&t, "pre", "massaging (100 pairs)", on_massaged, s.test);

  for (double lambda : {2.0, 20.0}) {
    FairTrainingOptions opts;
    opts.penalty = FairPenalty::kParity;
    opts.lambda = lambda;
    auto model = TrainFairLogisticRegression(s.train, opts);
    XFAIR_CHECK(model.ok());
    AddRow(&t, "in", "parity penalty lambda=" + FormatDouble(lambda, 0),
           *model, s.test);
  }

  {
    FairTrainingOptions opts;
    opts.penalty = FairPenalty::kIndividual;
    opts.lambda = 5.0;
    opts.lipschitz = 0.15;
    auto model = TrainFairLogisticRegression(s.train, opts);
    XFAIR_CHECK(model.ok());
    AddRow(&t, "in", "Lipschitz penalty (individual)", *model, s.test);
  }

  for (auto criterion : {ThresholdCriterion::kStatisticalParity,
                         ThresholdCriterion::kEqualOpportunity,
                         ThresholdCriterion::kEqualizedOdds}) {
    ThresholdSearchOptions opts;
    opts.criterion = criterion;
    auto wrapped = FitGroupThresholds(baseline, s.train, opts);
    XFAIR_CHECK(wrapped.ok());
    const char* name =
        criterion == ThresholdCriterion::kStatisticalParity
            ? "thresholds (parity)"
            : criterion == ThresholdCriterion::kEqualOpportunity
                  ? "thresholds (eq. opp.)"
                  : "thresholds (eq. odds)";
    AddRow(&t, "post", name, *wrapped, s.test);
  }
  std::printf("\n=== A9: mitigation stages, held-out fairness-accuracy "
              "frontier ===\nExpected shape: each method shrinks its own "
              "target gap at modest accuracy cost; the individual-level "
              "Lipschitz penalty leaves group gaps untouched (individual "
              "!= group fairness, SII); post-processing hits its "
              "criterion most precisely.\n"
              "%s\n",
              t.ToString().c_str());

  // Ablation: penalty-weight dial.
  AsciiTable dial({"lambda", "parity gap (test)", "accuracy (test)"});
  for (double lambda : {0.0, 0.5, 2.0, 8.0, 32.0}) {
    FairTrainingOptions opts;
    opts.lambda = lambda;
    auto model = TrainFairLogisticRegression(s.train, opts);
    XFAIR_CHECK(model.ok());
    dial.AddRow({FormatDouble(lambda, 1),
                 FormatDouble(std::fabs(
                     StatisticalParityDifference(*model, s.test))),
                 FormatDouble(Accuracy(*model, s.test))});
  }
  std::printf("=== A9b: in-processing penalty dial ===\nExpected shape: "
              "gap monotone down, accuracy slowly down.\n%s\n",
              dial.ToString().c_str());
}

void BM_Reweighing(benchmark::State& state) {
  PrintOnce();
  Split s = MakeSplit(152);
  for (auto _ : state) {
    LogisticRegression model;
    benchmark::DoNotOptimize(
        model.Fit(s.train, ReweighingWeights(s.train)));
  }
}
BENCHMARK(BM_Reweighing)->Unit(benchmark::kMillisecond);

void BM_FairTraining(benchmark::State& state) {
  PrintOnce();
  Split s = MakeSplit(153);
  FairTrainingOptions opts;
  opts.lambda = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrainFairLogisticRegression(s.train, opts));
  }
}
BENCHMARK(BM_FairTraining)->Unit(benchmark::kMillisecond);

void BM_ThresholdSearch(benchmark::State& state) {
  PrintOnce();
  Split s = MakeSplit(154);
  LogisticRegression baseline;
  XFAIR_CHECK(baseline.Fit(s.train).ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitGroupThresholds(baseline, s.train, {}));
  }
}
BENCHMARK(BM_ThresholdSearch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xfair
