// End-to-end loan-decision fairness investigation: detect disparity,
// explain its causes with four different explanation families (paper
// SIV), then mitigate at all three pipeline stages and re-audit.
//
//   ./build/examples/example_loan_fairness_audit

#include <cstdio>

#include "src/data/generators.h"
#include "src/fairness/group_metrics.h"
#include "src/mitigate/inprocess.h"
#include "src/mitigate/postprocess.h"
#include "src/mitigate/preprocess.h"
#include "src/unfair/facts.h"
#include "src/unfair/fairness_shap.h"
#include "src/unfair/gopher.h"
#include "src/unfair/precof.h"

int main() {
  using namespace xfair;

  BiasConfig bias;
  bias.score_shift = 1.0;
  bias.label_bias = 0.1;
  bias.proxy_strength = 0.8;
  Dataset all = CreditGen(bias).Generate(2400, 17);
  Rng split_rng(18);
  auto [train, test] = all.Split(0.6, &split_rng);

  LogisticRegression model;
  if (!model.Fit(train).ok()) return 1;

  // --- Detect -----------------------------------------------------------
  const double gap = StatisticalParityDifference(model, test);
  std::printf("parity gap on held-out data: %.3f (accuracy %.3f)\n\n", gap,
              Accuracy(model, test));

  // --- Explain 1: which features carry the gap (fairness Shapley [81]) --
  auto shap = ExplainParityWithShapley(model, test, {});
  std::printf("feature contributions to the parity gap:\n");
  for (size_t c : shap.ranked_features) {
    std::printf("  %-18s %+0.3f\n", shap.feature_names[c].c_str(),
                shap.contributions[c]);
  }

  // --- Explain 2: which recourse routes differ per group (PreCoF [71]) --
  Rng rng(19);
  auto precof = PrecofImplicitBias(train, &rng);
  const size_t top = precof.ranked_features[0];
  std::printf("\nPreCoF implicit-bias probe (sensitive column dropped):\n"
              "  most group-divergent recourse feature: %s "
              "(change freq G+=%.2f vs G-=%.2f)\n",
              precof.feature_names[top].c_str(),
              precof.change_freq_protected[top],
              precof.change_freq_non_protected[top]);

  // --- Explain 3: which subgroups suffer recourse bias (FACTS [77]) -----
  auto facts = RunFacts(model, test, {});
  if (!facts.ranked_subgroups.empty()) {
    const auto& sg = facts.ranked_subgroups.front();
    std::printf("\nFACTS: most recourse-biased subgroup: %s\n"
                "  best action works for %.0f%% of G- but only %.0f%% of "
                "G+ there\n",
                sg.description.c_str(),
                100.0 * sg.best_effectiveness_non_protected,
                100.0 * sg.best_effectiveness_protected);
  }

  // --- Explain 4: which training data drives it (Gopher [63],[83]) ------
  auto gopher = ExplainUnfairnessByPatterns(model, train, {});
  if (gopher.ok() && !gopher->patterns.empty()) {
    const auto& p = gopher->patterns.front();
    std::printf("\nGopher: removing training pattern '%s' (support %zu) "
                "changes the gap by %+0.3f (verified %+0.3f)\n",
                p.description.c_str(), p.support, p.estimated_gap_change,
                p.verified_gap_change);
  }

  // --- Mitigate at each stage and re-audit ------------------------------
  std::printf("\n=== mitigation comparison (held-out) ===\n");
  std::printf("%-28s %10s %10s\n", "variant", "parity", "accuracy");
  auto report_line = [&](const char* name, const Model& m) {
    std::printf("%-28s %10.3f %10.3f\n", name,
                StatisticalParityDifference(m, test), Accuracy(m, test));
  };
  report_line("baseline", model);

  LogisticRegression reweighed;
  if (reweighed.Fit(train, ReweighingWeights(train)).ok()) {
    report_line("pre: reweighing", reweighed);
  }

  FairTrainingOptions fair_opts;
  fair_opts.lambda = 10.0;
  auto fair = TrainFairLogisticRegression(train, fair_opts);
  if (fair.ok()) report_line("in: parity penalty", *fair);

  auto thresholds = FitGroupThresholds(model, train, {});
  if (thresholds.ok()) report_line("post: group thresholds", *thresholds);

  return 0;
}
