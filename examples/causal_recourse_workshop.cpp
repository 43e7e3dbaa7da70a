// Causal recourse workshop (paper SIV-A causal thread): a known SCM world
// lets us do what observational data cannot — Pearl counterfactuals,
// do()-interventions, actionable recourse through causal effects, and
// fairness checks that hold in the counterfactual world.
//
//   ./build/examples/example_causal_recourse_workshop

#include <cstdio>

#include "src/causal/worlds.h"
#include "src/fairness/individual_metrics.h"
#include "src/model/logistic_regression.h"
#include "src/unfair/causal_path.h"
#include "src/unfair/contrastive.h"
#include "src/unfair/recourse.h"

int main() {
  using namespace xfair;

  // A world where S suppresses income (disparity 1.0) and income drives
  // savings and debt; zip_risk is a pure proxy.
  CausalWorld world = MakeCreditWorld(1.0);
  Dataset data = world.GenerateDataset(1200, 27);
  LogisticRegression model;
  if (!model.Fit(data).ok()) return 1;

  // 1. Counterfactual fairness [20]: is the model's decision stable when
  //    we flip the protected attribute in the causal world?
  std::printf("counterfactual fairness gap: %.3f\n",
              CounterfactualFairnessGap(model, world, 800, 28));

  // 2. Where does the disparity flow? Causal-path decomposition [82].
  auto paths = DecomposeDisparityByPaths(model, world, 4000, 29);
  std::printf("\ndisparity decomposition over causal paths "
              "(total %.3f):\n",
              paths.total_disparity);
  for (const auto& p : paths.paths) {
    std::printf("  %-26s %+0.4f\n", p.description.c_str(),
                p.score_contribution);
  }

  // 3. Actionable recourse [65]: minimal do() interventions for a denied
  //    individual. Intervening on income moves savings and debt for free.
  auto income = world.scm.dag().IndexOf("income");
  auto savings = world.scm.dag().IndexOf("savings");
  Rng rng(30);
  for (int tries = 0; tries < 200; ++tries) {
    Vector x = world.scm.SampleDo({{world.sensitive, 1.0}}, &rng);
    if (model.Predict(x) == 1) continue;
    auto recourse =
        FindCausalRecourse(model, world.scm, x, {*income, *savings});
    if (!recourse.found) continue;
    std::printf("\nrecourse for a denied protected individual "
                "(cost %.2f):\n",
                recourse.cost);
    for (const auto& iv : recourse.interventions) {
      std::printf("  do(%s := %.2f)   [was %.2f]\n",
                  world.scm.dag().name(iv.node).c_str(), iv.value,
                  x[iv.node]);
    }
    std::printf("  downstream: savings %.2f -> %.2f (moved for free)\n",
                x[*savings], recourse.resulting_state[*savings]);
    break;
  }

  // 4. Probabilistic contrastive queries [10]: would do(income := high)
  //    rescue denied individuals equally often across groups?
  auto contrast = ContrastInterventions(model, world.scm, world.sensitive,
                                        {{*income, 6.0}},
                                        {{*income, 3.0}}, 2000, 31);
  std::printf("\nsufficiency of do(income := 6): G+ %.2f vs G- %.2f "
              "(gap %+0.2f)\n",
              contrast.sufficiency_protected,
              contrast.sufficiency_non_protected,
              contrast.sufficiency_gap);

  // 5. Fair causal recourse [80]: does recourse cost the same for each
  //    individual's counterfactual twin?
  auto fairness =
      EvaluateCausalRecourseFairness(model, world, {*income}, 500, 32);
  std::printf("\ncausal recourse fairness: group cost gap %+0.3f, "
              "individual twin unfairness %.3f (n=%zu)\n",
              fairness.group_gap, fairness.individual_unfairness,
              fairness.evaluated);
  return 0;
}
