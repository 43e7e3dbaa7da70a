// CEF — Counterfactual Explainable Fairness [87] (paper §IV-C): find the
// "minimal" perturbation of model features that brings recommendation
// fairness to a target level, and score each feature by the
// fairness-utility tradeoff of perturbing it. On the MF substrate the
// perturbable features are the latent factors: CEF sweeps a damping scale
// per factor, measures exposure-gap reduction vs. ranking-utility loss,
// and ranks factors by explainability score.

#ifndef XFAIR_BEYOND_CEF_H_
#define XFAIR_BEYOND_CEF_H_

#include "src/rec/mf.h"

namespace xfair {

/// One latent factor's fairness explanation.
struct CefFactorExplanation {
  size_t factor = 0;
  /// Damping scale in [0, 1) that best trades fairness for utility.
  double best_scale = 1.0;
  double fairness_gain = 0.0;  ///< Reduction in |exposure gap|.
  double utility_loss = 0.0;   ///< Drop in mean top-k self-score.
  /// fairness_gain - 0.5 * utility_loss (the CEF explainability score).
  double explainability = 0.0;
};

/// CEF report: factors ranked by explainability.
struct CefReport {
  std::vector<CefFactorExplanation> ranked_factors;
  double base_exposure_gap = 0.0;  ///< |ExposureGap| before perturbation.
  double base_utility = 0.0;
};

CefReport ExplainRecFairnessByFactors(const MatrixFactorization& model,
                                      const Interactions& interactions,
                                      const std::vector<int>& item_groups);

}  // namespace xfair

#endif  // XFAIR_BEYOND_CEF_H_
