// Fairness *of* explanations (paper §II "Fairness in explanations",
// [41]-[43]): explanations themselves can be worse for one group —
// lower-fidelity surrogates, less stable attributions, denser
// counterfactuals. This module measures explanation-quality metrics per
// group and reports the disparities, following the protocol of [41]:
// compare group means; significant variance indicates disparity.

#ifndef XFAIR_UNFAIR_EXPLANATION_QUALITY_H_
#define XFAIR_UNFAIR_EXPLANATION_QUALITY_H_

#include "src/explain/counterfactual.h"
#include "src/explain/surrogate.h"

namespace xfair {

/// Per-group explanation quality and the cross-group gaps.
struct ExplanationQualityReport {
  // Fidelity: local-surrogate weighted R^2, averaged over sampled
  // explainees of each group.
  double fidelity_protected = 0.0;
  double fidelity_non_protected = 0.0;
  /// non_protected - protected: positive = the protected group receives
  /// less faithful explanations.
  double fidelity_gap = 0.0;

  // Stability: mean L2 distance between the local-surrogate coefficient
  // vectors of an instance and a small perturbation of it (lower =
  // more stable explanations).
  double instability_protected = 0.0;
  double instability_non_protected = 0.0;
  /// protected - non_protected: positive = protected explanations are
  /// *less* stable.
  double instability_gap = 0.0;

  // Sparsity: mean number of features changed by each group's
  // counterfactuals (lower = simpler recourse stories).
  double cf_sparsity_protected = 0.0;
  double cf_sparsity_non_protected = 0.0;
  double cf_sparsity_gap = 0.0;  ///< protected - non_protected.

  size_t sampled_protected = 0;
  size_t sampled_non_protected = 0;
};

/// Options for AuditExplanationQuality.
struct ExplanationQualityOptions {
  size_t sample_per_group = 25;
};

/// Audits explanation quality across the protected split of `data` for
/// `model`, sampling explainees per group with `rng`.
ExplanationQualityReport AuditExplanationQuality(
    const Model& model, const Dataset& data,
    const ExplanationQualityOptions& options, Rng* rng);

}  // namespace xfair

#endif  // XFAIR_UNFAIR_EXPLANATION_QUALITY_H_
