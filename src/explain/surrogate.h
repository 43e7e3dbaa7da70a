// Approximation-based explanations (paper §III): a LIME-style local linear
// surrogate fit around the explainee, and a global decision-tree surrogate
// distilled from black-box predictions, each with a fidelity score.

#ifndef XFAIR_EXPLAIN_SURROGATE_H_
#define XFAIR_EXPLAIN_SURROGATE_H_

#include "src/model/decision_tree.h"
#include "src/model/model.h"
#include "src/util/rng.h"

namespace xfair {

/// A fitted local linear surrogate g(z) = intercept + coeffs . z
/// approximating the black-box near one instance.
struct LocalSurrogate {
  Vector coefficients;  ///< One per feature; the local explanation.
  double intercept = 0.0;
  /// Weighted R^2 of the surrogate on its own perturbation sample — how
  /// faithful the explanation is locally.
  double fidelity = 0.0;
};

/// LIME-style explanation: samples 400 Gaussian perturbations of `x`,
/// weights them by proximity, and fits a ridge regression to the black-box
/// scores. `data` supplies per-feature scales for perturbation.
LocalSurrogate FitLocalSurrogate(const Model& model, const Dataset& data,
                                 const Vector& x, Rng* rng);

/// Global surrogate: a shallow decision tree trained to mimic the
/// black-box's hard predictions on `data`.
struct GlobalSurrogate {
  DecisionTree tree;
  /// Agreement rate between surrogate and black-box on `data`.
  double fidelity = 0.0;
};
GlobalSurrogate FitGlobalSurrogate(const Model& model, const Dataset& data,
                                   size_t max_depth = 4);

}  // namespace xfair

#endif  // XFAIR_EXPLAIN_SURROGATE_H_
