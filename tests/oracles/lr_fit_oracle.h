// The full-batch gradient descent LogisticRegression::Fit ran before its
// damped Newton solve (DESIGN.md §5.5): up to 500 steps of size 0.5 on
// standardized features, stopping early once the gradient's infinity norm
// falls below 1e-6. Some fixtures need more steps than that (the causal
// world behind Table I needs 1,118), so the cap can end it short of the
// tolerance. Kept as the reference the Newton fit is tested against: its
// objective must be no higher and its decisions the same. Linked by the
// tests and the benches (xfair_oracles), never by the library.

#ifndef XFAIR_TESTS_ORACLES_LR_FIT_ORACLE_H_
#define XFAIR_TESTS_ORACLES_LR_FIT_ORACLE_H_

#include "src/data/dataset.h"
#include "src/model/logistic_regression.h"
#include "src/util/status.h"

namespace xfair::oracles {

/// Fits by the gradient-descent loop, with LogisticRegression::Fit's
/// input checks. `instance_weights` is empty or has one weight per row.
Result<LogisticRegression> FitLogisticRegressionGd(
    const Dataset& data, const Vector& instance_weights = {});

/// LogisticRegression::Fit's objective at a model's parameters, in the
/// standardized space the fit works in.
struct LogisticObjective {
  /// Weighted mean log-loss plus kLogisticL2 / 2 * ||w_standardized||^2.
  double value = 0.0;
  /// Infinity norm of its gradient in (w_standardized, b).
  double gradient_inf_norm = 0.0;
};

/// Evaluates the objective of `model` on `data`, whose rows (and
/// weights) must be the ones the model was fitted on.
LogisticObjective EvaluateLogisticObjective(
    const LogisticRegression& model, const Dataset& data,
    const Vector& instance_weights = {});

}  // namespace xfair::oracles

#endif  // XFAIR_TESTS_ORACLES_LR_FIT_ORACLE_H_
