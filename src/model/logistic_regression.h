// L2-regularized logistic regression fitted by damped Newton (IRLS)
// iterations on internally standardized features. The white-box workhorse
// of the library: it exposes weights (for white-box explainers and
// influence functions) and input gradients (for Wachter-style
// counterfactual search).

#ifndef XFAIR_MODEL_LOGISTIC_REGRESSION_H_
#define XFAIR_MODEL_LOGISTIC_REGRESSION_H_

#include "src/model/model.h"
#include "src/util/status.h"

namespace xfair {

/// L2 weight on the standardized weights (the bias is unpenalized). The
/// gradient-descent reference fit in tests/oracles reads it too.
inline constexpr double kLogisticL2 = 1e-3;

/// Binary logistic regression: P(y=1|x) = sigmoid(w.x + b).
class LogisticRegression final : public GradientModel {
 public:
  LogisticRegression() = default;

  /// Minimizes the weighted mean log-loss plus kLogisticL2 / 2 * ||w||^2
  /// over standardized features by damped Newton steps, until the
  /// gradient's infinity norm falls below 1e-6 or an iteration cap ends
  /// the fit (a "fit_not_converged" warning event then says so). Sums run
  /// serially in ascending row order, so the weights are the same at any
  /// thread count. `instance_weights` (if non-empty) must have one weight
  /// per row and is how pre-processing mitigation (reweighing) plugs in;
  /// zero-weight rows are skipped. Returns kInvalidArgument on shape
  /// errors.
  Status Fit(const Dataset& data, const Vector& instance_weights = {});

  double PredictProba(const Vector& x) const override;
  Vector PredictProbaBatch(const Matrix& x) const override;
  Vector ProbaGradient(const Vector& x) const override;
  std::string name() const override { return "logreg"; }

  bool fitted() const { return fitted_; }
  const Vector& weights() const { return weights_; }
  double bias() const { return bias_; }

  /// Installs externally-trained parameters (used by in-processing
  /// mitigation which runs its own penalized training loop).
  void SetParameters(Vector weights, double bias);

  /// Decision-function margin w.x + b (signed distance up to ||w||).
  double Margin(const Vector& x) const;

  /// Euclidean distance of x from the decision boundary at the model's
  /// threshold: |w.x + b - logit(threshold)| / ||w||.
  double DistanceToBoundary(const Vector& x) const;

 private:
  bool fitted_ = false;
  Vector weights_;
  double bias_ = 0.0;
};

}  // namespace xfair

#endif  // XFAIR_MODEL_LOGISTIC_REGRESSION_H_
