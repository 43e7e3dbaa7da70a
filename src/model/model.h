// Model interfaces with explicit access tiers.
//
// The explanation taxonomy (paper §III) distinguishes black-box access
// (predictions only), gradient access, and white-box access. These tiers
// are modeled as interfaces: every explainer declares the weakest tier it
// needs by the parameter type it takes.

#ifndef XFAIR_MODEL_MODEL_H_
#define XFAIR_MODEL_MODEL_H_

#include <memory>
#include <string>

#include "src/data/dataset.h"
#include "src/util/matrix.h"
#include "src/util/status.h"

namespace xfair {

/// Process-unique id stamped onto a model by each successful Fit.
/// Explainer-side caches (e.g. the TreeSHAP node-conversion cache in
/// src/explain/tree_shap.cc) key on (model address, fit id): the id
/// changes on refit and is never reused, so a stale entry can't survive
/// either a refit or an address reused by a new model object.
uint64_t NextModelFitId();

/// OK when every value of `x` and of `weights` is finite; otherwise
/// InvalidArgument naming the first offender: "non-finite feature value
/// at row r, column c" in row-major order, then "non-finite instance
/// weight at row r". Every Fit calls it once before it reads its inputs.
Status CheckFiniteInputs(const Matrix& x, const Vector& weights = {});

/// Black-box tier: a trained binary classifier exposing only scores.
class Model {
 public:
  virtual ~Model() = default;

  /// P(y = 1 | x). Must be in [0, 1].
  virtual double PredictProba(const Vector& x) const = 0;

  /// Hard decision at the model's threshold (default 0.5).
  virtual int Predict(const Vector& x) const {
    return PredictProba(x) >= threshold_ ? 1 : 0;
  }

  /// P(y = 1 | row) for every row of `x` in one call. The batched entry
  /// point every hot path (Shapley coalition evaluation, Gopher scans,
  /// counterfactual search) goes through: overrides amortize virtual
  /// dispatch, read rows in place via Matrix::RowPtr instead of copying
  /// them into Vectors, and may parallelize across rows (each output is
  /// written exactly once, so results are deterministic). The default
  /// falls back to row-by-row PredictProba.
  virtual Vector PredictProbaBatch(const Matrix& x) const;

  /// Hard decisions for every row of `x`. The default thresholds
  /// PredictProbaBatch; models with a custom Predict rule (e.g. per-group
  /// thresholds) must override to match it.
  virtual std::vector<int> PredictBatch(const Matrix& x) const;

  /// Hard decisions for every row of `data`.
  std::vector<int> PredictAll(const Dataset& data) const;
  /// Scores for every row of `data`.
  Vector PredictProbaAll(const Dataset& data) const;

  double threshold() const { return threshold_; }
  void set_threshold(double t) { threshold_ = t; }

  /// Short human-readable model family name, e.g. "logreg".
  virtual std::string name() const = 0;

 protected:
  double threshold_ = 0.5;
};

/// Gradient tier: models that can differentiate their score w.r.t. input.
class GradientModel : public Model {
 public:
  /// d PredictProba(x) / d x.
  virtual Vector ProbaGradient(const Vector& x) const = 0;
};

}  // namespace xfair

#endif  // XFAIR_MODEL_MODEL_H_
