// Multiclass softmax regression plus multiclass fairness metrics —
// the paper's §V names multiclass classification as an open gap for
// explaining-unfairness work; this is the substrate that closes it here.
//
// Multiclass data does not fit the binary Dataset (its labels are checked
// to be 0/1), so this module works on a raw (features, labels, groups)
// triple.

#ifndef XFAIR_MODEL_SOFTMAX_REGRESSION_H_
#define XFAIR_MODEL_SOFTMAX_REGRESSION_H_

#include "src/util/matrix.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace xfair {

/// K-class linear classifier: P(y=k|x) = softmax(W x + b)_k.
class SoftmaxRegression {
 public:
  /// Fits on rows of `x` with labels in [0, num_classes). Labels must
  /// cover a contiguous range; groups are not used in training.
  Status Fit(const Matrix& x, const std::vector<int>& labels,
             size_t num_classes);

  bool fitted() const { return fitted_; }
  size_t num_classes() const { return num_classes_; }

  /// Class probability vector (sums to 1).
  Vector PredictProba(const Vector& x) const;
  /// Row-per-instance class probabilities for every row of `x` in one
  /// batched (and row-parallel) call; row i equals PredictProba(row i).
  Matrix PredictProbaBatch(const Matrix& x) const;
  /// Argmax class.
  int Predict(const Vector& x) const;
  /// Argmax class for every row of `x`.
  std::vector<int> PredictBatch(const Matrix& x) const;

 private:
  /// Writes the num_classes() probabilities for one feature row into
  /// `probs` — the single kernel-backed path all predictions go through.
  void ProbaFromRow(const double* row, double* probs) const;

  bool fitted_ = false;
  size_t num_classes_ = 0;
  Matrix weights_;  // num_classes x d.
  Vector biases_;
};

/// Multiclass statistical parity: max over classes of
/// |P(yhat=c | G-) - P(yhat=c | G+)|. 0 iff the predicted class
/// distribution is identical across groups.
double MulticlassParityGap(const SoftmaxRegression& model, const Matrix& x,
                           const std::vector<int>& groups);

/// Multiclass accuracy.
double MulticlassAccuracy(const SoftmaxRegression& model, const Matrix& x,
                          const std::vector<int>& labels);

/// Per-class group rate difference P(yhat=c|G-) - P(yhat=c|G+), one entry
/// per class — the multiclass analogue of the parity *profile*, telling
/// which outcome tier drives the disparity.
Vector MulticlassParityProfile(const SoftmaxRegression& model,
                               const Matrix& x,
                               const std::vector<int>& groups);

/// Synthetic 3-tier credit decision data (deny / manual review / approve)
/// with a planted score shift against the protected group. Returns
/// features (sensitive column 0 + 3 numeric), labels in {0,1,2}, groups.
struct MulticlassCredit {
  Matrix x;
  std::vector<int> labels;
  std::vector<int> groups;
};
MulticlassCredit GenerateMulticlassCredit(size_t n, double score_shift,
                                          uint64_t seed);

}  // namespace xfair

#endif  // XFAIR_MODEL_SOFTMAX_REGRESSION_H_
