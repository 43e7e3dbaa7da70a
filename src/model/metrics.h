// Classification quality metrics (accuracy, confusion counts, AUC,
// calibration). The fairness layer conditions these on group membership;
// this header is the unconditioned substrate. Every model-taking function
// scores `data` through the batch API (one PredictAll or PredictProbaAll).

#ifndef XFAIR_MODEL_METRICS_H_
#define XFAIR_MODEL_METRICS_H_

#include <algorithm>

#include "src/data/dataset.h"
#include "src/model/model.h"

namespace xfair {

/// Confusion-matrix counts for binary classification.
struct Confusion {
  size_t tp = 0, fp = 0, tn = 0, fn = 0;

  /// Counts one 0/1 decision against its 0/1 label.
  void Add(int prediction, int label) {
    if (prediction == 1 && label == 1) ++tp;
    if (prediction == 1 && label == 0) ++fp;
    if (prediction == 0 && label == 0) ++tn;
    if (prediction == 0 && label == 1) ++fn;
  }

  size_t total() const { return tp + fp + tn + fn; }
  double accuracy() const;
  /// True positive rate (recall); 0 if no positives.
  double tpr() const;
  /// False positive rate; 0 if no negatives.
  double fpr() const;
  /// False negative rate; 0 if no positives.
  double fnr() const;
  /// Precision (positive predictive value); 0 if no predicted positives.
  double precision() const;
  /// Rate of predicted-favorable outcomes, P(y_hat = 1).
  double positive_rate() const;
};

/// Equal-width probability bins over scored, labeled rows: the sums the
/// expected calibration error is taken over.
struct CalibrationBins {
  explicit CalibrationBins(size_t bins);

  /// Files a score in [0, 1] and its label into bin
  /// min(bins - 1, floor(score * bins)).
  void Add(double score, int label) {
    const size_t bins = count.size();
    const size_t b = std::min(
        bins - 1, static_cast<size_t>(score * static_cast<double>(bins)));
    score_sum[b] += score;
    label_sum[b] += static_cast<double>(label);
    ++count[b];
    ++rows;
  }

  /// Expected calibration error: the sum over non-empty bins of
  /// (bin rows / rows) * |mean score - mean label|; 0 with no rows.
  double Ece() const;

  std::vector<double> score_sum, label_sum;
  std::vector<size_t> count;
  size_t rows = 0;
};

/// Confusion counts of `model` on every row of `data`.
Confusion EvaluateConfusion(const Model& model, const Dataset& data);

/// Plain accuracy of `model` on `data`.
double Accuracy(const Model& model, const Dataset& data);

/// Area under the ROC curve of `model` scores on `data` (rank-based;
/// 0.5 if one class is absent).
double Auc(const Model& model, const Dataset& data);

/// Expected calibration error of `model` on every row of `data`, with
/// `bins` equal-width probability bins.
double ExpectedCalibrationError(const Model& model, const Dataset& data,
                                size_t bins = 10);

}  // namespace xfair

#endif  // XFAIR_MODEL_METRICS_H_
