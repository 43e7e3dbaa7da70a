#include "src/model/metrics.h"

#include <algorithm>
#include <cmath>

namespace xfair {

double Confusion::accuracy() const {
  const size_t n = total();
  if (n == 0) return 0.0;
  return static_cast<double>(tp + tn) / static_cast<double>(n);
}

double Confusion::tpr() const {
  const size_t pos = tp + fn;
  return pos == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(pos);
}

double Confusion::fpr() const {
  const size_t neg = fp + tn;
  return neg == 0 ? 0.0 : static_cast<double>(fp) / static_cast<double>(neg);
}

double Confusion::fnr() const {
  const size_t pos = tp + fn;
  return pos == 0 ? 0.0 : static_cast<double>(fn) / static_cast<double>(pos);
}

double Confusion::precision() const {
  const size_t pred_pos = tp + fp;
  return pred_pos == 0
             ? 0.0
             : static_cast<double>(tp) / static_cast<double>(pred_pos);
}

double Confusion::positive_rate() const {
  const size_t n = total();
  if (n == 0) return 0.0;
  return static_cast<double>(tp + fp) / static_cast<double>(n);
}

CalibrationBins::CalibrationBins(size_t bins)
    : score_sum(bins, 0.0), label_sum(bins, 0.0), count(bins, 0) {
  XFAIR_CHECK(bins > 0);
}

double CalibrationBins::Ece() const {
  double ece = 0.0;
  const double n = static_cast<double>(rows);
  for (size_t b = 0; b < count.size(); ++b) {
    if (count[b] == 0) continue;
    const double cb = static_cast<double>(count[b]);
    ece += (cb / n) * std::fabs(score_sum[b] / cb - label_sum[b] / cb);
  }
  return ece;
}

Confusion EvaluateConfusion(const Model& model, const Dataset& data) {
  const std::vector<int> decisions = model.PredictAll(data);
  Confusion c;
  for (size_t i = 0; i < data.size(); ++i) c.Add(decisions[i], data.label(i));
  return c;
}

double Accuracy(const Model& model, const Dataset& data) {
  return EvaluateConfusion(model, data).accuracy();
}

double Auc(const Model& model, const Dataset& data) {
  const Vector scores = model.PredictProbaAll(data);
  std::vector<std::pair<double, int>> scored(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    scored[i] = {scores[i], data.label(i)};
  }
  std::sort(scored.begin(), scored.end());
  // Rank-sum (Mann-Whitney) with midranks for ties.
  size_t n_pos = 0, n_neg = 0;
  double rank_sum_pos = 0.0;
  size_t i = 0;
  while (i < scored.size()) {
    size_t j = i;
    while (j < scored.size() && scored[j].first == scored[i].first) ++j;
    const double midrank =
        0.5 * (static_cast<double>(i + 1) + static_cast<double>(j));
    for (size_t k = i; k < j; ++k) {
      if (scored[k].second == 1) {
        ++n_pos;
        rank_sum_pos += midrank;
      } else {
        ++n_neg;
      }
    }
    i = j;
  }
  if (n_pos == 0 || n_neg == 0) return 0.5;
  const double u = rank_sum_pos -
                   static_cast<double>(n_pos) *
                       (static_cast<double>(n_pos) + 1.0) / 2.0;
  return u / (static_cast<double>(n_pos) * static_cast<double>(n_neg));
}

double ExpectedCalibrationError(const Model& model, const Dataset& data,
                                size_t bins) {
  CalibrationBins calibration(bins);
  const Vector scores = model.PredictProbaAll(data);
  for (size_t i = 0; i < data.size(); ++i) {
    calibration.Add(scores[i], data.label(i));
  }
  return calibration.Ece();
}

}  // namespace xfair
