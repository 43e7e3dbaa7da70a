#include "src/model/model.h"

#include <atomic>
#include <cmath>
#include <string>

#include "src/obs/obs.h"
#include "src/util/parallel.h"

namespace xfair {

uint64_t NextModelFitId() {
  // Starts at 1 so 0 always reads "never fitted" to cache lookups.
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Status CheckFiniteInputs(const Matrix& x, const Vector& weights) {
  for (size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.RowPtr(i);
    for (size_t f = 0; f < x.cols(); ++f) {
      if (!std::isfinite(row[f])) {
        return Status::InvalidArgument(
            "non-finite feature value at row " + std::to_string(i) +
            ", column " + std::to_string(f));
      }
    }
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!std::isfinite(weights[i])) {
      return Status::InvalidArgument("non-finite instance weight at row " +
                                     std::to_string(i));
    }
  }
  return Status::OK();
}

Vector Model::PredictProbaBatch(const Matrix& x) const {
  Vector out(x.rows());
  ParallelFor(0, x.rows(),
              [&](size_t i) { out[i] = PredictProba(x.Row(i)); });
  XFAIR_MONITOR_PREDICTIONS(out.data(), out.size(), threshold_);
  return out;
}

std::vector<int> Model::PredictBatch(const Matrix& x) const {
  const Vector proba = PredictProbaBatch(x);
  std::vector<int> out(proba.size());
  for (size_t i = 0; i < proba.size(); ++i)
    out[i] = proba[i] >= threshold_ ? 1 : 0;
  return out;
}

std::vector<int> Model::PredictAll(const Dataset& data) const {
  return PredictBatch(data.x());
}

Vector Model::PredictProbaAll(const Dataset& data) const {
  return PredictProbaBatch(data.x());
}

}  // namespace xfair
