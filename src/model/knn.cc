#include "src/model/knn.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/util/kernels.h"
#include "src/util/parallel.h"

namespace xfair {

Status KnnClassifier::Fit(const Dataset& data) {
  XFAIR_SPAN("model/fit/knn");
  if (data.size() == 0) return Status::InvalidArgument("empty training set");
  XFAIR_EVENT(kInfo, "model", "fit",
              {{"model", "knn"}, {"rows", std::to_string(data.size())}});
  if (k_ == 0) return Status::InvalidArgument("k must be positive");
  if (k_ > data.size()) {
    return Status::InvalidArgument("k exceeds training-set size");
  }
  const Status finite = CheckFiniteInputs(data.x());
  if (!finite.ok()) return finite;
  data_ = data;
  index_ = KdTree(data_.x());
  fitted_ = true;
  return Status::OK();
}

std::vector<size_t> KnnClassifier::Neighbors(const Vector& x,
                                             size_t k) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  XFAIR_CHECK(x.size() == data_.num_features());
  return index_.KNearest(x.data(), k);
}

std::vector<size_t> KnnClassifier::NeighborsBruteForce(const Vector& x,
                                                       size_t k) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  XFAIR_CHECK(k > 0 && k <= data_.size());
  XFAIR_CHECK(x.size() == data_.num_features());
  const Matrix& pts = data_.x();
  // Squared distances in place against the row storage — no per-candidate
  // temporaries. The same pinned-order kernel as KdTree::SquaredDistance,
  // so both paths produce identical floating-point sums (and therefore
  // identical neighbor orderings under distance ties).
  std::vector<std::pair<double, size_t>> dist(pts.rows());
  for (size_t i = 0; i < pts.rows(); ++i) {
    dist[i] = {kernels::SquaredDistance(pts.RowPtr(i), x.data(), pts.cols()),
               i};
  }
  std::partial_sort(dist.begin(), dist.begin() + static_cast<long>(k),
                    dist.end());
  std::vector<size_t> out(k);
  for (size_t i = 0; i < k; ++i) out[i] = dist[i].second;
  return out;
}

double KnnClassifier::ProbaFromRow(const double* row) const {
  const auto nn = index_.KNearest(row, k_);
  double pos = 0.0;
  for (size_t i : nn) pos += static_cast<double>(data_.label(i));
  return pos / static_cast<double>(nn.size());
}

double KnnClassifier::PredictProba(const Vector& x) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  XFAIR_CHECK(x.size() == data_.num_features());
  return ProbaFromRow(x.data());
}

Vector KnnClassifier::PredictProbaBatch(const Matrix& x) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  XFAIR_CHECK(x.cols() == data_.num_features());
  XFAIR_LATENCY_NS("latency/predict_batch/knn");
  Vector out(x.rows());
  ParallelFor(0, x.rows(),
              [&](size_t i) { out[i] = ProbaFromRow(x.RowPtr(i)); });
  XFAIR_MONITOR_PREDICTIONS(out.data(), out.size(), threshold_);
  return out;
}

}  // namespace xfair
