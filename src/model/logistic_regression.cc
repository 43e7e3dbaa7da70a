#include "src/model/logistic_regression.h"

#include <cmath>

#include "src/obs/obs.h"
#include "src/util/kernels.h"
#include "src/util/parallel.h"

namespace xfair {
namespace {

/// Gradient-descent step size and L2 weight.
constexpr double kLearningRate = 0.5;
constexpr double kL2 = 1e-3;

}  // namespace

using kernels::Sigmoid;

Status LogisticRegression::Fit(const Dataset& data,
                               const LogisticRegressionOptions& options,
                               const Vector& instance_weights) {
  XFAIR_SPAN("model/fit/logistic_regression");
  const size_t n = data.size();
  const size_t d = data.num_features();
  if (n == 0) return Status::InvalidArgument("empty training set");
  XFAIR_EVENT(kInfo, "model", "fit",
              {{"model", "logistic_regression"}, {"rows", std::to_string(n)}});
  if (!instance_weights.empty() && instance_weights.size() != n) {
    return Status::InvalidArgument("instance_weights size mismatch");
  }
  const Status finite = CheckFiniteInputs(data.x(), instance_weights);
  if (!finite.ok()) return finite;
  double total_weight = 0.0;
  for (size_t i = 0; i < n; ++i)
    total_weight += instance_weights.empty() ? 1.0 : instance_weights[i];
  if (total_weight <= 0.0) {
    return Status::InvalidArgument("instance weights sum to zero");
  }

  // Internally standardize features so plain gradient descent is well
  // conditioned on any input scale; parameters are folded back to the
  // original space below. Column moments are accumulated row-major (one
  // streaming pass per moment, no Matrix::Col copies) — per-column sums
  // still run in ascending row order, so the moments are unchanged.
  Vector mean(d, 0.0), std(d, 1.0);
  for (size_t i = 0; i < n; ++i)
    kernels::Axpy(1.0, data.x().RowPtr(i), mean.data(), d);
  for (size_t c = 0; c < d; ++c) mean[c] /= static_cast<double>(n);
  Vector var(d, 0.0);
  for (size_t i = 0; i < n; ++i)
    kernels::AccumSquaredDiff(data.x().RowPtr(i), mean.data(), var.data(),
                              d);
  for (size_t c = 0; c < d; ++c) {
    std[c] = var[c] / static_cast<double>(n) > 1e-12
                 ? std::sqrt(var[c] / static_cast<double>(n))
                 : 1.0;
  }

  // Standardize once up front: the gradient loop then runs pure dense
  // kernels on the pre-scaled rows instead of re-deriving
  // (x - mean) / std per element per iteration.
  Matrix xs(n, d);
  for (size_t i = 0; i < n; ++i)
    kernels::Standardize(data.x().RowPtr(i), mean.data(), std.data(),
                         xs.RowPtr(i), d);

  Vector w(d, 0.0);
  double b = 0.0;
  for (size_t iter = 0; iter < options.max_iters; ++iter) {
    Vector grad_w(d, 0.0);
    double grad_b = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double wi = instance_weights.empty() ? 1.0 : instance_weights[i];
      if (wi == 0.0) continue;
      const double* row = xs.RowPtr(i);
      const double z = b + kernels::Dot(w.data(), row, d);
      const double err = Sigmoid(z) - static_cast<double>(data.label(i));
      const double scaled = wi * err;
      kernels::Axpy(scaled, row, grad_w.data(), d);
      grad_b += scaled;
    }
    double max_abs = std::fabs(grad_b / total_weight);
    for (size_t c = 0; c < d; ++c) {
      grad_w[c] = grad_w[c] / total_weight + kL2 * w[c];
      max_abs = std::max(max_abs, std::fabs(grad_w[c]));
    }
    grad_b /= total_weight;
    for (size_t c = 0; c < d; ++c) w[c] -= kLearningRate * grad_w[c];
    b -= kLearningRate * grad_b;
    if (max_abs < options.tolerance) break;
  }

  // Fold standardization into the parameters: w.(x-mu)/sd + b =
  // (w/sd).x + (b - w.mu/sd).
  for (size_t c = 0; c < d; ++c) {
    w[c] /= std[c];
    b -= w[c] * mean[c];
  }
  weights_ = std::move(w);
  bias_ = b;
  fitted_ = true;
  return Status::OK();
}

double LogisticRegression::PredictProba(const Vector& x) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  XFAIR_CHECK(x.size() == weights_.size());
  return Sigmoid(Dot(weights_, x) + bias_);
}

Vector LogisticRegression::PredictProbaBatch(const Matrix& x) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  XFAIR_CHECK(x.cols() == weights_.size());
  XFAIR_LATENCY_NS("latency/predict_batch/logistic_regression");
  const size_t d = weights_.size();
  Vector out(x.rows());
  // Blocked Gemv + fused sigmoid per chunk. Each row's score is the
  // pinned-order dot plus the bias — the exact arithmetic of
  // PredictProba — so batch and row-by-row results are bit-identical at
  // any chunking or thread count.
  ParallelForChunks(0, x.rows(), [&](const ChunkRange& chunk) {
    const size_t rows = chunk.end - chunk.begin;
    kernels::Gemv(x.RowPtr(chunk.begin), rows, d, weights_.data(), bias_,
                  out.data() + chunk.begin);
    kernels::SigmoidBatch(out.data() + chunk.begin, out.data() + chunk.begin,
                          rows);
  });
  XFAIR_MONITOR_PREDICTIONS(out.data(), out.size(), threshold_);
  return out;
}

Vector LogisticRegression::ProbaGradient(const Vector& x) const {
  const double p = PredictProba(x);
  return Scale(p * (1.0 - p), weights_);
}

void LogisticRegression::SetParameters(Vector weights, double bias) {
  weights_ = std::move(weights);
  bias_ = bias;
  fitted_ = true;
}

double LogisticRegression::Margin(const Vector& x) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  return Dot(weights_, x) + bias_;
}

double LogisticRegression::DistanceToBoundary(const Vector& x) const {
  const double wnorm = Norm2(weights_);
  if (wnorm < 1e-12) return 0.0;
  const double logit_t =
      std::log(threshold_ / (1.0 - threshold_));  // threshold in margin space
  return std::fabs(Margin(x) - logit_t) / wnorm;
}

}  // namespace xfair
