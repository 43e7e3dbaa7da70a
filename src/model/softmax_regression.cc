#include "src/model/softmax_regression.h"

#include <algorithm>
#include <cmath>

#include "src/model/model.h"
#include "src/obs/obs.h"
#include "src/util/kernels.h"
#include "src/util/parallel.h"

namespace xfair {
namespace {

/// Full-batch gradient descent: iterations, step size and L2 weight.
constexpr size_t kMaxIters = 400;
constexpr double kLearningRate = 0.5;
constexpr double kL2 = 1e-3;

}  // namespace

Status SoftmaxRegression::Fit(const Matrix& x,
                              const std::vector<int>& labels,
                              size_t num_classes) {
  XFAIR_SPAN("model/fit/softmax_regression");
  const size_t n = x.rows();
  const size_t d = x.cols();
  if (n == 0) return Status::InvalidArgument("empty training set");
  XFAIR_EVENT(kInfo, "model", "fit",
              {{"model", "softmax_regression"}, {"rows", std::to_string(n)}});
  if (labels.size() != n) {
    return Status::InvalidArgument("labels size mismatch");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least two classes");
  }
  for (int y : labels) {
    if (y < 0 || y >= static_cast<int>(num_classes)) {
      return Status::InvalidArgument("label out of range");
    }
  }
  const Status finite = CheckFiniteInputs(x);
  if (!finite.ok()) return finite;

  // Internal standardization (same rationale as LogisticRegression):
  // row-major moment passes, then one standardized copy so the gradient
  // loop below is pure dense kernels.
  Vector mean(d, 0.0), std(d, 1.0);
  for (size_t i = 0; i < n; ++i)
    kernels::Axpy(1.0, x.RowPtr(i), mean.data(), d);
  for (size_t c = 0; c < d; ++c) mean[c] /= static_cast<double>(n);
  Vector var(d, 0.0);
  for (size_t i = 0; i < n; ++i)
    kernels::AccumSquaredDiff(x.RowPtr(i), mean.data(), var.data(), d);
  for (size_t c = 0; c < d; ++c) {
    std[c] = var[c] / static_cast<double>(n) > 1e-12
                 ? std::sqrt(var[c] / static_cast<double>(n))
                 : 1.0;
  }
  Matrix xs(n, d);
  for (size_t i = 0; i < n; ++i)
    kernels::Standardize(x.RowPtr(i), mean.data(), std.data(),
                         xs.RowPtr(i), d);

  Matrix w(num_classes, d);
  Vector b(num_classes, 0.0);
  Vector probs(num_classes);
  for (size_t iter = 0; iter < kMaxIters; ++iter) {
    Matrix grad_w(num_classes, d);
    Vector grad_b(num_classes, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* row = xs.RowPtr(i);
      kernels::GemvBias(w.RowPtr(0), num_classes, d, row, b.data(),
                        probs.data());
      kernels::SoftmaxRow(probs.data(), num_classes);
      for (size_t k = 0; k < num_classes; ++k) {
        const double err =
            probs[k] - (labels[i] == static_cast<int>(k) ? 1.0 : 0.0);
        kernels::Axpy(err, row, grad_w.RowPtr(k), d);
        grad_b[k] += err;
      }
    }
    for (size_t k = 0; k < num_classes; ++k) {
      const double* gw = grad_w.RowPtr(k);
      double* wk = w.RowPtr(k);
      for (size_t c = 0; c < d; ++c) {
        const double g =
            gw[c] / static_cast<double>(n) + kL2 * wk[c];
        wk[c] -= kLearningRate * g;
      }
      b[k] -= kLearningRate * grad_b[k] / static_cast<double>(n);
    }
  }

  // Fold standardization back into the parameters.
  for (size_t k = 0; k < num_classes; ++k) {
    for (size_t c = 0; c < d; ++c) {
      w.At(k, c) /= std[c];
      b[k] -= w.At(k, c) * mean[c];
    }
  }
  weights_ = std::move(w);
  biases_ = std::move(b);
  num_classes_ = num_classes;
  fitted_ = true;
  return Status::OK();
}

Vector SoftmaxRegression::PredictProba(const Vector& x) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  XFAIR_CHECK(x.size() == weights_.cols());
  Vector logits(num_classes_);
  ProbaFromRow(x.data(), logits.data());
  return logits;
}

/// Shared kernel path: logits = biases + W x (pinned per-class dots, no
/// weight-row copies), normalized in place. Single-row and batched
/// predictions are bit-identical because both end here.
void SoftmaxRegression::ProbaFromRow(const double* row, double* probs) const {
  kernels::GemvBias(weights_.RowPtr(0), num_classes_, weights_.cols(), row,
                    biases_.data(), probs);
  kernels::SoftmaxRow(probs, num_classes_);
}

int SoftmaxRegression::Predict(const Vector& x) const {
  const Vector probs = PredictProba(x);
  return static_cast<int>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

Matrix SoftmaxRegression::PredictProbaBatch(const Matrix& x) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  XFAIR_CHECK(x.cols() == weights_.cols());
  XFAIR_LATENCY_NS("latency/predict_batch/softmax_regression");
  Matrix out(x.rows(), num_classes_);
  ParallelFor(0, x.rows(),
              [&](size_t i) { ProbaFromRow(x.RowPtr(i), out.RowPtr(i)); });
  // Binary softmax streams into an attached fairness monitor like the
  // Vector-returning models: score = P(class 1), hard decision = argmax
  // (class 0 wins probability ties, matching Predict).
  if (XFAIR_MONITOR_ACTIVE(x.rows()) && num_classes_ == 2) {
    std::vector<double> p1(x.rows());
    std::vector<int> pred(x.rows());
    for (size_t i = 0; i < x.rows(); ++i) {
      p1[i] = out.At(i, 1);
      pred[i] = out.At(i, 1) > out.At(i, 0) ? 1 : 0;
    }
    obs::MonitorPredictionBatch(p1.data(), pred.data(), x.rows());
  }
  return out;
}

std::vector<int> SoftmaxRegression::PredictBatch(const Matrix& x) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  XFAIR_CHECK(x.cols() == weights_.cols());
  std::vector<int> out(x.rows());
  ParallelFor(0, x.rows(), [&](size_t i) {
    Vector probs(num_classes_);
    ProbaFromRow(x.RowPtr(i), probs.data());
    out[i] = static_cast<int>(
        std::max_element(probs.begin(), probs.end()) - probs.begin());
  });
  return out;
}

Vector MulticlassParityProfile(const SoftmaxRegression& model,
                               const Matrix& x,
                               const std::vector<int>& groups) {
  XFAIR_CHECK(x.rows() == groups.size());
  const size_t k = model.num_classes();
  Vector count_g0(k, 0.0), count_g1(k, 0.0);
  size_t n0 = 0, n1 = 0;
  const std::vector<int> preds = model.PredictBatch(x);
  for (size_t i = 0; i < x.rows(); ++i) {
    const int pred = preds[i];
    if (groups[i] == 0) {
      count_g0[static_cast<size_t>(pred)] += 1.0;
      ++n0;
    } else {
      count_g1[static_cast<size_t>(pred)] += 1.0;
      ++n1;
    }
  }
  Vector profile(k, 0.0);
  for (size_t c = 0; c < k; ++c) {
    const double r0 = n0 ? count_g0[c] / static_cast<double>(n0) : 0.0;
    const double r1 = n1 ? count_g1[c] / static_cast<double>(n1) : 0.0;
    profile[c] = r0 - r1;
  }
  return profile;
}

double MulticlassParityGap(const SoftmaxRegression& model, const Matrix& x,
                           const std::vector<int>& groups) {
  double gap = 0.0;
  for (double p : MulticlassParityProfile(model, x, groups)) {
    gap = std::max(gap, std::fabs(p));
  }
  return gap;
}

double MulticlassAccuracy(const SoftmaxRegression& model, const Matrix& x,
                          const std::vector<int>& labels) {
  XFAIR_CHECK(x.rows() == labels.size());
  if (x.rows() == 0) return 0.0;
  size_t correct = 0;
  const std::vector<int> preds = model.PredictBatch(x);
  for (size_t i = 0; i < x.rows(); ++i) {
    correct += static_cast<size_t>(preds[i] == labels[i]);
  }
  return static_cast<double>(correct) / static_cast<double>(x.rows());
}

MulticlassCredit GenerateMulticlassCredit(size_t n, double score_shift,
                                          uint64_t seed) {
  Rng rng(seed);
  MulticlassCredit out;
  out.x = Matrix(n, 4);
  out.labels.resize(n);
  out.groups.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int g = rng.Bernoulli(0.4) ? 1 : 0;
    const double income =
        rng.Normal(6.0 - 0.4 * score_shift * g, 2.0);
    const double savings = rng.Normal(8.0, 3.0);
    const double debt = rng.Normal(6.0, 2.5);
    out.x.At(i, 0) = g;
    out.x.At(i, 1) = income;
    out.x.At(i, 2) = savings;
    out.x.At(i, 3) = debt;
    const double z = 0.5 * (income - 6.0) + 0.2 * (savings - 8.0) -
                     0.3 * (debt - 6.0) -
                     score_shift * static_cast<double>(g) +
                     rng.Normal(0.0, 0.6);
    // Three tiers: deny (0) / manual review (1) / approve (2).
    out.labels[i] = z < -0.5 ? 0 : (z < 0.5 ? 1 : 2);
    out.groups[i] = g;
  }
  return out;
}

}  // namespace xfair
