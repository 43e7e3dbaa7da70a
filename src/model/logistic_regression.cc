#include "src/model/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "src/obs/json.h"
#include "src/obs/obs.h"
#include "src/util/kernels.h"
#include "src/util/parallel.h"

namespace xfair {
namespace {

/// Newton iterations one fit may take. Fits on the library's generators
/// converge in under ten; a fit the cap ends emits a warning event.
constexpr size_t kMaxIterations = 50;
/// Times one step may be halved while it still raises the objective.
constexpr size_t kMaxStepHalvings = 40;
/// Stop when the gradient's infinity norm falls below this.
constexpr double kTolerance = 1e-6;

/// The regularized objective at one point `theta` of the standardized
/// problem (d weights, then the bias), with its gradient, the gradient's
/// infinity norm and the lower triangle of its (d+1) x (d+1) Hessian,
/// row-major.
struct Evaluation {
  double objective = 0.0;
  Vector gradient;
  double gradient_norm = 0.0;
  Vector hessian;
};

/// One serial pass over the rows in ascending order. Zero-weight rows are
/// skipped; every sum is per element in row order or a pinned-order
/// kernels::Dot, so the result does not depend on the thread count.
Evaluation Evaluate(const Matrix& xs, const Dataset& data,
                    const Vector& instance_weights, double total_weight,
                    const Vector& theta) {
  const size_t d = xs.cols();
  const size_t m = d + 1;
  const double* w = theta.data();
  const double b = theta[d];
  Evaluation e;
  e.gradient.assign(m, 0.0);
  e.hessian.assign(m * m, 0.0);
  double* hessian = e.hessian.data();
  double loss = 0.0;
  for (size_t i = 0; i < xs.rows(); ++i) {
    const double wi = instance_weights.empty() ? 1.0 : instance_weights[i];
    if (wi == 0.0) continue;
    const double* row = xs.RowPtr(i);
    const double z = b + kernels::Dot(w, row, d);
    const double y = static_cast<double>(data.label(i));
    // Sigmoid and log(1 + e^z) share one exp (kernels::Sigmoid's
    // branches); the log-loss log(1 + e^z) - y z keeps full precision.
    const double ez = std::exp(-std::fabs(z));
    const double p = z >= 0 ? 1.0 / (1.0 + ez) : ez / (1.0 + ez);
    loss += wi * (std::max(z, 0.0) - y * z + std::log1p(ez));
    const double scaled = wi * (p - y);
    kernels::Axpy(scaled, row, e.gradient.data(), d);
    e.gradient[d] += scaled;
    // wi p (1 - p) [x 1][x 1]^T, lower triangle.
    const double s = wi * p * (1.0 - p);
    for (size_t j = 0; j < d; ++j)
      kernels::Axpy(s * row[j], row, hessian + j * m, j + 1);
    kernels::Axpy(s, row, hessian + d * m, d);
    hessian[d * m + d] += s;
  }
  e.objective =
      loss / total_weight + 0.5 * kLogisticL2 * kernels::Dot(w, w, d);
  for (size_t c = 0; c < m; ++c) {
    e.gradient[c] /= total_weight;
    if (c < d) e.gradient[c] += kLogisticL2 * w[c];
    e.gradient_norm = std::max(e.gradient_norm, std::fabs(e.gradient[c]));
    for (size_t k = 0; k <= c; ++k) hessian[c * m + k] /= total_weight;
    if (c < d) hessian[c * m + c] += kLogisticL2;
  }
  return e;
}

/// Solves H x = g, H given by its lower triangle `h` (m x m, row-major),
/// through a Cholesky factorization of `h` in place. Returns false when
/// H is not positive definite at working precision.
bool CholeskySolve(Vector h, size_t m, const Vector& g, Vector* x) {
  for (size_t j = 0; j < m; ++j) {
    double* row_j = h.data() + j * m;
    const double pivot = row_j[j] - kernels::Dot(row_j, row_j, j);
    if (!(pivot > 0.0)) return false;
    row_j[j] = std::sqrt(pivot);
    for (size_t i = j + 1; i < m; ++i) {
      double* row_i = h.data() + i * m;
      row_i[j] = (row_i[j] - kernels::Dot(row_i, row_j, j)) / row_j[j];
    }
  }
  // L y = g, then L^T x = y.
  *x = g;
  for (size_t i = 0; i < m; ++i) {
    const double* row_i = h.data() + i * m;
    (*x)[i] = ((*x)[i] - kernels::Dot(row_i, x->data(), i)) / row_i[i];
  }
  for (size_t i = m; i-- > 0;) {
    double acc = (*x)[i];
    for (size_t k = i + 1; k < m; ++k) acc -= h[k * m + i] * (*x)[k];
    (*x)[i] = acc / h[i * m + i];
  }
  return true;
}

}  // namespace

using kernels::Sigmoid;

Status LogisticRegression::Fit(const Dataset& data,
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

  // Internally standardize features so the penalty and the stopping rule
  // see every column on one scale; parameters are folded back to the
  // original space below. Column moments are accumulated row-major (one
  // streaming pass per moment, no Matrix::Col copies) — per-column sums
  // still run in ascending row order.
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

  // Standardize once up front: every Newton pass then runs pure dense
  // kernels on the pre-scaled rows.
  Matrix xs(n, d);
  for (size_t i = 0; i < n; ++i)
    kernels::Standardize(data.x().RowPtr(i), mean.data(), std.data(),
                         xs.RowPtr(i), d);

  // Damped Newton: solve H step = g, then halve the step until the
  // objective does not increase. A Hessian that is not positive definite
  // falls back to the gradient as the step.
  const size_t m = d + 1;
  Vector theta(m, 0.0);  // Standardized weights, then the bias.
  Evaluation at = Evaluate(xs, data, instance_weights, total_weight, theta);
  size_t iterations = 0;
  while (at.gradient_norm >= kTolerance && iterations < kMaxIterations) {
    ++iterations;
    XFAIR_COUNTER_ADD("model/logistic_regression/newton_iterations", 1);
    Vector step;
    if (!CholeskySolve(at.hessian, m, at.gradient, &step)) step = at.gradient;
    Vector next(m);
    Evaluation trial;
    for (size_t halvings = 0;; ++halvings) {
      const double t = std::ldexp(1.0, -static_cast<int>(halvings));
      for (size_t c = 0; c < m; ++c) next[c] = theta[c] - t * step[c];
      trial = Evaluate(xs, data, instance_weights, total_weight, next);
      if (trial.objective <= at.objective || halvings == kMaxStepHalvings)
        break;
      XFAIR_COUNTER_ADD("model/logistic_regression/step_halvings", 1);
    }
    // No step lowers the objective at working precision: stop here.
    if (!(trial.objective <= at.objective)) break;
    theta = std::move(next);
    at = std::move(trial);
  }
  if (at.gradient_norm >= kTolerance) {
    XFAIR_EVENT(
        kWarn, "model", "fit_not_converged",
        {{"model", "logistic_regression"},
         {"iterations", std::to_string(iterations)},
         {"gradient_inf_norm", obs::Json::Number(at.gradient_norm).Dump()}});
  }

  // Fold standardization into the parameters: w.(x-mu)/sd + b =
  // (w/sd).x + (b - w.mu/sd).
  Vector w(theta.begin(), theta.begin() + static_cast<std::ptrdiff_t>(d));
  double b = theta[d];
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
