#include "tests/oracles/lr_fit_oracle.h"

#include <algorithm>
#include <cmath>

#include "src/util/kernels.h"

namespace xfair::oracles {
namespace {

/// Gradient-descent step size, step cap and stopping tolerance.
constexpr double kLearningRate = 0.5;
constexpr size_t kMaxIters = 500;
constexpr double kTolerance = 1e-6;

using kernels::Sigmoid;

/// Column means and standard deviations as LogisticRegression::Fit
/// computes them (a constant column keeps 1), and the standardized rows.
struct Standardized {
  Vector mean, std;
  Matrix xs;
};

Standardized Standardize(const Dataset& data) {
  const size_t n = data.size();
  const size_t d = data.num_features();
  Standardized out{Vector(d, 0.0), Vector(d, 1.0), Matrix(n, d)};
  Vector& mean = out.mean;
  for (size_t i = 0; i < n; ++i)
    kernels::Axpy(1.0, data.x().RowPtr(i), mean.data(), d);
  for (size_t c = 0; c < d; ++c) mean[c] /= static_cast<double>(n);
  Vector var(d, 0.0);
  for (size_t i = 0; i < n; ++i)
    kernels::AccumSquaredDiff(data.x().RowPtr(i), mean.data(), var.data(),
                              d);
  for (size_t c = 0; c < d; ++c) {
    out.std[c] = var[c] / static_cast<double>(n) > 1e-12
                     ? std::sqrt(var[c] / static_cast<double>(n))
                     : 1.0;
  }
  for (size_t i = 0; i < n; ++i)
    kernels::Standardize(data.x().RowPtr(i), mean.data(), out.std.data(),
                         out.xs.RowPtr(i), d);
  return out;
}

double TotalWeight(size_t n, const Vector& instance_weights) {
  double total_weight = 0.0;
  for (size_t i = 0; i < n; ++i)
    total_weight += instance_weights.empty() ? 1.0 : instance_weights[i];
  return total_weight;
}

}  // namespace

Result<LogisticRegression> FitLogisticRegressionGd(
    const Dataset& data, const Vector& instance_weights) {
  const size_t n = data.size();
  const size_t d = data.num_features();
  if (n == 0) return Status::InvalidArgument("empty training set");
  if (!instance_weights.empty() && instance_weights.size() != n) {
    return Status::InvalidArgument("instance_weights size mismatch");
  }
  const Status finite = CheckFiniteInputs(data.x(), instance_weights);
  if (!finite.ok()) return finite;
  const double total_weight = TotalWeight(n, instance_weights);
  if (total_weight <= 0.0) {
    return Status::InvalidArgument("instance weights sum to zero");
  }
  const Standardized s = Standardize(data);
  const Matrix& xs = s.xs;

  Vector w(d, 0.0);
  double b = 0.0;
  for (size_t iter = 0; iter < kMaxIters; ++iter) {
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
      grad_w[c] = grad_w[c] / total_weight + kLogisticL2 * w[c];
      max_abs = std::max(max_abs, std::fabs(grad_w[c]));
    }
    grad_b /= total_weight;
    for (size_t c = 0; c < d; ++c) w[c] -= kLearningRate * grad_w[c];
    b -= kLearningRate * grad_b;
    if (max_abs < kTolerance) break;
  }

  // Fold standardization into the parameters: w.(x-mu)/sd + b =
  // (w/sd).x + (b - w.mu/sd).
  for (size_t c = 0; c < d; ++c) {
    w[c] /= s.std[c];
    b -= w[c] * s.mean[c];
  }
  LogisticRegression model;
  model.SetParameters(std::move(w), b);
  return model;
}

LogisticObjective EvaluateLogisticObjective(const LogisticRegression& model,
                                            const Dataset& data,
                                            const Vector& instance_weights) {
  const size_t n = data.size();
  const size_t d = data.num_features();
  XFAIR_CHECK(model.weights().size() == d);
  XFAIR_CHECK(instance_weights.empty() || instance_weights.size() == n);
  const Standardized s = Standardize(data);
  const double total_weight = TotalWeight(n, instance_weights);
  // Margins come from the model itself; only the penalty and the
  // gradient need the standardized weights w * sd.
  Vector w_std(d);
  for (size_t c = 0; c < d; ++c) w_std[c] = model.weights()[c] * s.std[c];
  double loss = 0.0, grad_b = 0.0;
  Vector grad_w(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double wi = instance_weights.empty() ? 1.0 : instance_weights[i];
    if (wi == 0.0) continue;
    const double z = model.Margin(data.instance(i));
    const double y = static_cast<double>(data.label(i));
    loss += wi * (std::max(z, 0.0) - y * z +
                  std::log1p(std::exp(-std::fabs(z))));
    const double scaled = wi * (Sigmoid(z) - y);
    kernels::Axpy(scaled, s.xs.RowPtr(i), grad_w.data(), d);
    grad_b += scaled;
  }
  LogisticObjective out;
  out.value = loss / total_weight +
              0.5 * kLogisticL2 * kernels::Dot(w_std.data(), w_std.data(), d);
  out.gradient_inf_norm = std::fabs(grad_b / total_weight);
  for (size_t c = 0; c < d; ++c) {
    out.gradient_inf_norm =
        std::max(out.gradient_inf_norm,
                 std::fabs(grad_w[c] / total_weight + kLogisticL2 * w_std[c]));
  }
  return out;
}

}  // namespace xfair::oracles
