#include "src/mitigate/inprocess.h"

#include <cmath>

#include "src/util/kernels.h"

namespace xfair {
namespace {

/// Full-batch gradient descent: iterations, step size and L2 weight.
constexpr size_t kMaxIters = 800;
constexpr double kLearningRate = 0.3;
constexpr double kL2 = 1e-3;
/// kIndividual only: random pairs sampled per iteration.
constexpr size_t kPairsPerIter = 200;

}  // namespace

Result<LogisticRegression> TrainFairLogisticRegression(
    const Dataset& data, const FairTrainingOptions& options) {
  const size_t n = data.size();
  const size_t d = data.num_features();
  if (n == 0) return Status::InvalidArgument("empty training set");
  if (data.GroupIndices(0).empty() || data.GroupIndices(1).empty()) {
    return Status::InvalidArgument("both groups must be present");
  }

  // Standardize internally (as LogisticRegression::Fit does).
  Vector mean(d, 0.0), stddev(d, 1.0);
  for (size_t c = 0; c < d; ++c) {
    double m = 0.0;
    for (size_t i = 0; i < n; ++i) m += data.x().At(i, c);
    m /= static_cast<double>(n);
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double delta = data.x().At(i, c) - m;
      var += delta * delta;
    }
    mean[c] = m;
    stddev[c] = var / static_cast<double>(n) > 1e-12
                    ? std::sqrt(var / static_cast<double>(n))
                    : 1.0;
  }
  auto standardized = [&](size_t i, size_t c) {
    return (data.x().At(i, c) - mean[c]) / stddev[c];
  };

  Vector w(d, 0.0);
  double b = 0.0;
  Vector z(n), p(n);
  Rng pair_rng(options.pair_seed);  // For the kIndividual pair sampler.
  for (size_t iter = 0; iter < kMaxIters; ++iter) {
    for (size_t i = 0; i < n; ++i) {
      double zi = b;
      for (size_t c = 0; c < d; ++c) zi += w[c] * standardized(i, c);
      z[i] = zi;
      p[i] = kernels::Sigmoid(zi);
    }

    // Accuracy gradient.
    Vector grad_w(d, 0.0);
    double grad_b = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double err = p[i] - static_cast<double>(data.label(i));
      for (size_t c = 0; c < d; ++c) grad_w[c] += err * standardized(i, c);
      grad_b += err;
    }
    for (size_t c = 0; c < d; ++c)
      grad_w[c] = grad_w[c] / static_cast<double>(n) + kL2 * w[c];
    grad_b /= static_cast<double>(n);

    // Fairness penalty gradient.
    if (options.lambda > 0.0) {
      Vector pen_w(d, 0.0);
      double pen_b = 0.0;
      if (options.penalty == FairPenalty::kParity) {
        // gap = mean_{G1} p - mean_{G0} p; penalty = gap^2.
        double sum_p[2] = {0, 0};
        size_t cnt[2] = {0, 0};
        for (size_t i = 0; i < n; ++i) {
          sum_p[data.group(i)] += p[i];
          ++cnt[data.group(i)];
        }
        const double gap = sum_p[1] / static_cast<double>(cnt[1]) -
                           sum_p[0] / static_cast<double>(cnt[0]);
        for (size_t i = 0; i < n; ++i) {
          const double sign = data.group(i) == 1
                                  ? 1.0 / static_cast<double>(cnt[1])
                                  : -1.0 / static_cast<double>(cnt[0]);
          const double s = 2.0 * gap * sign * p[i] * (1.0 - p[i]);
          for (size_t c = 0; c < d; ++c) pen_w[c] += s * standardized(i, c);
          pen_b += s;
        }
      } else if (options.penalty == FairPenalty::kIndividual) {
        // Lipschitz surrogate on sampled pairs: penalize
        // (|p_i - p_j| - L * dist)^2 where positive, with distances in
        // the standardized feature space.
        for (size_t pair = 0; pair < kPairsPerIter; ++pair) {
          const size_t i = pair_rng.Below(n);
          size_t j = pair_rng.Below(n - 1);
          if (j >= i) ++j;
          double dist2 = 0.0;
          for (size_t c = 0; c < d; ++c) {
            const double delta = standardized(i, c) - standardized(j, c);
            dist2 += delta * delta;
          }
          const double excess = std::fabs(p[i] - p[j]) -
                                options.lipschitz * std::sqrt(dist2);
          if (excess <= 0.0) continue;
          const double sign = p[i] >= p[j] ? 1.0 : -1.0;
          const double scale = 2.0 * excess * sign /
                               static_cast<double>(kPairsPerIter);
          const double si = p[i] * (1.0 - p[i]);
          const double sj = p[j] * (1.0 - p[j]);
          for (size_t c = 0; c < d; ++c) {
            pen_w[c] += scale * (si * standardized(i, c) -
                                 sj * standardized(j, c));
          }
          pen_b += scale * (si - sj);
        }
      } else {
        // Recourse equalization: soft-denied weighted mean margin per
        // group; the denial weights (1 - p) are treated as constants.
        double wm[2] = {0, 0}, wsum[2] = {0, 0};
        for (size_t i = 0; i < n; ++i) {
          const double denial = 1.0 - p[i];
          wm[data.group(i)] += denial * z[i];
          wsum[data.group(i)] += denial;
        }
        if (wsum[0] > 1e-9 && wsum[1] > 1e-9) {
          const double gap = wm[1] / wsum[1] - wm[0] / wsum[0];
          for (size_t i = 0; i < n; ++i) {
            const double denial = 1.0 - p[i];
            const double sign = data.group(i) == 1 ? denial / wsum[1]
                                                   : -denial / wsum[0];
            const double s = 2.0 * gap * sign;
            for (size_t c = 0; c < d; ++c)
              pen_w[c] += s * standardized(i, c);
            pen_b += s;
          }
        }
      }
      for (size_t c = 0; c < d; ++c) grad_w[c] += options.lambda * pen_w[c];
      grad_b += options.lambda * pen_b;
    }

    // Clip the combined gradient: the recourse penalty acts on unbounded
    // margins and can otherwise blow up early in training.
    const double kClip = 5.0;
    for (size_t c = 0; c < d; ++c) {
      grad_w[c] = std::min(std::max(grad_w[c], -kClip), kClip);
      w[c] -= kLearningRate * grad_w[c];
    }
    grad_b = std::min(std::max(grad_b, -kClip), kClip);
    b -= kLearningRate * grad_b;
  }

  // Fold standardization back into original-space parameters.
  for (size_t c = 0; c < d; ++c) {
    w[c] /= stddev[c];
    b -= w[c] * mean[c];
  }
  LogisticRegression model;
  model.SetParameters(std::move(w), b);
  return model;
}

}  // namespace xfair
