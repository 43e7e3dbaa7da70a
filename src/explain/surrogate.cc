#include "src/explain/surrogate.h"

#include <cmath>

#include "src/util/stats.h"

namespace xfair {
namespace {

/// Perturbations sampled around the explainee.
constexpr size_t kNumSamples = 400;
/// Perturbation scale as a fraction of each feature's observed stddev.
constexpr double kPerturbationScale = 0.5;
/// Exponential kernel width (in units of perturbation distance).
constexpr double kKernelWidth = 1.0;
/// Ridge added to the coefficients' diagonal.
constexpr double kRidge = 1e-3;

}  // namespace

LocalSurrogate FitLocalSurrogate(const Model& model, const Dataset& data,
                                 const Vector& x, Rng* rng) {
  XFAIR_CHECK(rng != nullptr);
  XFAIR_CHECK(x.size() == data.num_features());
  XFAIR_CHECK(kNumSamples >= x.size() + 2);
  const size_t d = x.size();
  const size_t n = kNumSamples;

  // Per-feature perturbation scales from the data distribution.
  Vector scales(d);
  for (size_t c = 0; c < d; ++c) {
    const double sd = Stddev(data.x().Col(c));
    scales[c] = (sd > 1e-12 ? sd : 1.0) * kPerturbationScale;
  }

  // Sample perturbations, query the black box, compute kernel weights.
  Matrix z(n, d);
  Vector y(n), w(n);
  for (size_t i = 0; i < n; ++i) {
    Vector zi = x;
    double dist2 = 0.0;
    for (size_t c = 0; c < d; ++c) {
      const double delta = rng->Normal(0.0, scales[c]);
      zi[c] += delta;
      const double nd = delta / std::max(scales[c], 1e-12);
      dist2 += nd * nd;
    }
    z.SetRow(i, zi);
    y[i] = model.PredictProba(zi);
    w[i] = std::exp(-dist2 /
                    (2.0 * kKernelWidth * kKernelWidth *
                     static_cast<double>(d)));
  }

  // Weighted ridge regression with intercept: solve (A^T W A + rI) b =
  // A^T W y where A = [1 | z - x] (centering at x makes the intercept the
  // local prediction).
  Matrix xtx(d + 1, d + 1);
  Vector xty(d + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    Vector row(d + 1);
    row[0] = 1.0;
    for (size_t c = 0; c < d; ++c) row[c + 1] = z.At(i, c) - x[c];
    for (size_t a = 0; a <= d; ++a) {
      xty[a] += w[i] * row[a] * y[i];
      for (size_t b = 0; b <= d; ++b)
        xtx.At(a, b) += w[i] * row[a] * row[b];
    }
  }
  for (size_t a = 1; a <= d; ++a) xtx.At(a, a) += kRidge;
  xtx.At(0, 0) += 1e-9;
  Result<Vector> beta = SolveLinearSystem(std::move(xtx), std::move(xty));
  LocalSurrogate out;
  out.coefficients.assign(d, 0.0);
  if (!beta.ok()) return out;  // Degenerate sample: all-zero explanation.
  out.intercept = (*beta)[0];
  for (size_t c = 0; c < d; ++c) out.coefficients[c] = (*beta)[c + 1];

  // Weighted R^2 fidelity.
  double wsum = 0.0, ymean = 0.0;
  for (size_t i = 0; i < n; ++i) {
    wsum += w[i];
    ymean += w[i] * y[i];
  }
  ymean /= std::max(wsum, 1e-12);
  double ss_res = 0.0, ss_tot = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double pred = out.intercept;
    for (size_t c = 0; c < d; ++c)
      pred += out.coefficients[c] * (z.At(i, c) - x[c]);
    ss_res += w[i] * (y[i] - pred) * (y[i] - pred);
    ss_tot += w[i] * (y[i] - ymean) * (y[i] - ymean);
  }
  out.fidelity = ss_tot > 1e-12 ? 1.0 - ss_res / ss_tot : 1.0;
  return out;
}

GlobalSurrogate FitGlobalSurrogate(const Model& model, const Dataset& data,
                                   size_t max_depth) {
  // Relabel the data with the black-box's own predictions and fit a tree.
  std::vector<int> pseudo = model.PredictAll(data);
  Dataset distilled(data.schema(), data.x(), pseudo, data.groups());
  GlobalSurrogate out;
  DecisionTreeOptions opts;
  opts.max_depth = max_depth;
  opts.min_samples_leaf = 5;
  XFAIR_CHECK(out.tree.Fit(distilled, opts).ok());
  const std::vector<int> mimic = out.tree.PredictAll(data);
  size_t agree = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    agree += static_cast<size_t>(mimic[i] == pseudo[i]);
  }
  out.fidelity =
      static_cast<double>(agree) / static_cast<double>(data.size());
  return out;
}

}  // namespace xfair
