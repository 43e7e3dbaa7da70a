#include "src/fairness/individual_metrics.h"

#include <cmath>

#include "src/model/knn.h"

namespace xfair {

double LipschitzViolationRate(const Model& model, const Dataset& data,
                              double lipschitz, size_t num_pairs, Rng* rng) {
  XFAIR_CHECK(rng != nullptr);
  XFAIR_CHECK(lipschitz >= 0.0);
  if (data.size() < 2 || num_pairs == 0) return 0.0;
  size_t violations = 0;
  for (size_t p = 0; p < num_pairs; ++p) {
    const size_t i = rng->Below(data.size());
    size_t j = rng->Below(data.size() - 1);
    if (j >= i) ++j;  // Distinct pair.
    const Vector xi = data.instance(i), xj = data.instance(j);
    const double dist = Norm2(Sub(xi, xj));
    const double gap =
        std::fabs(model.PredictProba(xi) - model.PredictProba(xj));
    if (gap > lipschitz * dist + 1e-12) ++violations;
  }
  return static_cast<double>(violations) / static_cast<double>(num_pairs);
}

double KnnConsistency(const Model& model, const Dataset& data, size_t k) {
  XFAIR_CHECK(k > 0);
  if (data.size() <= k) return 1.0;
  KnnClassifier knn(k);
  XFAIR_CHECK(knn.Fit(data).ok());
  const std::vector<int> decisions = model.PredictAll(data);
  double total = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    // k+1 neighbors: the nearest is the point itself; skip it.
    auto nn = knn.Neighbors(data.instance(i), std::min(k + 1, data.size()));
    double mean_pred = 0.0;
    size_t used = 0;
    for (size_t j : nn) {
      if (j == i) continue;
      mean_pred += static_cast<double>(decisions[j]);
      ++used;
    }
    if (used == 0) continue;
    mean_pred /= static_cast<double>(used);
    total += std::fabs(static_cast<double>(decisions[i]) - mean_pred);
  }
  return 1.0 - total / static_cast<double>(data.size());
}

double CounterfactualFairnessGap(const Model& model,
                                 const CausalWorld& world, size_t n,
                                 uint64_t seed) {
  XFAIR_CHECK(n > 0);
  Rng rng(seed);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double g = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    const Vector x = world.scm.SampleDo({{world.sensitive, g}}, &rng);
    const Vector cf =
        world.scm.Counterfactual(x, {{world.sensitive, 1.0 - g}});
    total += std::fabs(model.PredictProba(x) - model.PredictProba(cf));
  }
  return total / static_cast<double>(n);
}

}  // namespace xfair
