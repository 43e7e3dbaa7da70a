#include "src/graph/sbm.h"

#include <cmath>

namespace xfair {
namespace {

/// P(node belongs to the protected group).
constexpr double kProtectedFraction = 0.5;
/// Node feature columns.
constexpr size_t kNumFeatures = 4;

}  // namespace

GraphData GenerateSbm(const SbmConfig& config, uint64_t seed) {
  XFAIR_CHECK(config.num_nodes >= 2);
  Rng rng(seed);
  GraphData data;
  const size_t n = config.num_nodes;
  data.graph = Graph(n);
  data.groups.resize(n);
  data.labels.resize(n);
  data.features = Matrix(n, kNumFeatures);

  for (size_t u = 0; u < n; ++u) {
    data.groups[u] = rng.Bernoulli(kProtectedFraction) ? 1 : 0;
  }
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = u + 1; v < n; ++v) {
      const double p = data.groups[u] == data.groups[v] ? config.p_intra
                                                        : config.p_inter;
      if (rng.Bernoulli(p)) data.graph.AddEdge(u, v);
    }
  }
  for (size_t u = 0; u < n; ++u) {
    // Latent quality drives both features and label; the protected group's
    // label propensity is shifted down.
    const double quality = rng.Normal();
    for (size_t c = 0; c < kNumFeatures; ++c) {
      data.features.At(u, c) =
          config.feature_signal * quality / std::sqrt(2.0) + rng.Normal();
    }
    const double z = 1.2 * quality -
                     config.label_shift * static_cast<double>(data.groups[u]);
    data.labels[u] = rng.Bernoulli(1.0 / (1.0 + std::exp(-z))) ? 1 : 0;
  }
  return data;
}

}  // namespace xfair
