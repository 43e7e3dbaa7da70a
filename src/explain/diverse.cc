#include "src/explain/diverse.h"

#include <limits>

namespace xfair {
namespace {

/// Attempts per slot before giving up on more diversity.
constexpr size_t kAttemptsPerSlot = 8;

}  // namespace

DiverseCounterfactuals GenerateDiverseCounterfactuals(
    const Model& model, const Schema& schema, const Vector& x,
    const DiverseCfOptions& options, Rng* rng) {
  XFAIR_CHECK(rng != nullptr);
  XFAIR_CHECK(options.k >= 1);
  DiverseCounterfactuals out;

  // Indices of features a recourse may move at all.
  std::vector<size_t> movable;
  for (size_t c = 0; c < schema.num_features(); ++c) {
    if (schema.feature(c).actionability != Actionability::kImmutable) {
      movable.push_back(c);
    }
  }

  while (out.results.size() < options.k) {
    bool accepted = false;
    for (size_t attempt = 0; attempt < kAttemptsPerSlot; ++attempt) {
      // Route diversity: after the first counterfactual, randomly freeze
      // roughly half of the movable features so later searches are forced
      // through different recourse routes (the same idea as DiCE's
      // diversity term, realized as constraint resampling).
      Schema search_schema = schema;
      if (!out.results.empty() && movable.size() >= 2) {
        std::vector<FeatureSpec> specs = schema.features();
        size_t frozen = 0;
        for (size_t c : movable) {
          if (frozen + 1 < movable.size() && rng->Bernoulli(0.5)) {
            specs[c].actionability = Actionability::kImmutable;
            ++frozen;
          }
        }
        search_schema = Schema(std::move(specs), schema.sensitive_index());
      }
      CounterfactualConfig config;
      config.initial_radius *= 1.0 + 0.5 * attempt;
      auto r = GrowingSpheresCounterfactual(model, search_schema, x,
                                            config, rng);
      if (!r.valid) continue;
      bool distinct = true;
      for (const auto& prev : out.results) {
        if (NormalizedDistance(schema, r.counterfactual,
                               prev.counterfactual) <
            kDiverseMinSeparation) {
          distinct = false;
          break;
        }
      }
      if (!distinct) continue;
      out.results.push_back(std::move(r));
      accepted = true;
      break;
    }
    if (!accepted) break;  // No more diversity available near x.
  }

  if (out.results.size() >= 2) {
    double min_dist = std::numeric_limits<double>::max();
    for (size_t a = 0; a < out.results.size(); ++a) {
      for (size_t b = a + 1; b < out.results.size(); ++b) {
        min_dist = std::min(
            min_dist,
            NormalizedDistance(schema, out.results[a].counterfactual,
                               out.results[b].counterfactual));
      }
    }
    out.min_pairwise_distance = min_dist;
  }
  double cost = 0.0;
  for (const auto& r : out.results) cost += r.distance;
  out.mean_cost = out.results.empty()
                      ? 0.0
                      : cost / static_cast<double>(out.results.size());
  return out;
}

}  // namespace xfair
