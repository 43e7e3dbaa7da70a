// Diverse counterfactual explanations (paper §V: "methods with the
// capacity to generate diverse explanations ... empower users with a
// broader range of resources"). Generates k feasible counterfactuals per
// instance that are mutually distant in range-normalized space, so the
// user can pick the action set that suits them.

#ifndef XFAIR_EXPLAIN_DIVERSE_H_
#define XFAIR_EXPLAIN_DIVERSE_H_

#include "src/explain/counterfactual.h"

namespace xfair {

/// A set of mutually diverse counterfactuals for one instance.
struct DiverseCounterfactuals {
  std::vector<CounterfactualResult> results;  ///< Valid CFs found (<= k).
  /// Minimum pairwise normalized distance between the returned CFs; the
  /// diversity the set actually achieves.
  double min_pairwise_distance = 0.0;
  /// Mean distance from the factual input across the set.
  double mean_cost = 0.0;
};

/// Candidates closer than this (normalized) to an accepted CF are rejected,
/// forcing spread.
inline constexpr double kDiverseMinSeparation = 0.15;

/// Options for GenerateDiverseCounterfactuals.
struct DiverseCfOptions {
  size_t k = 3;  ///< Counterfactuals requested.
};

/// Generates up to k diverse feasible counterfactuals via repeated
/// growing-spheres searches (default CounterfactualConfig, initial radius
/// widened per attempt) with rejection of near-duplicates.
DiverseCounterfactuals GenerateDiverseCounterfactuals(
    const Model& model, const Schema& schema, const Vector& x,
    const DiverseCfOptions& options, Rng* rng);

}  // namespace xfair

#endif  // XFAIR_EXPLAIN_DIVERSE_H_
