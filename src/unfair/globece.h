// GLOBE-CE [75] (paper §IV-A): a *global* counterfactual explanation — one
// translation direction per group along which its members travel to flip
// their predictions; per-member cost is the minimal scale needed. Equal
// directions with unequal scale distributions expose recourse bias.

#ifndef XFAIR_UNFAIR_GLOBECE_H_
#define XFAIR_UNFAIR_GLOBECE_H_

#include "src/explain/counterfactual.h"

namespace xfair {

/// Fitted global direction for one group.
struct GlobalDirection {
  Vector direction;       ///< Unit direction in range-normalized space.
  Vector min_scales;      ///< Per covered member: minimal flipping scale.
  double coverage = 0.0;  ///< Fraction of the group's negatives flipped.
  double mean_cost = 0.0; ///< Mean of min_scales (range-normalized units).
};

/// GLOBE-CE comparison across groups.
struct GlobeCeReport {
  GlobalDirection protected_group;
  GlobalDirection non_protected_group;
  /// mean_cost(G+) - mean_cost(G-): positive = protected members must
  /// travel farther along their own best direction.
  double cost_gap = 0.0;
  /// coverage(G-) - coverage(G+).
  double coverage_gap = 0.0;
};

/// Options for FitGlobeCe.
struct GlobeCeOptions {
  /// CFs sampled to estimate the direction (per group).
  size_t direction_sample = 30;
  CounterfactualConfig cf_config;
};

/// Fits one global direction per group (from sampled individual CF deltas)
/// and evaluates minimal scales for every negatively-predicted member.
GlobeCeReport FitGlobeCe(const Model& model, const Dataset& data,
                         const GlobeCeOptions& options, Rng* rng);

}  // namespace xfair

#endif  // XFAIR_UNFAIR_GLOBECE_H_
