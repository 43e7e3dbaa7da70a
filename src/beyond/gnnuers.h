// GNNUERS [91] (paper §IV-C): explain consumer-side unfairness in a
// graph-based recommender by perturbing the bipartite user-item graph —
// identify the minimal set of interactions whose deletion most closes the
// gap in recommendation quality between user groups. Operationalized on
// the RecWalk substrate with greedy edge deletion.

#ifndef XFAIR_BEYOND_GNNUERS_H_
#define XFAIR_BEYOND_GNNUERS_H_

#include "src/rec/recwalk.h"

namespace xfair {

/// Quality metric: mean top-k hit score per user group. "Hit score" is
/// the walk probability mass the user's top-k captures — a proxy for how
/// well the system serves the user.
double UserGroupQualityGap(const Interactions& interactions,
                           const std::vector<int>& user_groups, size_t k);

/// One deleted edge with the gap achieved after its deletion.
struct GnnuersStep {
  size_t user = 0;
  size_t item = 0;
  double gap_after = 0.0;
};

/// Options for ExplainUserUnfairnessByPerturbation.
struct GnnuersOptions {
  size_t top_k = 10;
  size_t max_deletions = 10;
  /// Stop once the |gap| falls below this.
  double target_gap = 0.02;
};

/// Report: the perturbation (edge deletions in order) and the gap curve.
struct GnnuersReport {
  std::vector<GnnuersStep> deletions;
  double base_gap = 0.0;
  double final_gap = 0.0;
  bool target_reached = false;
};

GnnuersReport ExplainUserUnfairnessByPerturbation(
    const Interactions& interactions, const std::vector<int>& user_groups,
    const GnnuersOptions& options);

}  // namespace xfair

#endif  // XFAIR_BEYOND_GNNUERS_H_
