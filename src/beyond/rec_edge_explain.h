// Counterfactual explanations for recommendation bias via edge removal
// [84] (paper §IV-C): on the RecWalk substrate, evaluate how removing
// individual user-item interactions changes estimated scores and group
// exposure — at the single-user, user-group, single-item, and item-group
// levels.

#ifndef XFAIR_BEYOND_REC_EDGE_EXPLAIN_H_
#define XFAIR_BEYOND_REC_EDGE_EXPLAIN_H_

#include "src/rec/recwalk.h"

namespace xfair {

/// One interaction edge's effect on an exposure target.
struct RecEdgeAttribution {
  size_t user = 0;
  size_t item = 0;
  /// Change in the audited quantity when the edge is removed.
  double effect = 0.0;
};

/// Options for the edge-removal explainer.
struct RecEdgeExplainOptions {
  size_t top_k = 10;       ///< Ranking depth for exposure.
  size_t max_edges = 30;   ///< Edge candidates evaluated (by item degree).
};

/// Explains the protected-item exposure share: which interactions, if
/// removed, would most raise protected items' exposure across all users.
/// Returns attributions sorted by descending effect.
std::vector<RecEdgeAttribution> ExplainExposureByEdgeRemoval(
    const Interactions& interactions, const std::vector<int>& item_groups,
    const RecEdgeExplainOptions& options);

/// Explains one user's estimated rating of one item: effect of removing
/// each of the user's own interactions on score(user, item).
std::vector<RecEdgeAttribution> ExplainUserItemScore(
    const Interactions& interactions, size_t user, size_t item);

}  // namespace xfair

#endif  // XFAIR_BEYOND_REC_EDGE_EXPLAIN_H_
