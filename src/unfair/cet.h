// Counterfactual explanation trees [76] (paper §IV-A): a transparent
// decision tree over the affected population where every leaf carries one
// shared action. Consistency by construction — identical individuals
// routed to the same leaf always receive the same recourse.

#ifndef XFAIR_UNFAIR_CET_H_
#define XFAIR_UNFAIR_CET_H_

#include <string>

#include "src/unfair/actions.h"

namespace xfair {

/// Node of the explanation tree. Leaves (feature == -1) carry the action.
struct CetNode {
  int feature = -1;        ///< Split feature, -1 for leaf.
  double threshold = 0.0;  ///< Left iff x[feature] <= threshold.
  int left = -1, right = -1;
  CompositeAction action;       ///< Leaf action.
  double effectiveness = 0.0;   ///< Flip rate of the action on leaf members.
  double mean_cost = 0.0;       ///< Mean action cost on leaf members.
  size_t num_members = 0;
};

/// Options for BuildCounterfactualTree.
struct CetOptions {
  size_t max_depth = 3;
  size_t bins = 4;  ///< Action-candidate discretization.
};

/// The fitted tree plus per-group summaries.
struct CetReport {
  std::vector<CetNode> nodes;  ///< nodes[0] is the root.
  double effectiveness_protected = 0.0;      ///< Weighted flip rate, G+.
  double effectiveness_non_protected = 0.0;  ///< Weighted flip rate, G-.
  double mean_cost_protected = 0.0;
  double mean_cost_non_protected = 0.0;
  size_t num_leaves = 0;

  /// Routes an instance to its leaf and returns that leaf's action.
  const CompositeAction& ActionFor(const Vector& x) const;
  /// Multi-line rendering of the tree with actions.
  std::string ToString(const Schema& schema) const;
};

/// Builds the tree over all instances the model predicts unfavorable,
/// greedily splitting while leaf actions are insufficiently effective.
CetReport BuildCounterfactualTree(const Model& model, const Dataset& data,
                                  const CetOptions& options);

}  // namespace xfair

#endif  // XFAIR_UNFAIR_CET_H_
