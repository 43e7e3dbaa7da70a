// Recourse for mitigation design (paper §IV-A, Direction (c)):
//  - Actionable recourse as minimal-cost *interventions* in an SCM [65]:
//    actions are do() operations whose downstream effects propagate, not
//    independent feature edits.
//  - Distance-based recourse [79]: an individual's recourse is its
//    distance to the decision boundary; group recourse is the group mean.
//  - Fair causal recourse [80]: recourse is individually fair if its cost
//    would have been the same had the individual belonged to the other
//    group (evaluated via the SCM counterfactual twin).

#ifndef XFAIR_UNFAIR_RECOURSE_H_
#define XFAIR_UNFAIR_RECOURSE_H_

#include "src/causal/worlds.h"
#include "src/model/logistic_regression.h"

namespace xfair {

/// A minimal-cost intervention set found for one individual.
struct RecourseAction {
  std::vector<Intervention> interventions;
  double cost = 0.0;       ///< Sum of |delta| / noise_std per intervention.
  Vector resulting_state;  ///< SCM counterfactual after the interventions.
  bool found = false;
};

/// Searches single and paired do() interventions on `actionable_nodes`
/// that flip `model`'s prediction on the SCM counterfactual of `x`,
/// returning the cheapest. Each variable moves by a grid of deltas (0.5
/// to 3 noise stds) in both directions.
RecourseAction FindCausalRecourse(const Model& model, const Scm& scm,
                                  const Vector& x,
                                  const std::vector<size_t>& actionable_nodes);

/// Group recourse in the sense of [79]: mean distance to the decision
/// boundary over each group's negatively-predicted members.
struct GroupRecourseReport {
  double recourse_protected = 0.0;
  double recourse_non_protected = 0.0;
  /// protected - non_protected: positive = the protected group sits
  /// farther from favorable outcomes.
  double recourse_gap = 0.0;
  size_t negatives_protected = 0;
  size_t negatives_non_protected = 0;
};
GroupRecourseReport EvaluateGroupRecourse(const LogisticRegression& model,
                                          const Dataset& data);

/// Fair causal recourse audit [80].
struct CausalRecourseFairnessReport {
  double mean_cost_protected = 0.0;
  double mean_cost_non_protected = 0.0;
  /// Group-level gap (protected - non_protected).
  double group_gap = 0.0;
  /// Individual-level unfairness: mean |cost(x) - cost(twin)| over
  /// individuals whose twin also needs recourse.
  double individual_unfairness = 0.0;
  size_t evaluated = 0;
};
CausalRecourseFairnessReport EvaluateCausalRecourseFairness(
    const Model& model, const CausalWorld& world,
    const std::vector<size_t>& actionable_nodes, size_t num_samples,
    uint64_t seed);

}  // namespace xfair

#endif  // XFAIR_UNFAIR_RECOURSE_H_
