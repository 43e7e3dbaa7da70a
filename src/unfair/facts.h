// FACTS [77] — Fairness-Aware Counterfactuals for Subgroups (paper §IV-A).
//
// Explores the space of (subgroup, action) pairs: subgroups are frequent
// itemsets of discretized feature conditions among the *affected*
// population (predicted unfavorable); actions are candidate feature
// changes. For each subgroup it compares, across the protected split, the
// effectiveness of every action — surfacing subgroups where the same
// recourse works for one group but not the other (violations of *equal
// effectiveness* and *equal choice of recourse*).

#ifndef XFAIR_UNFAIR_FACTS_H_
#define XFAIR_UNFAIR_FACTS_H_

#include <string>

#include "src/unfair/actions.h"

namespace xfair {

/// One subgroup's recourse-bias audit.
struct FactsSubgroup {
  /// Conjunction of (feature, bin) conditions defining the subgroup.
  Conditions conditions;
  std::string description;
  size_t affected_protected = 0;      ///< Affected members in G+.
  size_t affected_non_protected = 0;  ///< Affected members in G-.
  /// Best single-action effectiveness achievable per group.
  double best_effectiveness_protected = 0.0;
  double best_effectiveness_non_protected = 0.0;
  /// The actions achieving the bests above.
  CompositeAction best_action_protected;
  CompositeAction best_action_non_protected;
  /// max over actions a of eff(a, G-) - eff(a, G+): how much better the
  /// *same* recourse serves the non-protected side (equal-effectiveness
  /// violation; the FACTS ranking key).
  double unfairness = 0.0;
  /// Number of actions with effectiveness >= phi per group
  /// (equal-choice-of-recourse counts).
  size_t choices_protected = 0;
  size_t choices_non_protected = 0;
};

/// Options for RunFacts.
struct FactsOptions {
  size_t bins = 3;            ///< Discretization granularity.
  double min_support = 0.1;   ///< Of the affected population.
  size_t max_itemset = 2;     ///< Max conditions per subgroup.
  double phi = 0.3;           ///< Sufficient-effectiveness threshold.
  size_t min_group_members = 5;  ///< Per side, to audit a subgroup.
  size_t top_k = 10;          ///< Subgroups reported.
};

/// Full FACTS output.
struct FactsReport {
  /// Subgroups sorted by descending unfairness, truncated to top_k.
  std::vector<FactsSubgroup> ranked_subgroups;
  size_t subgroups_examined = 0;
  /// Classifier-level summaries on the trivial "everyone" subgroup:
  /// equal effectiveness / equal choice hold iff the gaps are ~0.
  double overall_best_effectiveness_protected = 0.0;
  double overall_best_effectiveness_non_protected = 0.0;
  double overall_effectiveness_gap = 0.0;
  size_t overall_choices_protected = 0;
  size_t overall_choices_non_protected = 0;
  double overall_choice_gap = 0.0;
};

FactsReport RunFacts(const Model& model, const Dataset& data,
                     const FactsOptions& options);

}  // namespace xfair

#endif  // XFAIR_UNFAIR_FACTS_H_
