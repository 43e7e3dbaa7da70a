// AReS-style two-level recourse sets [74] (paper §IV-A): interpretable,
// interactive summaries of recourse. The outer level descends on subgroup
// descriptors (conditions over immutable features such as the protected
// attribute); the inner level holds if-then recourse rules ("if income is
// low then raise income to B"). Selection is greedy set cover maximizing
// covered flips under a rule budget. Since the original evaluates
// interpretability with a user study, the report carries complexity
// proxies (rule count, width) instead.

#ifndef XFAIR_UNFAIR_ARES_H_
#define XFAIR_UNFAIR_ARES_H_

#include <string>

#include "src/unfair/actions.h"

namespace xfair {

/// One selected two-level rule:
///   IF <subgroup conditions> AND <inner condition> THEN <action>.
struct RecourseRule {
  /// Conditions on immutable descriptor features: (feature, bin).
  std::vector<std::pair<size_t, size_t>> subgroup;
  /// Condition on one actionable feature: (feature, bin).
  std::pair<size_t, size_t> inner_condition;
  CompositeAction action;
  double effectiveness = 0.0;  ///< Flip rate among matching affected.
  double mean_cost = 0.0;
  size_t coverage = 0;  ///< Matching affected instances.
  std::string description;
};

/// Affected instances every AReS rule must match.
inline constexpr size_t kAresMinRuleCoverage = 5;

/// Options for BuildRecourseSet.
struct AresOptions {
  size_t bins = 3;
  size_t max_rules = 6;
};

/// The selected rule set and its summary metrics.
struct AresReport {
  std::vector<RecourseRule> rules;
  /// Fraction of all affected instances covered by >= 1 selected rule
  /// whose action flips them.
  double total_recourse_rate = 0.0;
  double recourse_rate_protected = 0.0;
  double recourse_rate_non_protected = 0.0;
  /// Interpretability proxies (stand-in for the paper's user study).
  double mean_rule_width = 0.0;
  size_t num_rules = 0;
};

AresReport BuildRecourseSet(const Model& model, const Dataset& data,
                            const AresOptions& options);

}  // namespace xfair

#endif  // XFAIR_UNFAIR_ARES_H_
