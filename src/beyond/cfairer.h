// CFairER-style attribute-level counterfactual explanations for
// recommendation fairness [86] (paper §IV-C): find a *minimal set* of item
// attributes whose removal brings the exposure disparity under a
// threshold. The original trains an off-policy RL agent over a
// heterogeneous information network; here the same search problem is
// solved by greedy forward selection with candidate pruning (the role of
// the paper's attentive action pruning), which preserves the output
// semantics: a small attribute set + its fairness improvement.

#ifndef XFAIR_BEYOND_CFAIRER_H_
#define XFAIR_BEYOND_CFAIRER_H_

#include "src/rec/interactions.h"
#include "src/util/matrix.h"

namespace xfair {

/// Attribute-based recommender: score(u, i) = sum_a pref(u, a) * attr(i, a).
/// This is the HIN-flattened model CFairER perturbs.
class AttributeRecommender {
 public:
  /// `item_attributes`: one row per item, one column per attribute.
  /// User preferences are estimated from interactions (mean attributes of
  /// consumed items).
  AttributeRecommender(const Interactions& interactions,
                       Matrix item_attributes);

  size_t num_attributes() const { return item_attributes_.cols(); }
  /// Score with a set of attributes masked out (removed).
  double Score(size_t user, size_t item,
               const std::vector<bool>& masked) const;
  /// Top-k ranking with masked attributes, excluding consumed items.
  std::vector<size_t> RankItems(size_t user, size_t k,
                                const std::vector<bool>& masked) const;

  const Interactions& interactions() const { return *interactions_; }

 private:
  const Interactions* interactions_;
  Matrix item_attributes_;
  Matrix user_preferences_;
};

/// Result of the minimal-attribute-set search.
struct CfairerReport {
  /// Attributes whose removal achieves the target (possibly empty when
  /// already fair; maximal candidate set if unreachable).
  std::vector<size_t> attribute_set;
  double base_exposure_gap = 0.0;   ///< |gap| before removal.
  double final_exposure_gap = 0.0;  ///< |gap| after removal.
  bool target_reached = false;
};

/// Options for ExplainFairnessByAttributes.
struct CfairerOptions {
  size_t top_k = 10;
  double target_gap = 0.05;  ///< Stop once |exposure gap| <= this.
};

/// Greedy minimal attribute set bringing protected-item exposure
/// disparity under the target.
CfairerReport ExplainFairnessByAttributes(
    const AttributeRecommender& model, const std::vector<int>& item_groups,
    const CfairerOptions& options);

}  // namespace xfair

#endif  // XFAIR_BEYOND_CFAIRER_H_
