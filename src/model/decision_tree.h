// CART decision-tree classifier (binary splits on feature <= threshold,
// Gini impurity). The tree structure is public so rule-based explainers can
// walk it.

#ifndef XFAIR_MODEL_DECISION_TREE_H_
#define XFAIR_MODEL_DECISION_TREE_H_

#include "src/model/model.h"
#include "src/model/packed_forest.h"
#include "src/util/status.h"

namespace xfair {

/// Training options for DecisionTree.
struct DecisionTreeOptions {
  size_t max_depth = 6;
  size_t min_samples_leaf = 5;
  /// If > 0, consider only this many features (chosen at random with
  /// `feature_seed`) at each split — enables random-forest use.
  size_t max_features = 0;
  uint64_t feature_seed = 0;
};

/// One node of a fitted tree. Leaves have feature == -1.
struct TreeNode {
  int feature = -1;        ///< Split feature, or -1 for a leaf.
  double threshold = 0.0;  ///< Goes left iff x[feature] <= threshold.
  int left = -1;           ///< Index of left child in nodes().
  int right = -1;          ///< Index of right child in nodes().
  double proba = 0.0;      ///< Leaf value: weighted P(y=1).
  double weight = 0.0;     ///< Total training weight that reached the node.
};

/// CART classifier.
class DecisionTree final : public Model {
 public:
  DecisionTree() = default;

  /// Fits the tree; optional per-instance weights as in LogisticRegression.
  Status Fit(const Dataset& data, const DecisionTreeOptions& options = {},
             const Vector& instance_weights = {});

  double PredictProba(const Vector& x) const override;
  Vector PredictProbaBatch(const Matrix& x) const override;
  std::string name() const override { return "tree"; }

  bool fitted() const { return !nodes_.empty(); }
  /// Process-unique id of the last successful Fit (0 = never fitted).
  /// Lets explainer caches detect refits; see NextModelFitId.
  uint64_t fit_id() const { return fit_id_; }
  const std::vector<TreeNode>& nodes() const { return nodes_; }
  /// Index of the leaf that `x` routes to.
  int LeafIndex(const Vector& x) const;

 private:
  std::vector<TreeNode> nodes_;
  /// The tree packed for scoring, rebuilt at the end of Fit.
  PackedForest packed_;
  uint64_t fit_id_ = 0;
};

}  // namespace xfair

#endif  // XFAIR_MODEL_DECISION_TREE_H_
