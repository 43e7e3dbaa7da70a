// Gradient-boosted trees for binary classification (logistic loss,
// shallow regression trees on gradient residuals). The strongest tabular
// black-box in the library — the kind of opaque production model the
// surveyed post-hoc explainers exist for.

#ifndef XFAIR_MODEL_GBM_H_
#define XFAIR_MODEL_GBM_H_

#include "src/model/model.h"
#include "src/model/packed_forest.h"
#include "src/util/status.h"

namespace xfair {

/// Shrinkage of every tree's step: margin(x) = bias + kGbmLearningRate *
/// sum_t tree_t(x).
inline constexpr double kGbmLearningRate = 0.2;

/// Training options for GradientBoostedTrees.
struct GbmOptions {
  size_t num_rounds = 60;
  size_t max_depth = 3;
  size_t min_samples_leaf = 5;
};

/// One node of an internal regression tree (leaves have feature == -1).
struct GbmNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1, right = -1;
  double value = 0.0;  ///< Leaf output (margin-space step).
  double cover = 0.0;  ///< Training rows that reached the node (TreeSHAP).
};

/// Boosted ensemble: margin(x) = bias + kGbmLearningRate * sum_t tree_t(x);
/// P(y=1|x) = sigmoid(margin).
class GradientBoostedTrees final : public Model {
 public:
  GradientBoostedTrees() = default;

  Status Fit(const Dataset& data, const GbmOptions& options = {});

  double PredictProba(const Vector& x) const override;
  Vector PredictProbaBatch(const Matrix& x) const override;
  std::string name() const override { return "gbm"; }

  bool fitted() const { return fitted_; }
  /// Process-unique id of the last successful Fit (0 = never fitted).
  uint64_t fit_id() const { return fit_id_; }
  size_t num_trees() const { return trees_.size(); }
  /// The fitted regression trees (margin-space; for TreeSHAP).
  const std::vector<std::vector<GbmNode>>& trees() const { return trees_; }
  double bias() const { return bias_; }

 private:
  bool fitted_ = false;
  uint64_t fit_id_ = 0;
  double bias_ = 0.0;
  std::vector<std::vector<GbmNode>> trees_;
  /// The regression trees packed for scoring (score = margin), rebuilt
  /// at the end of Fit.
  PackedForest packed_;
};

}  // namespace xfair

#endif  // XFAIR_MODEL_GBM_H_
