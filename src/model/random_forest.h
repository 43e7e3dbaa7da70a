// Bagged ensemble of CART trees with per-split feature subsampling — the
// canonical opaque model the black-box explainers are pointed at in tests
// and benches.

#ifndef XFAIR_MODEL_RANDOM_FOREST_H_
#define XFAIR_MODEL_RANDOM_FOREST_H_

#include "src/model/decision_tree.h"

namespace xfair {

/// Training options for RandomForest.
struct RandomForestOptions {
  size_t num_trees = 25;
  size_t max_depth = 8;
  size_t min_samples_leaf = 3;
  /// Features considered per split; 0 = sqrt(num_features).
  size_t max_features = 0;
  uint64_t seed = 7;
};

/// Random forest classifier (probability = mean of tree leaf frequencies).
class RandomForest final : public Model {
 public:
  RandomForest() = default;

  Status Fit(const Dataset& data, const RandomForestOptions& options = {});

  double PredictProba(const Vector& x) const override;
  Vector PredictProbaBatch(const Matrix& x) const override;
  std::string name() const override { return "forest"; }

  bool fitted() const { return !trees_.empty(); }
  /// Process-unique id of the last successful Fit (0 = never fitted).
  uint64_t fit_id() const { return fit_id_; }
  const std::vector<DecisionTree>& trees() const { return trees_; }

 private:
  std::vector<DecisionTree> trees_;
  uint64_t fit_id_ = 0;
  /// All trees packed for scoring, rebuilt at the end of Fit.
  PackedForest packed_;
};

}  // namespace xfair

#endif  // XFAIR_MODEL_RANDOM_FOREST_H_
