// References for the interventional TreeSHAP engines and the tree fast
// paths of the fairness Shapley decomposition [81] (paper §IV-B).
// MaskingGame is the coalition game interventional TreeSHAP solves in
// closed form, for ExactShapley to enumerate; the looped thresholded walk
// is the 0-ulp oracle of InterventionalTreeShapThresholded's batched
// sweep (DESIGN.md §10); BlackBoxModel hides a tree's type so
// ExplainParityWithShapley runs its generic coalition engine on it.
// Linked by the tests and the benches (xfair_oracles), never by the
// library.

#ifndef XFAIR_TESTS_ORACLES_TREE_SHAP_ORACLE_H_
#define XFAIR_TESTS_ORACLES_TREE_SHAP_ORACLE_H_

#include <string>
#include <vector>

#include "src/explain/shap.h"
#include "src/model/decision_tree.h"

namespace xfair::oracles {

/// The masking game ShapExplainInstance evaluates: v(S) is the model's
/// mean probability over `background` rows with the coalition's features
/// overwritten by x. `model` and `background` must outlive the game.
CoalitionValue MaskingGame(const Model& model, const Matrix& background,
                           const Vector& x);

/// InterventionalTreeShapThresholded's game solved by one independent
/// interventional walk per row over the {0,1}-thresholded tree, with the
/// batched sweep's tiling (1024 rows, ascending-row partial sums) and its
/// pairwise cross-tile combine, so the two agree bit for bit.
Vector InterventionalTreeShapThresholdedLooped(
    const DecisionTree& tree, const Matrix& xs,
    const std::vector<size_t>& rows, const Vector& weights, const Vector& z,
    double tau);

/// Forwards the black-box Model interface to `model`, which must outlive
/// the wrapper. Entry points that dispatch on a concrete model type
/// treat it as an opaque model and take their generic engine.
class BlackBoxModel final : public Model {
 public:
  explicit BlackBoxModel(const Model& model) : model_(model) {
    threshold_ = model.threshold();
  }
  double PredictProba(const Vector& x) const override {
    return model_.PredictProba(x);
  }
  int Predict(const Vector& x) const override { return model_.Predict(x); }
  Vector PredictProbaBatch(const Matrix& x) const override {
    return model_.PredictProbaBatch(x);
  }
  std::vector<int> PredictBatch(const Matrix& x) const override {
    return model_.PredictBatch(x);
  }
  std::string name() const override { return "black_box_" + model_.name(); }

 private:
  const Model& model_;
};

}  // namespace xfair::oracles

#endif  // XFAIR_TESTS_ORACLES_TREE_SHAP_ORACLE_H_
