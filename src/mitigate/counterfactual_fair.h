// Counterfactually fair training via causal feature selection (the
// construction behind counterfactual fairness [20]): a predictor that
// uses only *non-descendants* of the sensitive attribute in the causal
// graph is counterfactually fair by design — flipping S in the
// counterfactual world cannot move any of its inputs.

#ifndef XFAIR_MITIGATE_COUNTERFACTUAL_FAIR_H_
#define XFAIR_MITIGATE_COUNTERFACTUAL_FAIR_H_

#include "src/causal/worlds.h"
#include "src/model/logistic_regression.h"

namespace xfair {

/// A model reading only a fixed subset of the feature columns.
class FeatureSubsetModel final : public Model {
 public:
  FeatureSubsetModel(LogisticRegression inner, std::vector<size_t> columns)
      : inner_(std::move(inner)), columns_(std::move(columns)) {}

  double PredictProba(const Vector& x) const override;
  std::string name() const override { return "logreg-subset"; }

  const std::vector<size_t>& columns() const { return columns_; }

 private:
  LogisticRegression inner_;
  std::vector<size_t> columns_;
};

/// Trains a logistic model on exactly the features of `data` whose SCM
/// nodes are neither S nor descendants of S in `world`'s graph (dataset
/// columns must align with SCM node order, as CausalWorld::GenerateDataset
/// produces). Returns kFailedPrecondition if no such feature exists (every
/// input is causally downstream of the sensitive attribute).
Result<FeatureSubsetModel> TrainCounterfactuallyFairModel(
    const CausalWorld& world, const Dataset& data);

}  // namespace xfair

#endif  // XFAIR_MITIGATE_COUNTERFACTUAL_FAIR_H_
