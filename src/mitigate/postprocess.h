// Post-processing mitigation: per-group decision thresholds searched to
// close a chosen fairness gap at minimal accuracy cost, wrapping any
// fitted score model. Reads group membership from the sensitive feature
// column at prediction time.

#ifndef XFAIR_MITIGATE_POSTPROCESS_H_
#define XFAIR_MITIGATE_POSTPROCESS_H_

#include "src/model/model.h"
#include "src/util/status.h"

namespace xfair {

/// Which gap the threshold search closes.
enum class ThresholdCriterion {
  kStatisticalParity,
  kEqualOpportunity,
  kEqualizedOdds,
};

/// A base model deciding with group-specific thresholds.
class GroupThresholdModel final : public Model {
 public:
  /// `base` must outlive this wrapper; `sensitive_index` is the feature
  /// column carrying group membership (value >= 0.5 means protected).
  GroupThresholdModel(const Model* base, size_t sensitive_index,
                      double threshold_non_protected,
                      double threshold_protected);

  double PredictProba(const Vector& x) const override;
  int Predict(const Vector& x) const override;
  Vector PredictProbaBatch(const Matrix& x) const override;
  std::vector<int> PredictBatch(const Matrix& x) const override;
  std::string name() const override {
    return base_->name() + "+group-thresholds";
  }

  double threshold_protected() const { return threshold_protected_; }
  double threshold_non_protected() const {
    return threshold_non_protected_;
  }

 private:
  const Model* base_;
  size_t sensitive_index_;
  double threshold_non_protected_;
  double threshold_protected_;
};

/// Options for FitGroupThresholds.
struct ThresholdSearchOptions {
  ThresholdCriterion criterion = ThresholdCriterion::kStatisticalParity;
};

/// Grid-searches per-group thresholds on `data` (validation split),
/// minimizing the criterion gap and, among near-feasible pairs, maximizing
/// accuracy. Requires the dataset's schema to carry its sensitive column.
Result<GroupThresholdModel> FitGroupThresholds(
    const Model& base, const Dataset& data,
    const ThresholdSearchOptions& options);

}  // namespace xfair

#endif  // XFAIR_MITIGATE_POSTPROCESS_H_
