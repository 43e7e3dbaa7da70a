#include "src/mitigate/postprocess.h"

#include <cmath>

#include "src/fairness/group_metrics.h"

namespace xfair {

GroupThresholdModel::GroupThresholdModel(const Model* base,
                                         size_t sensitive_index,
                                         double threshold_non_protected,
                                         double threshold_protected)
    : base_(base),
      sensitive_index_(sensitive_index),
      threshold_non_protected_(threshold_non_protected),
      threshold_protected_(threshold_protected) {
  XFAIR_CHECK(base != nullptr);
}

double GroupThresholdModel::PredictProba(const Vector& x) const {
  return base_->PredictProba(x);
}

int GroupThresholdModel::Predict(const Vector& x) const {
  XFAIR_CHECK(sensitive_index_ < x.size());
  const double t = x[sensitive_index_] >= 0.5 ? threshold_protected_
                                              : threshold_non_protected_;
  return base_->PredictProba(x) >= t ? 1 : 0;
}

Vector GroupThresholdModel::PredictProbaBatch(const Matrix& x) const {
  return base_->PredictProbaBatch(x);
}

std::vector<int> GroupThresholdModel::PredictBatch(const Matrix& x) const {
  XFAIR_CHECK(sensitive_index_ < x.cols());
  const Vector scores = base_->PredictProbaBatch(x);
  std::vector<int> out(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    const double t = x.At(i, sensitive_index_) >= 0.5
                         ? threshold_protected_
                         : threshold_non_protected_;
    out[i] = scores[i] >= t ? 1 : 0;
  }
  return out;
}

namespace {

/// Grid resolution per group.
constexpr size_t kGrid = 40;
/// Candidate pairs whose gap exceeds this are rejected outright.
constexpr double kMaxGap = 0.03;

/// Counts of the rows `members` decided at threshold `t`.
GroupCounts CountsAtThreshold(const Vector& scores,
                              const std::vector<int>& labels,
                              const std::vector<size_t>& members, double t) {
  GroupCounts counts;
  for (size_t i : members) {
    counts.Add(scores[i] >= t ? 1 : 0, scores[i], labels[i]);
  }
  return counts;
}

}  // namespace

Result<GroupThresholdModel> FitGroupThresholds(
    const Model& base, const Dataset& data,
    const ThresholdSearchOptions& options) {
  const int sens = data.schema().sensitive_index();
  if (sens < 0) {
    return Status::FailedPrecondition(
        "dataset schema must carry its sensitive column");
  }
  const auto g0 = data.GroupIndices(0);
  const auto g1 = data.GroupIndices(1);
  if (g0.empty() || g1.empty()) {
    return Status::InvalidArgument("both groups must be present");
  }
  const Vector scores = base.PredictProbaAll(data);
  const std::vector<int>& labels = data.labels();
  const auto threshold = [](size_t a) {
    return static_cast<double>(a) / static_cast<double>(kGrid);
  };
  // Each group's counts at each grid threshold, counted once.
  std::vector<GroupCounts> counts0, counts1;
  for (size_t a = 1; a < kGrid; ++a) {
    counts0.push_back(CountsAtThreshold(scores, labels, g0, threshold(a)));
    counts1.push_back(CountsAtThreshold(scores, labels, g1, threshold(a)));
  }

  double best_gap = 1e30, best_accuracy = -1.0;
  double best_t0 = 0.5, best_t1 = 0.5;
  for (size_t a = 1; a < kGrid; ++a) {
    for (size_t b = 1; b < kGrid; ++b) {
      const GroupFairnessReport r =
          DeriveGroupFairness(counts0[a - 1], counts1[b - 1]);
      double gap = 0.0;
      switch (options.criterion) {
        case ThresholdCriterion::kStatisticalParity:
          gap = std::fabs(r.statistical_parity_difference);
          break;
        case ThresholdCriterion::kEqualOpportunity:
          gap = std::fabs(r.equal_opportunity_difference);
          break;
        case ThresholdCriterion::kEqualizedOdds:
          gap = r.equalized_odds_difference;
          break;
      }
      // Prefer feasible pairs; among them maximize accuracy; otherwise
      // minimize the gap.
      const bool feasible = gap <= kMaxGap;
      const bool best_feasible = best_gap <= kMaxGap;
      bool better = false;
      if (feasible && best_feasible) {
        better = r.accuracy > best_accuracy;
      } else if (feasible != best_feasible) {
        better = feasible;
      } else {
        better = gap < best_gap;
      }
      if (better) {
        best_gap = gap;
        best_accuracy = r.accuracy;
        best_t0 = threshold(a);
        best_t1 = threshold(b);
      }
    }
  }
  return GroupThresholdModel(&base, static_cast<size_t>(sens), best_t0,
                             best_t1);
}

}  // namespace xfair
