#include "src/fairness/group_metrics.h"

#include <cmath>

#include "src/obs/obs.h"
#include "src/util/table.h"

namespace xfair {

namespace {

/// Confusion restricted to group g; empty groups yield empty counts
/// (EvaluateConfusion would otherwise treat an empty index list as "all
/// rows").
Confusion GroupConfusion(const Model& model, const Dataset& data, int g) {
  const auto indices = data.GroupIndices(g);
  if (indices.empty()) return Confusion{};
  return EvaluateConfusion(model, data, indices);
}

/// Group-restricted ECE; 0 for an empty group.
double GroupEce(const Model& model, const Dataset& data, int g,
                size_t bins) {
  const auto indices = data.GroupIndices(g);
  if (indices.empty()) return 0.0;
  return ExpectedCalibrationError(model, data, bins, indices);
}

/// A dataset where one group is absent has no between-group comparison to
/// make. Every metric returns its "fair" sentinel in that case (0 for
/// differences, 1 for the impact ratio) rather than comparing a real rate
/// against an empty group's vacuous 0 — which used to make the parity
/// difference report the present group's full rate as "unfairness".
bool SingleGroup(const Confusion& g0, const Confusion& g1) {
  return g0.total() == 0 || g1.total() == 0;
}

}  // namespace


double StatisticalParityDifference(const Model& model, const Dataset& data) {
  const Confusion g1 = GroupConfusion(model, data, 1);
  const Confusion g0 = GroupConfusion(model, data, 0);
  if (SingleGroup(g0, g1)) return 0.0;
  return g0.positive_rate() - g1.positive_rate();
}

double DisparateImpactRatio(const Model& model, const Dataset& data) {
  const Confusion g1 = GroupConfusion(model, data, 1);
  const Confusion g0 = GroupConfusion(model, data, 0);
  if (SingleGroup(g0, g1)) return 1.0;
  const double denom = g0.positive_rate();
  if (denom <= 0.0) return 1.0;
  return g1.positive_rate() / denom;
}

double EqualOpportunityDifference(const Model& model, const Dataset& data) {
  const Confusion g1 = GroupConfusion(model, data, 1);
  const Confusion g0 = GroupConfusion(model, data, 0);
  if (SingleGroup(g0, g1)) return 0.0;
  return g0.tpr() - g1.tpr();
}

double EqualizedOddsDifference(const Model& model, const Dataset& data) {
  const Confusion g1 = GroupConfusion(model, data, 1);
  const Confusion g0 = GroupConfusion(model, data, 0);
  if (SingleGroup(g0, g1)) return 0.0;
  return std::max(std::fabs(g0.tpr() - g1.tpr()),
                  std::fabs(g0.fpr() - g1.fpr()));
}

double PredictiveParityDifference(const Model& model, const Dataset& data) {
  const Confusion g1 = GroupConfusion(model, data, 1);
  const Confusion g0 = GroupConfusion(model, data, 0);
  if (SingleGroup(g0, g1)) return 0.0;
  return g0.precision() - g1.precision();
}

double CalibrationGap(const Model& model, const Dataset& data, size_t bins) {
  if (data.GroupIndices(0).empty() || data.GroupIndices(1).empty()) {
    return 0.0;
  }
  const double e1 = GroupEce(model, data, 1, bins);
  const double e0 = GroupEce(model, data, 0, bins);
  return std::fabs(e1 - e0);
}

GroupFairnessReport EvaluateGroupFairness(const Model& model,
                                          const Dataset& data) {
  XFAIR_SPAN("fairness/group_metrics");
  GroupFairnessReport r;
  r.protected_group = GroupConfusion(model, data, 1);
  r.non_protected_group = GroupConfusion(model, data, 0);
  const Confusion& g1 = r.protected_group;
  const Confusion& g0 = r.non_protected_group;
  if (!SingleGroup(g0, g1)) {
    r.statistical_parity_difference =
        g0.positive_rate() - g1.positive_rate();
    r.disparate_impact_ratio = g0.positive_rate() <= 0.0
                                   ? 1.0
                                   : g1.positive_rate() / g0.positive_rate();
    r.equal_opportunity_difference = g0.tpr() - g1.tpr();
    r.equalized_odds_difference = std::max(std::fabs(g0.tpr() - g1.tpr()),
                                           std::fabs(g0.fpr() - g1.fpr()));
    r.predictive_parity_difference = g0.precision() - g1.precision();
    r.calibration_gap = CalibrationGap(model, data);
  }
  const size_t n = g0.total() + g1.total();
  r.accuracy =
      n == 0 ? 0.0
             : static_cast<double>(g0.tp + g0.tn + g1.tp + g1.tn) /
                   static_cast<double>(n);
  return r;
}

std::string GroupFairnessReport::ToString() const {
  AsciiTable t({"metric", "value"});
  t.AddRow({"accuracy", FormatDouble(accuracy)});
  t.AddRow({"statistical_parity_diff",
            FormatDouble(statistical_parity_difference)});
  t.AddRow({"disparate_impact_ratio", FormatDouble(disparate_impact_ratio)});
  t.AddRow({"equal_opportunity_diff",
            FormatDouble(equal_opportunity_difference)});
  t.AddRow({"equalized_odds_diff", FormatDouble(equalized_odds_difference)});
  t.AddRow({"predictive_parity_diff",
            FormatDouble(predictive_parity_difference)});
  t.AddRow({"calibration_gap", FormatDouble(calibration_gap)});
  return t.ToString();
}

}  // namespace xfair
