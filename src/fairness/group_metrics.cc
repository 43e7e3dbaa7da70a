#include "src/fairness/group_metrics.h"

#include <algorithm>
#include <cmath>

#include "src/obs/obs.h"
#include "src/util/table.h"

namespace xfair {

std::array<GroupCounts, 2> CountGroups(const Model& model,
                                       const Dataset& data) {
  const std::vector<int> decisions = model.PredictAll(data);
  const Vector scores = model.PredictProbaAll(data);
  std::array<GroupCounts, 2> counts;
  for (size_t i = 0; i < data.size(); ++i) {
    counts[static_cast<size_t>(data.group(i))].Add(decisions[i], scores[i],
                                                   data.label(i));
  }
  return counts;
}

GroupFairnessReport DeriveGroupFairness(const GroupCounts& g0,
                                        const GroupCounts& g1) {
  const Confusion& c0 = g0.confusion;
  const Confusion& c1 = g1.confusion;
  GroupFairnessReport r;
  r.non_protected_group = c0;
  r.protected_group = c1;
  const Confusion both{c0.tp + c1.tp, c0.fp + c1.fp, c0.tn + c1.tn,
                       c0.fn + c1.fn};
  r.accuracy = both.accuracy();
  r.single_group = g0.rows == 0 || g1.rows == 0;
  if (r.single_group) return r;

  const double rate0 = static_cast<double>(g0.favorable) /
                       static_cast<double>(g0.rows);
  const double rate1 = static_cast<double>(g1.favorable) /
                       static_cast<double>(g1.rows);
  r.statistical_parity_difference = rate0 - rate1;
  r.disparate_impact_defined = rate0 > 0.0;
  r.disparate_impact_ratio =
      r.disparate_impact_defined ? rate1 / rate0 : 1.0;
  r.equal_opportunity_difference = c0.tpr() - c1.tpr();
  r.equalized_odds_difference = std::max(std::fabs(c0.tpr() - c1.tpr()),
                                         std::fabs(c0.fpr() - c1.fpr()));
  r.predictive_parity_difference = c0.precision() - c1.precision();
  if (g0.calibration.rows > 0 && g1.calibration.rows > 0) {
    r.calibration_gap =
        std::fabs(g1.calibration.Ece() - g0.calibration.Ece());
  }
  return r;
}

GroupFairnessReport EvaluateGroupFairness(const Model& model,
                                          const Dataset& data) {
  XFAIR_SPAN("fairness/group_metrics");
  const std::array<GroupCounts, 2> counts = CountGroups(model, data);
  return DeriveGroupFairness(counts[0], counts[1]);
}

double StatisticalParityDifference(const Model& model, const Dataset& data) {
  const std::array<GroupCounts, 2> counts = CountGroups(model, data);
  return DeriveGroupFairness(counts[0], counts[1])
      .statistical_parity_difference;
}

std::string GroupFairnessReport::ToString() const {
  AsciiTable t({"metric", "value"});
  t.AddRow({"accuracy", FormatDouble(accuracy)});
  t.AddRow({"statistical_parity_diff",
            FormatDouble(statistical_parity_difference)});
  t.AddRow({"disparate_impact_ratio",
            disparate_impact_defined ? FormatDouble(disparate_impact_ratio)
                                     : "undefined"});
  t.AddRow({"equal_opportunity_diff",
            FormatDouble(equal_opportunity_difference)});
  t.AddRow({"equalized_odds_diff", FormatDouble(equalized_odds_difference)});
  t.AddRow({"predictive_parity_diff",
            FormatDouble(predictive_parity_difference)});
  t.AddRow({"calibration_gap", FormatDouble(calibration_gap)});
  return t.ToString();
}

}  // namespace xfair
