#include "src/fairness/tradeoff.h"

#include <algorithm>
#include <cmath>

#include "src/explain/surrogate.h"
#include "src/fairness/group_metrics.h"
#include "src/obs/obs.h"

namespace xfair {

TradeoffScore EvaluateTradeoff(const Model& model, const Dataset& data,
                               const TradeoffWeights& weights) {
  XFAIR_CHECK(weights.utility >= 0.0 && weights.fairness >= 0.0 &&
              weights.explainability >= 0.0);
  XFAIR_SPAN("fairness/tradeoff");
  TradeoffScore score;
  const std::array<GroupCounts, 2> counts = CountGroups(model, data);
  const GroupFairnessReport group = DeriveGroupFairness(counts[0], counts[1]);
  score.utility = group.accuracy;
  score.fairness =
      std::max(0.0, 1.0 - std::fabs(group.statistical_parity_difference));
  score.explainability = FitGlobalSurrogate(model, data).fidelity;

  const double total =
      weights.utility + weights.fairness + weights.explainability;
  if (total <= 0.0) return score;  // combined stays 0: nothing weighted.
  // Weighted geometric mean; a zeroed axis with positive weight zeroes
  // the aggregate.
  const double eps = 1e-12;
  const double log_mean =
      (weights.utility * std::log(std::max(score.utility, eps)) +
       weights.fairness * std::log(std::max(score.fairness, eps)) +
       weights.explainability *
           std::log(std::max(score.explainability, eps))) /
      total;
  score.combined = std::exp(log_mean);
  return score;
}

}  // namespace xfair
