#include "src/beyond/cef.h"

#include <algorithm>
#include <cmath>

#include "src/fairness/ranking_metrics.h"
#include "src/util/check.h"

namespace xfair {
namespace {

/// Ranking depth of every user's top-k.
constexpr size_t kTopK = 10;
/// Candidate damping scales swept per factor.
constexpr double kScales[] = {0.0, 0.25, 0.5, 0.75};
/// Utility-loss weight in the explainability score.
constexpr double kBeta = 0.5;

std::vector<size_t> RankDamped(const MatrixFactorization& model,
                               const Interactions& interactions,
                               size_t user, size_t factor, double scale) {
  std::vector<size_t> order;
  for (size_t i = 0; i < interactions.num_items(); ++i)
    if (!interactions.Has(user, i)) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double sa = model.ScoreWithDampedFactor(user, a, factor, scale);
    const double sb = model.ScoreWithDampedFactor(user, b, factor, scale);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  if (order.size() > kTopK) order.resize(kTopK);
  return order;
}

/// Mean |exposure gap| and mean utility of damped rankings over users.
void EvaluateDamped(const MatrixFactorization& model,
                    const Interactions& interactions,
                    const std::vector<int>& item_groups, size_t factor,
                    double scale, double* abs_gap, double* utility) {
  double gap_acc = 0.0, util_acc = 0.0;
  size_t users = 0;
  for (size_t u = 0; u < interactions.num_users(); ++u) {
    const auto ranking = RankDamped(model, interactions, u, factor, scale);
    if (ranking.empty()) continue;
    const Result<double> gap = ExposureGap(ranking, item_groups);
    XFAIR_CHECK(gap.ok());  // RankDamped emits only valid item ids.
    gap_acc += *gap;
    // Utility: the *undamped* affinity of what was recommended.
    double s = 0.0;
    for (size_t i : ranking) s += model.Score(u, i);
    util_acc += s / static_cast<double>(ranking.size());
    ++users;
  }
  *abs_gap = users ? std::fabs(gap_acc / static_cast<double>(users)) : 0.0;
  *utility = users ? util_acc / static_cast<double>(users) : 0.0;
}

}  // namespace

CefReport ExplainRecFairnessByFactors(const MatrixFactorization& model,
                                      const Interactions& interactions,
                                      const std::vector<int>& item_groups) {
  XFAIR_CHECK(model.fitted());
  CefReport report;
  // Baseline: scale 1 on any factor is the unperturbed model.
  EvaluateDamped(model, interactions, item_groups, 0, 1.0,
                 &report.base_exposure_gap, &report.base_utility);

  for (size_t f = 0; f < model.rank(); ++f) {
    CefFactorExplanation ex;
    ex.factor = f;
    for (double scale : kScales) {
      double gap = 0.0, utility = 0.0;
      EvaluateDamped(model, interactions, item_groups, f, scale, &gap,
                     &utility);
      const double gain = report.base_exposure_gap - gap;
      const double loss = report.base_utility - utility;
      const double score = gain - kBeta * loss;
      if (score > ex.explainability) {
        ex.explainability = score;
        ex.best_scale = scale;
        ex.fairness_gain = gain;
        ex.utility_loss = loss;
      }
    }
    report.ranked_factors.push_back(ex);
  }
  std::sort(report.ranked_factors.begin(), report.ranked_factors.end(),
            [](const CefFactorExplanation& a, const CefFactorExplanation& b) {
              return a.explainability > b.explainability;
            });
  return report;
}

}  // namespace xfair
