#include "src/beyond/cfairer.h"

#include <algorithm>
#include <cmath>

#include "src/fairness/ranking_metrics.h"
#include "src/util/check.h"

namespace xfair {

AttributeRecommender::AttributeRecommender(const Interactions& interactions,
                                           Matrix item_attributes)
    : interactions_(&interactions),
      item_attributes_(std::move(item_attributes)) {
  XFAIR_CHECK(item_attributes_.rows() == interactions.num_items());
  const size_t na = item_attributes_.cols();
  user_preferences_ = Matrix(interactions.num_users(), na);
  for (size_t u = 0; u < interactions.num_users(); ++u) {
    const auto& items = interactions.ItemsOf(u);
    if (items.empty()) continue;
    for (size_t i : items) {
      for (size_t a = 0; a < na; ++a)
        user_preferences_.At(u, a) += item_attributes_.At(i, a);
    }
    for (size_t a = 0; a < na; ++a)
      user_preferences_.At(u, a) /= static_cast<double>(items.size());
  }
}

double AttributeRecommender::Score(size_t user, size_t item,
                                   const std::vector<bool>& masked) const {
  XFAIR_CHECK(masked.size() == num_attributes());
  double z = 0.0;
  for (size_t a = 0; a < num_attributes(); ++a) {
    if (masked[a]) continue;
    z += user_preferences_.At(user, a) * item_attributes_.At(item, a);
  }
  return z;
}

std::vector<size_t> AttributeRecommender::RankItems(
    size_t user, size_t k, const std::vector<bool>& masked) const {
  std::vector<size_t> order;
  for (size_t i = 0; i < interactions_->num_items(); ++i)
    if (!interactions_->Has(user, i)) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double sa = Score(user, a, masked), sb = Score(user, b, masked);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  if (order.size() > k) order.resize(k);
  return order;
}

namespace {

/// Attributes masked at most.
constexpr size_t kMaxAttributes = 4;

double MeanAbsExposureGap(const AttributeRecommender& model,
                          const std::vector<int>& item_groups, size_t k,
                          const std::vector<bool>& masked) {
  double acc = 0.0;
  size_t users = 0;
  for (size_t u = 0; u < model.interactions().num_users(); ++u) {
    const auto ranking = model.RankItems(u, k, masked);
    if (ranking.empty()) continue;
    const Result<double> gap = ExposureGap(ranking, item_groups);
    XFAIR_CHECK(gap.ok());  // RankItems emits only valid item ids.
    acc += *gap;
    ++users;
  }
  return users ? std::fabs(acc / static_cast<double>(users)) : 0.0;
}

}  // namespace

CfairerReport ExplainFairnessByAttributes(
    const AttributeRecommender& model, const std::vector<int>& item_groups,
    const CfairerOptions& options) {
  CfairerReport report;
  std::vector<bool> masked(model.num_attributes(), false);
  report.base_exposure_gap =
      MeanAbsExposureGap(model, item_groups, options.top_k, masked);
  double current = report.base_exposure_gap;
  if (current <= options.target_gap) {
    report.final_exposure_gap = current;
    report.target_reached = true;
    return report;
  }

  // Greedy forward selection with pruning: at each step mask the single
  // attribute that most reduces the gap; drop attributes that do not help
  // from future consideration.
  std::vector<size_t> candidates;
  for (size_t a = 0; a < model.num_attributes(); ++a)
    candidates.push_back(a);
  while (report.attribute_set.size() < kMaxAttributes &&
         current > options.target_gap && !candidates.empty()) {
    size_t best = model.num_attributes();
    double best_gap = current;
    std::vector<size_t> keep;
    for (size_t a : candidates) {
      masked[a] = true;
      const double gap =
          MeanAbsExposureGap(model, item_groups, options.top_k, masked);
      masked[a] = false;
      if (gap < best_gap - 1e-12) {
        if (best != model.num_attributes()) keep.push_back(best);
        best = a;
        best_gap = gap;
      } else if (gap < current - 1e-12) {
        keep.push_back(a);  // Helpful but not best: stays a candidate.
      }
      // Attributes that do not reduce the gap are pruned.
    }
    if (best == model.num_attributes()) break;
    masked[best] = true;
    report.attribute_set.push_back(best);
    current = best_gap;
    candidates = std::move(keep);
  }
  report.final_exposure_gap = current;
  report.target_reached = current <= options.target_gap;
  return report;
}

}  // namespace xfair
