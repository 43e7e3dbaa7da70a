#include "src/rec/recwalk.h"

#include <algorithm>

#include "src/fairness/ranking_metrics.h"
#include "src/util/check.h"

namespace xfair {
namespace {

/// Probability of jumping back to the user at each step.
constexpr double kRestartProbability = 0.15;
/// Power-iteration steps of the walk.
constexpr size_t kPowerIterations = 30;

}  // namespace

RecWalkScorer::RecWalkScorer(const Interactions* interactions)
    : interactions_(interactions) {
  XFAIR_CHECK(interactions != nullptr);
}

Vector RecWalkScorer::ScoreItems(size_t user) const {
  const Interactions& ia = *interactions_;
  XFAIR_CHECK(user < ia.num_users());
  const size_t nu = ia.num_users(), ni = ia.num_items();
  // State vector: users [0, nu), items [nu, nu + ni).
  Vector prob(nu + ni, 0.0), next(nu + ni);
  prob[user] = 1.0;
  const double alpha = kRestartProbability;
  for (size_t iter = 0; iter < kPowerIterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    next[user] += alpha;  // Restart mass.
    for (size_t u = 0; u < nu; ++u) {
      const double mass = prob[u];
      if (mass <= 0.0) continue;
      const auto& items = ia.ItemsOf(u);
      if (items.empty()) {
        next[user] += (1.0 - alpha) * mass;  // Dangling: back to restart.
        continue;
      }
      const double share =
          (1.0 - alpha) * mass / static_cast<double>(items.size());
      for (size_t i : items) next[nu + i] += share;
    }
    for (size_t i = 0; i < ni; ++i) {
      const double mass = prob[nu + i];
      if (mass <= 0.0) continue;
      const auto& users = ia.UsersOf(i);
      if (users.empty()) {
        next[user] += (1.0 - alpha) * mass;
        continue;
      }
      const double share =
          (1.0 - alpha) * mass / static_cast<double>(users.size());
      for (size_t u : users) next[u] += share;
    }
    prob.swap(next);
  }
  return Vector(prob.begin() + static_cast<long>(nu), prob.end());
}

std::vector<size_t> RecWalkScorer::RankItems(size_t user, size_t k) const {
  const Vector scores = ScoreItems(user);
  std::vector<size_t> order;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!interactions_->Has(user, i)) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;  // Deterministic tie-break.
  });
  if (order.size() > k) order.resize(k);
  return order;
}

double RecExposureShare(const RecWalkScorer& scorer,
                        const Interactions& interactions,
                        const std::vector<int>& item_groups, size_t k) {
  double total = 0.0;
  size_t users = 0;
  for (size_t u = 0; u < interactions.num_users(); ++u) {
    const auto ranking = scorer.RankItems(u, k);
    if (ranking.empty()) continue;
    const Result<double> share = ExposureShare(ranking, item_groups);
    XFAIR_CHECK(share.ok());  // RankItems emits only valid item ids.
    total += *share;
    ++users;
  }
  return users == 0 ? 0.0 : total / static_cast<double>(users);
}

}  // namespace xfair
