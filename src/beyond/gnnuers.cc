#include "src/beyond/gnnuers.h"

#include <algorithm>
#include <cmath>

namespace xfair {

double UserGroupQualityGap(const Interactions& interactions,
                           const std::vector<int>& user_groups, size_t k) {
  RecWalkScorer scorer(&interactions);
  double quality[2] = {0.0, 0.0};
  size_t count[2] = {0, 0};
  for (size_t u = 0; u < interactions.num_users(); ++u) {
    const Vector scores = scorer.ScoreItems(u);
    const auto ranking = scorer.RankItems(u, k);
    double mass = 0.0;
    for (size_t i : ranking) mass += scores[i];
    quality[user_groups[u]] += mass;
    ++count[user_groups[u]];
  }
  const double q0 =
      count[0] ? quality[0] / static_cast<double>(count[0]) : 0.0;
  const double q1 =
      count[1] ? quality[1] / static_cast<double>(count[1]) : 0.0;
  return q0 - q1;
}

namespace {

/// Candidate edges per round (highest-degree items of the advantaged
/// group's users first).
constexpr size_t kCandidatesPerRound = 20;

}  // namespace

GnnuersReport ExplainUserUnfairnessByPerturbation(
    const Interactions& interactions, const std::vector<int>& user_groups,
    const GnnuersOptions& options) {
  GnnuersReport report;
  Interactions working = interactions;
  report.base_gap =
      UserGroupQualityGap(working, user_groups, options.top_k);
  double current = report.base_gap;

  for (size_t round = 0; round < options.max_deletions; ++round) {
    if (std::fabs(current) <= options.target_gap) break;
    // Candidates: edges of users in the advantaged group (their deletion
    // redistributes walk mass toward the disadvantaged side), highest
    // item degree first.
    const int advantaged = current > 0.0 ? 0 : 1;
    std::vector<std::pair<size_t, std::pair<size_t, size_t>>> ranked;
    for (const auto& [u, i] : working.pairs()) {
      if (user_groups[u] != advantaged) continue;
      if (working.ItemsOf(u).size() <= 1) continue;  // Keep users alive.
      ranked.push_back({working.UsersOf(i).size(), {u, i}});
    }
    std::sort(ranked.rbegin(), ranked.rend());
    if (ranked.size() > kCandidatesPerRound)
      ranked.resize(kCandidatesPerRound);
    if (ranked.empty()) break;

    size_t best_u = 0, best_i = 0;
    double best_gap = std::fabs(current);
    bool found = false;
    for (const auto& [degree, edge] : ranked) {
      const auto [u, i] = edge;
      working.Remove(u, i);
      const double gap =
          UserGroupQualityGap(working, user_groups, options.top_k);
      working.Add(u, i);
      if (std::fabs(gap) < best_gap - 1e-12) {
        best_gap = std::fabs(gap);
        best_u = u;
        best_i = i;
        found = true;
      }
    }
    if (!found) break;
    working.Remove(best_u, best_i);
    current = UserGroupQualityGap(working, user_groups, options.top_k);
    report.deletions.push_back({best_u, best_i, current});
  }
  report.final_gap = current;
  report.target_reached = std::fabs(current) <= options.target_gap;
  return report;
}

}  // namespace xfair
