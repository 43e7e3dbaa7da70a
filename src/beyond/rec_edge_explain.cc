#include "src/beyond/rec_edge_explain.h"

#include <algorithm>

namespace xfair {

namespace {

constexpr size_t kReportTop = 5;  ///< Attributions reported.

}  // namespace

std::vector<RecEdgeAttribution> ExplainExposureByEdgeRemoval(
    const Interactions& interactions, const std::vector<int>& item_groups,
    const RecEdgeExplainOptions& options) {
  // Baseline exposure of protected items.
  Interactions working = interactions;
  RecWalkScorer base_scorer(&working);
  const double base =
      RecExposureShare(base_scorer, working, item_groups, options.top_k);

  // Candidate edges: prioritize interactions with high-degree
  // (popularity-hub) items — the ones that crowd out protected exposure.
  std::vector<std::pair<size_t, std::pair<size_t, size_t>>> ranked;
  for (const auto& [u, i] : interactions.pairs()) {
    ranked.push_back({interactions.UsersOf(i).size(), {u, i}});
  }
  std::sort(ranked.rbegin(), ranked.rend());
  if (ranked.size() > options.max_edges) ranked.resize(options.max_edges);

  std::vector<RecEdgeAttribution> attributions;
  for (const auto& [degree, edge] : ranked) {
    const auto [u, i] = edge;
    working.Remove(u, i);
    RecWalkScorer scorer(&working);
    const double exposure =
        RecExposureShare(scorer, working, item_groups, options.top_k);
    attributions.push_back({u, i, exposure - base});
    working.Add(u, i);
  }
  std::sort(attributions.begin(), attributions.end(),
            [](const RecEdgeAttribution& a, const RecEdgeAttribution& b) {
              return a.effect > b.effect;
            });
  if (attributions.size() > kReportTop)
    attributions.resize(kReportTop);
  return attributions;
}

std::vector<RecEdgeAttribution> ExplainUserItemScore(
    const Interactions& interactions, size_t user, size_t item) {
  Interactions working = interactions;
  RecWalkScorer base_scorer(&working);
  const double base = base_scorer.ScoreItems(user)[item];

  std::vector<RecEdgeAttribution> attributions;
  // Copy: removal mutates the adjacency being iterated otherwise.
  const std::vector<size_t> own_items = interactions.ItemsOf(user);
  for (size_t i : own_items) {
    if (i == item) continue;
    working.Remove(user, i);
    RecWalkScorer scorer(&working);
    const double score = scorer.ScoreItems(user)[item];
    attributions.push_back({user, i, score - base});
    working.Add(user, i);
  }
  std::sort(attributions.begin(), attributions.end(),
            [](const RecEdgeAttribution& a, const RecEdgeAttribution& b) {
              return std::abs(a.effect) > std::abs(b.effect);
            });
  return attributions;
}

}  // namespace xfair
