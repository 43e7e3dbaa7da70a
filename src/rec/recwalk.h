// RecWalk-style random-walk recommender [85] (paper §IV-C): user-item
// scores are the stationary mass a restart-at-the-user random walk on the
// bipartite interaction graph places on items. The walk is the substrate
// the edge-removal bias explanations of [84] perturb.

#ifndef XFAIR_REC_RECWALK_H_
#define XFAIR_REC_RECWALK_H_

#include "src/rec/interactions.h"
#include "src/util/matrix.h"

namespace xfair {

/// Personalized random walk with restart over the bipartite graph.
class RecWalkScorer {
 public:
  /// `interactions` must outlive the scorer.
  explicit RecWalkScorer(const Interactions* interactions);

  /// Item scores for one user: the stationary item-visit distribution of
  /// the restart walk. Items the user already consumed keep their score
  /// (callers typically exclude them when ranking).
  Vector ScoreItems(size_t user) const;

  /// Top-k ranking for a user, excluding already-consumed items.
  std::vector<size_t> RankItems(size_t user, size_t k) const;

 private:
  const Interactions* interactions_;
};

/// Exposure share of protected items across all users' top-k lists (mean
/// of per-user ExposureShare weighted by position bias).
double RecExposureShare(const RecWalkScorer& scorer,
                        const Interactions& interactions,
                        const std::vector<int>& item_groups, size_t k);

}  // namespace xfair

#endif  // XFAIR_REC_RECWALK_H_
