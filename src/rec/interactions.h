// Bipartite user-item interaction substrate for the recommendation
// fairness methods of paper §IV-C, with a popularity-biased synthetic
// generator (popular items of one group dominate the head of the
// distribution — the exposure bias the methods must explain).

#ifndef XFAIR_REC_INTERACTIONS_H_
#define XFAIR_REC_INTERACTIONS_H_

#include <utility>
#include <vector>

#include "src/util/rng.h"

namespace xfair {

/// Implicit-feedback interactions between users and items.
class Interactions {
 public:
  Interactions(size_t num_users, size_t num_items)
      : num_users_(num_users),
        num_items_(num_items),
        by_user_(num_users),
        by_item_(num_items) {}

  size_t num_users() const { return num_users_; }
  size_t num_items() const { return num_items_; }
  size_t num_interactions() const { return pairs_.size(); }

  /// Records a user-item interaction (idempotent).
  void Add(size_t user, size_t item);
  /// Removes an interaction if present.
  void Remove(size_t user, size_t item);
  bool Has(size_t user, size_t item) const;

  const std::vector<size_t>& ItemsOf(size_t user) const;
  const std::vector<size_t>& UsersOf(size_t item) const;
  const std::vector<std::pair<size_t, size_t>>& pairs() const {
    return pairs_;
  }

 private:
  size_t num_users_, num_items_;
  std::vector<std::vector<size_t>> by_user_;
  std::vector<std::vector<size_t>> by_item_;
  std::vector<std::pair<size_t, size_t>> pairs_;
};

/// Knobs for the biased interaction generator.
struct RecGenConfig {
  size_t num_users = 60;
  size_t num_items = 40;
  /// Fraction of items in the protected group (e.g. niche producers).
  double protected_item_fraction = 0.4;
  /// Fraction of users in the protected group (consumer side).
  double protected_user_fraction = 0.5;
  /// Popularity skew: protected items' base attractiveness multiplier in
  /// (0, 1]; 1 = no item-side bias.
  double protected_item_popularity = 0.4;
  /// Activity skew: protected users' interaction-count multiplier.
  double protected_user_activity = 0.6;
};

/// A generated world: interactions plus group labels on both sides.
struct RecWorld {
  Interactions interactions{0, 0};
  std::vector<int> item_groups;
  std::vector<int> user_groups;
};

/// Samples a popularity/activity-biased interaction dataset.
RecWorld GenerateRecWorld(const RecGenConfig& config, uint64_t seed);

}  // namespace xfair

#endif  // XFAIR_REC_INTERACTIONS_H_
