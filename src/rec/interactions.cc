#include "src/rec/interactions.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/matrix.h"

namespace xfair {

void Interactions::Add(size_t user, size_t item) {
  XFAIR_CHECK(user < num_users_ && item < num_items_);
  if (Has(user, item)) return;
  by_user_[user].push_back(item);
  by_item_[item].push_back(user);
  pairs_.emplace_back(user, item);
}

void Interactions::Remove(size_t user, size_t item) {
  XFAIR_CHECK(user < num_users_ && item < num_items_);
  auto erase_from = [](std::vector<size_t>* list, size_t x) {
    auto it = std::find(list->begin(), list->end(), x);
    if (it != list->end()) list->erase(it);
  };
  erase_from(&by_user_[user], item);
  erase_from(&by_item_[item], user);
  auto it = std::find(pairs_.begin(), pairs_.end(),
                      std::make_pair(user, item));
  if (it != pairs_.end()) pairs_.erase(it);
}

bool Interactions::Has(size_t user, size_t item) const {
  XFAIR_CHECK(user < num_users_ && item < num_items_);
  const auto& items = by_user_[user];
  return std::find(items.begin(), items.end(), item) != items.end();
}

const std::vector<size_t>& Interactions::ItemsOf(size_t user) const {
  XFAIR_CHECK(user < num_users_);
  return by_user_[user];
}

const std::vector<size_t>& Interactions::UsersOf(size_t item) const {
  XFAIR_CHECK(item < num_items_);
  return by_item_[item];
}

namespace {

/// Interactions per user.
constexpr size_t kInteractionsPerUser = 8;

}  // namespace

RecWorld GenerateRecWorld(const RecGenConfig& config, uint64_t seed) {
  XFAIR_CHECK(config.num_users > 0 && config.num_items > 1);
  Rng rng(seed);
  RecWorld world;
  world.interactions = Interactions(config.num_users, config.num_items);
  world.item_groups.resize(config.num_items);
  world.user_groups.resize(config.num_users);

  // Zipf-like base popularity, damped for protected items.
  Vector popularity(config.num_items);
  for (size_t i = 0; i < config.num_items; ++i) {
    world.item_groups[i] =
        rng.Bernoulli(config.protected_item_fraction) ? 1 : 0;
    const double zipf = 1.0 / std::pow(static_cast<double>(i) + 1.0, 0.8);
    popularity[i] =
        zipf * (world.item_groups[i] == 1 ? config.protected_item_popularity
                                          : 1.0);
  }

  for (size_t u = 0; u < config.num_users; ++u) {
    world.user_groups[u] =
        rng.Bernoulli(config.protected_user_fraction) ? 1 : 0;
    size_t budget = kInteractionsPerUser;
    if (world.user_groups[u] == 1) {
      budget = std::max<size_t>(
          1, static_cast<size_t>(config.protected_user_activity *
                                 static_cast<double>(budget)));
    }
    for (size_t k = 0; k < budget; ++k) {
      const size_t item = rng.Categorical(popularity);
      world.interactions.Add(u, item);
    }
  }
  return world;
}

}  // namespace xfair
