// Tests for src/rec (interactions, RecWalk, MF) and the recommendation
// fairness explainers in src/beyond (edge removal, CEF, CFairER, GNNUERS,
// Dexer, KG reranking).

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "src/beyond/cef.h"
#include "src/beyond/cfairer.h"
#include "src/beyond/dexer.h"
#include "src/beyond/gnnuers.h"
#include "src/beyond/kg_rerank.h"
#include "src/beyond/rec_edge_explain.h"
#include "src/data/generators.h"

namespace xfair {
namespace {

RecWorld BiasedWorld(uint64_t seed = 11) {
  RecGenConfig cfg;
  cfg.protected_item_popularity = 0.3;
  cfg.protected_user_activity = 0.5;
  return GenerateRecWorld(cfg, seed);
}

TEST(Interactions, AddRemoveHas) {
  Interactions ia(3, 4);
  ia.Add(0, 1);
  ia.Add(0, 1);  // Idempotent.
  ia.Add(2, 3);
  EXPECT_EQ(ia.num_interactions(), 2u);
  EXPECT_TRUE(ia.Has(0, 1));
  EXPECT_EQ(ia.ItemsOf(0).size(), 1u);
  EXPECT_EQ(ia.UsersOf(3).size(), 1u);
  ia.Remove(0, 1);
  EXPECT_FALSE(ia.Has(0, 1));
  EXPECT_EQ(ia.num_interactions(), 1u);
}

TEST(RecGen, PopularityBiasSuppressesProtectedItems) {
  RecWorld world = BiasedWorld();
  size_t protected_hits = 0, total = 0;
  for (const auto& [u, i] : world.interactions.pairs()) {
    protected_hits += static_cast<size_t>(world.item_groups[i] == 1);
    ++total;
  }
  size_t protected_items = 0;
  for (int g : world.item_groups) protected_items += (g == 1);
  const double item_share = static_cast<double>(protected_items) /
                            static_cast<double>(world.item_groups.size());
  const double hit_share =
      static_cast<double>(protected_hits) / static_cast<double>(total);
  EXPECT_LT(hit_share, item_share)
      << "protected items should receive fewer interactions than their "
         "population share";
}

TEST(RecWalk, ScoresFormDistributionOverStates) {
  RecWorld world = BiasedWorld();
  RecWalkScorer scorer(&world.interactions);
  const Vector scores = scorer.ScoreItems(0);
  ASSERT_EQ(scores.size(), world.interactions.num_items());
  double total = 0.0;
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    total += s;
  }
  EXPECT_LE(total, 1.0 + 1e-9);  // Item mass is part of the full chain.
  EXPECT_GT(total, 0.0);
}

TEST(RecWalk, RankExcludesConsumedItems) {
  RecWorld world = BiasedWorld();
  RecWalkScorer scorer(&world.interactions);
  const auto ranking = scorer.RankItems(0, 10);
  for (size_t i : ranking) EXPECT_FALSE(world.interactions.Has(0, i));
}

TEST(RecWalk, ExposureShareUnderRepresentsProtected) {
  RecWorld world = BiasedWorld();
  RecWalkScorer scorer(&world.interactions);
  const double share =
      RecExposureShare(scorer, world.interactions, world.item_groups, 10);
  size_t protected_items = 0;
  for (int g : world.item_groups) protected_items += (g == 1);
  const double population = static_cast<double>(protected_items) /
                            static_cast<double>(world.item_groups.size());
  EXPECT_LT(share, population + 0.05)
      << "walk-based exposure should mirror the popularity bias";
}

TEST(Mf, LearnsToSeparatePositivesFromNegatives) {
  RecWorld world = BiasedWorld();
  MatrixFactorization mf;
  ASSERT_TRUE(mf.Fit(world.interactions, {}).ok());
  // Mean score of observed pairs should beat mean score of random pairs.
  double pos = 0.0;
  for (const auto& [u, i] : world.interactions.pairs())
    pos += mf.Score(u, i);
  pos /= static_cast<double>(world.interactions.num_interactions());
  Rng rng(1);
  double neg = 0.0;
  size_t count = 0;
  for (size_t k = 0; k < 300; ++k) {
    const size_t u = rng.Below(world.interactions.num_users());
    const size_t i = rng.Below(world.interactions.num_items());
    if (world.interactions.Has(u, i)) continue;
    neg += mf.Score(u, i);
    ++count;
  }
  neg /= static_cast<double>(count);
  EXPECT_GT(pos, neg + 0.1);
}

TEST(Mf, DampedFactorChangesScore) {
  RecWorld world = BiasedWorld();
  MatrixFactorization mf;
  ASSERT_TRUE(mf.Fit(world.interactions, {}).ok());
  const double full = mf.Score(0, 0);
  EXPECT_NEAR(mf.ScoreWithDampedFactor(0, 0, 0, 1.0), full, 1e-12);
  // Damping all factors to zero zeroes the score.
  double zeroed = full;
  for (size_t f = 0; f < mf.rank(); ++f)
    zeroed -= full - mf.ScoreWithDampedFactor(0, 0, f, 0.0) > 0 ? 0 : 0;
  EXPECT_NEAR(mf.ScoreWithDampedFactor(0, 0, 0, 0.0) +
                  mf.user_factors().At(0, 0) * mf.item_factors().At(0, 0),
              full, 1e-12);
}

TEST(RecEdgeExplain, FindsExposureRaisingRemovals) {
  RecWorld world = BiasedWorld();
  RecEdgeExplainOptions opts;
  opts.max_edges = 15;
  auto attributions = ExplainExposureByEdgeRemoval(
      world.interactions, world.item_groups, opts);
  ASSERT_FALSE(attributions.empty());
  // Sorted descending by effect, and the best candidate dominates the
  // worst (whether any single removal raises exposure is data-dependent).
  for (size_t k = 1; k < attributions.size(); ++k)
    EXPECT_GE(attributions[k - 1].effect, attributions[k].effect);
  EXPECT_GE(attributions.front().effect, attributions.back().effect);
}

TEST(RecEdgeExplain, UserItemScoreAttributionsCoverOwnEdges) {
  RecWorld world = BiasedWorld();
  const size_t user = 0;
  ASSERT_FALSE(world.interactions.ItemsOf(user).empty());
  // Pick an item the user has not consumed.
  size_t target = 0;
  while (world.interactions.Has(user, target)) ++target;
  auto attributions =
      ExplainUserItemScore(world.interactions, user, target);
  EXPECT_EQ(attributions.size(),
            world.interactions.ItemsOf(user).size());
  for (const auto& a : attributions) EXPECT_EQ(a.user, user);
}

TEST(Cef, FactorsRankedByExplainability) {
  RecWorld world = BiasedWorld();
  MatrixFactorization mf;
  ASSERT_TRUE(mf.Fit(world.interactions, {}).ok());
  auto report = ExplainRecFairnessByFactors(mf, world.interactions,
                                            world.item_groups);
  ASSERT_EQ(report.ranked_factors.size(), mf.rank());
  for (size_t k = 1; k < report.ranked_factors.size(); ++k) {
    EXPECT_GE(report.ranked_factors[k - 1].explainability,
              report.ranked_factors[k].explainability);
  }
  for (const auto& f : report.ranked_factors) {
    EXPECT_GE(f.explainability, 0.0);  // Scale 1.0 is always available.
  }
}

TEST(Cfairer, FindsAttributeSetReducingGap) {
  RecWorld world = BiasedWorld();
  // Item attributes: attribute 0 encodes popularity (higher for
  // non-protected), others are noise.
  Rng rng(2);
  Matrix attrs(world.interactions.num_items(), 4);
  for (size_t i = 0; i < attrs.rows(); ++i) {
    attrs.At(i, 0) = world.item_groups[i] == 1 ? 0.2 : 1.0;
    for (size_t a = 1; a < 4; ++a) attrs.At(i, a) = rng.Uniform(0, 1);
  }
  AttributeRecommender model(world.interactions, std::move(attrs));
  CfairerOptions opts;
  opts.target_gap = 0.02;
  auto report = ExplainFairnessByAttributes(model, world.item_groups, opts);
  EXPECT_LE(report.final_exposure_gap, report.base_exposure_gap + 1e-12);
  if (!report.attribute_set.empty()) {
    // The popularity attribute should be among the removed ones.
    bool found = false;
    for (size_t a : report.attribute_set) found |= (a == 0);
    EXPECT_TRUE(found);
  }
}

TEST(Gnnuers, PerturbationShrinksQualityGap) {
  RecWorld world = BiasedWorld();
  GnnuersOptions opts;
  opts.max_deletions = 8;
  const double base = UserGroupQualityGap(world.interactions,
                                          world.user_groups, opts.top_k);
  auto report = ExplainUserUnfairnessByPerturbation(
      world.interactions, world.user_groups, opts);
  EXPECT_NEAR(report.base_gap, base, 1e-12);
  EXPECT_LE(std::fabs(report.final_gap), std::fabs(report.base_gap) + 1e-12);
  EXPECT_LE(report.deletions.size(), opts.max_deletions);
}

TEST(Dexer, DetectsAndExplainsUnderRepresentation) {
  // Tuples scored by a linear function dominated by a feature the
  // protected group scores low on (income in the credit generator).
  BiasConfig cfg;
  cfg.qualification_gap = 1.5;
  Dataset d = CreditGen(cfg).Generate(600, 12);
  TupleScorer scorer = [](const Vector& x) {
    return x[2] + 0.3 * x[3];  // income + savings
  };
  DexerOptions opts;
  opts.top_k = 60;
  auto report = ExplainRankingRepresentation(d, scorer, opts);
  EXPECT_GT(report.detection.representation_gap, 0.05)
      << "protected group should be under-represented in the top-k";
  // The Shapley explanation should rank income (2) or savings (3) first.
  const size_t top = report.ranked_attributes.front();
  EXPECT_TRUE(top == 2 || top == 3) << "got " << top;
  // Quantile tables exist for the visualization.
  ASSERT_EQ(report.group_quantiles.size(), d.num_features());
  EXPECT_LE(report.group_quantiles[2][0], report.group_quantiles[2][2]);
}

TEST(KgRerank, ConstraintMetWithMinimalLoss) {
  std::vector<ExplainedCandidate> candidates;
  Rng rng(3);
  for (size_t i = 0; i < 30; ++i) {
    ExplainedCandidate c;
    c.item = i;
    c.item_group = i % 3 == 0 ? 1 : 0;  // One third protected.
    // Protected items have slightly lower relevance (bias).
    c.relevance = rng.Uniform(0, 1) - 0.3 * (c.item_group == 1);
    c.path_type = static_cast<int>(i % 4);
    candidates.push_back(c);
  }
  KgRerankOptions opts;
  opts.min_protected_exposure = 0.35;
  auto result = FairRerank(candidates, opts);
  EXPECT_TRUE(result.constraint_met);
  EXPECT_GE(result.exposure_after, 0.35 - 1e-9);
  EXPECT_GE(result.exposure_after, result.exposure_before);
  EXPECT_GE(result.relevance_loss, 0.0);
  EXPECT_GT(result.path_diversity, 0.0);
  EXPECT_EQ(result.ranking.size(), opts.top_k);
}

TEST(KgRerank, AlreadyFairNeedsNoSwaps) {
  std::vector<ExplainedCandidate> candidates;
  for (size_t i = 0; i < 10; ++i) {
    candidates.push_back({i, 1.0 - 0.01 * static_cast<double>(i),
                          static_cast<int>(i % 2), 0});
  }
  KgRerankOptions opts;
  opts.min_protected_exposure = 0.2;
  opts.top_k = 6;
  auto result = FairRerank(candidates, opts);
  EXPECT_TRUE(result.constraint_met);
  EXPECT_DOUBLE_EQ(result.relevance_loss, 0.0);
}

}  // namespace
}  // namespace xfair
