// Degenerate-input behavior for the beyond-classification explainers:
// empty interaction worlds, single-group catalogs, saturated rankings.

#include <gtest/gtest.h>

#include <cmath>

#include "src/beyond/cef.h"
#include "src/beyond/cfairer.h"
#include "src/beyond/dexer.h"
#include "src/beyond/gnnuers.h"
#include "src/beyond/kg_rerank.h"
#include "src/beyond/rec_edge_explain.h"
#include "src/data/generators.h"
#include "src/rec/knowledge_graph.h"

namespace xfair {
namespace {

TEST(BeyondDegenerate, SingleGroupCatalogHasNoExposureGap) {
  RecGenConfig cfg;
  cfg.protected_item_fraction = 0.0;  // No protected items at all.
  RecWorld world = GenerateRecWorld(cfg, 901);
  RecWalkScorer scorer(&world.interactions);
  EXPECT_DOUBLE_EQ(RecExposureShare(scorer, world.interactions,
                                    world.item_groups, 10),
                   0.0);
  // Edge-removal explanations still run and report ~zero effects.
  RecEdgeExplainOptions opts;
  opts.max_edges = 5;
  auto attributions = ExplainExposureByEdgeRemoval(
      world.interactions, world.item_groups, opts);
  for (const auto& a : attributions) EXPECT_NEAR(a.effect, 0.0, 1e-12);
}

TEST(BeyondDegenerate, GnnuersWithUniformUsersFindsNothingToFix) {
  RecGenConfig cfg;
  cfg.protected_user_fraction = 0.0;  // Single user group.
  RecWorld world = GenerateRecWorld(cfg, 902);
  GnnuersOptions opts;
  opts.max_deletions = 3;
  auto report = ExplainUserUnfairnessByPerturbation(
      world.interactions, world.user_groups, opts);
  // Gap against an empty group reads as one-sided; the loop must not
  // delete the entire graph chasing it.
  EXPECT_LE(report.deletions.size(), opts.max_deletions);
}

TEST(BeyondDegenerate, CefOnRankOneModelIsBounded) {
  RecWorld world = GenerateRecWorld({}, 903);
  MatrixFactorization mf;
  MfOptions opts;
  opts.rank = 1;
  ASSERT_TRUE(mf.Fit(world.interactions, opts).ok());
  auto report = ExplainRecFairnessByFactors(mf, world.interactions,
                                            world.item_groups);
  ASSERT_EQ(report.ranked_factors.size(), 1u);
  EXPECT_GE(report.ranked_factors[0].explainability, 0.0);
}

TEST(BeyondDegenerate, CfairerWithNoAttributesLeftIsHonest) {
  RecWorld world = GenerateRecWorld({}, 904);
  // One useless attribute: constant across items.
  Matrix attrs(world.interactions.num_items(), 1, 1.0);
  AttributeRecommender model(world.interactions, std::move(attrs));
  CfairerOptions opts;
  opts.target_gap = 0.0;  // Unreachable in general.
  auto report = ExplainFairnessByAttributes(model, world.item_groups, opts);
  // Cannot improve with a constant attribute; must not claim success
  // unless the gap is literally zero already.
  if (!report.target_reached) {
    EXPECT_GE(report.final_exposure_gap, 0.0);
  }
  EXPECT_LE(report.attribute_set.size(), 1u);
}

TEST(BeyondDegenerate, DexerOnUniformScoresReportsNoGap) {
  Dataset data = CreditGen().Generate(200, 905);
  TupleScorer constant = [](const Vector&) { return 1.0; };
  DexerOptions opts;
  opts.top_k = 50;
  auto report = ExplainRankingRepresentation(data, constant, opts);
  // With constant scores the top-k is order-of-index; the gap reflects
  // sampling, not the scorer — attributions should be ~0.
  for (double a : report.attributions) EXPECT_NEAR(a, 0.0, 1e-9);
}

TEST(BeyondDegenerate, FairRerankWithEmptyCandidates) {
  auto result = FairRerank({}, {});
  EXPECT_TRUE(result.ranking.empty());
  EXPECT_FALSE(result.constraint_met);  // Nothing ranked, nothing met.
}

TEST(BeyondDegenerate, KgWithNoAttributesStillYieldsCfPaths) {
  RecGenConfig cfg;
  cfg.num_users = 10;
  cfg.num_items = 8;
  RecWorld world = GenerateRecWorld(cfg, 906);
  KgWorld kgw = BuildKgFromRecWorld(world, 1, 907);
  auto paths = kgw.kg.FindItemPaths(kgw.user_entities[0], 3);
  // Collaborative (user-mediated) and attribute paths both possible; at
  // minimum the call returns without error and paths end at items.
  for (const auto& p : paths) {
    EXPECT_EQ(kgw.kg.type(p.entities.back()), EntityType::kItem);
  }
}

}  // namespace
}  // namespace xfair
