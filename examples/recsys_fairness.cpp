// Recommendation fairness beyond classification (paper SIV-C): audit a
// popularity-biased recommender's exposure, then explain and repair it
// with the four surveyed mechanisms.
//
//   ./build/examples/example_recsys_fairness

#include <cstdio>

#include "src/beyond/cef.h"
#include "src/beyond/cfairer.h"
#include "src/beyond/gnnuers.h"
#include "src/beyond/kg_rerank.h"
#include "src/beyond/rec_edge_explain.h"
#include "src/rec/knowledge_graph.h"
#include "src/rec/mf.h"

int main() {
  using namespace xfair;

  RecGenConfig cfg;
  cfg.num_users = 80;
  cfg.num_items = 50;
  cfg.protected_item_popularity = 0.3;  // Niche producers suppressed.
  cfg.protected_user_activity = 0.5;    // Low-activity consumer group.
  RecWorld world = GenerateRecWorld(cfg, 37);

  // 1. Detect producer-side exposure bias under the RecWalk recommender.
  RecWalkScorer scorer(&world.interactions);
  size_t protected_items = 0;
  for (int g : world.item_groups) protected_items += (g == 1);
  std::printf("protected items: %zu/%zu of catalog; exposure share in "
              "top-10 lists: %.3f\n",
              protected_items, world.item_groups.size(),
              RecExposureShare(scorer, world.interactions,
                               world.item_groups, 10));

  // 2. Explain via interaction removals [84]: which consumption events
  //    most suppress protected exposure?
  RecEdgeExplainOptions edge_opts;
  edge_opts.max_edges = 25;
  auto removals = ExplainExposureByEdgeRemoval(world.interactions,
                                               world.item_groups, edge_opts);
  if (!removals.empty()) {
    std::printf("\ntop counterfactual edge removal: (user %zu, item %zu) "
                "would change protected exposure by %+0.4f\n",
                removals[0].user, removals[0].item, removals[0].effect);
  }

  // 3. Explain via latent factors (CEF [87]) on a trained MF model.
  MatrixFactorization mf;
  if (!mf.Fit(world.interactions, {}).ok()) return 1;
  auto cef = ExplainRecFairnessByFactors(mf, world.interactions,
                                         world.item_groups);
  if (!cef.ranked_factors.empty()) {
    const auto& f = cef.ranked_factors.front();
    std::printf("\nCEF: damping latent factor %zu to %.2f trades %.4f "
                "fairness gain for %.4f utility loss\n",
                f.factor, f.best_scale, f.fairness_gain, f.utility_loss);
  }

  // 4. Explain via item attributes (CFairER [86]).
  Rng rng(38);
  Matrix attrs(world.interactions.num_items(), 4);
  for (size_t i = 0; i < attrs.rows(); ++i) {
    attrs.At(i, 0) = world.item_groups[i] == 1 ? 0.2 : 1.0;  // Popularity.
    for (size_t a = 1; a < 4; ++a) attrs.At(i, a) = rng.Uniform(0, 1);
  }
  AttributeRecommender attr_model(world.interactions, std::move(attrs));
  CfairerOptions cf_opts;
  cf_opts.target_gap = 0.01;
  auto cfairer =
      ExplainFairnessByAttributes(attr_model, world.item_groups, cf_opts);
  std::printf("\nCFairER: removing %zu attribute(s) moves |exposure gap| "
              "%.4f -> %.4f\n",
              cfairer.attribute_set.size(), cfairer.base_exposure_gap,
              cfairer.final_exposure_gap);

  // 5. Consumer-side unfairness via graph perturbation (GNNUERS [91]).
  GnnuersOptions g_opts;
  g_opts.max_deletions = 6;
  auto gnnuers = ExplainUserUnfairnessByPerturbation(
      world.interactions, world.user_groups, g_opts);
  std::printf("\nGNNUERS: %zu interaction deletions move the user-group "
              "quality gap %.4f -> %.4f\n",
              gnnuers.deletions.size(), gnnuers.base_gap,
              gnnuers.final_gap);

  // 6. Repair presentation with fairness-aware KG path reranking [44]:
  //    recommendations come with real KG-path explanations (interaction
  //    triples + item attributes), then get reranked under the exposure
  //    constraint.
  KgWorld kgw = BuildKgFromRecWorld(world, 6, 39);
  auto paths = kgw.kg.FindItemPaths(kgw.user_entities[0], 3);
  auto candidates = kgw.kg.ToCandidates(paths, kgw.entity_item_groups);
  KgRerankOptions k_opts;
  k_opts.min_protected_exposure = 0.35;
  auto rerank = FairRerank(candidates, k_opts);
  std::printf("\nKG rerank for user 0: exposure %.3f -> %.3f at relevance "
              "cost %.4f (path diversity %.2f)\n",
              rerank.exposure_before, rerank.exposure_after,
              rerank.relevance_loss, rerank.path_diversity);
  return 0;
}
