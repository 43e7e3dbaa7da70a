// Experiment A7 (paper §IV-C, recommendations): the four recommendation
// fairness explainers on the popularity-biased world —
//  - exposure share vs planted popularity suppression (the bias dial);
//  - RecWalk edge-removal attributions [84];
//  - CEF latent-factor explanations [87];
//  - CFairER minimal attribute sets [86];
//  - GNNUERS edge perturbation curve [91];
//  - fairness-aware KG path reranking [44].

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/beyond/cef.h"
#include "src/beyond/dexer.h"
#include "src/data/generators.h"
#include "src/beyond/cfairer.h"
#include "src/beyond/fair_topk.h"
#include "src/beyond/gnnuers.h"
#include "src/beyond/kg_rerank.h"
#include "src/beyond/rec_edge_explain.h"
#include "src/rec/knowledge_graph.h"
#include "src/rec/mf.h"
#include "src/util/table.h"

namespace xfair {
namespace {

RecWorld MakeWorld(double popularity, uint64_t seed = 131) {
  RecGenConfig cfg;
  cfg.protected_item_popularity = popularity;
  cfg.protected_user_activity = 0.5;
  return GenerateRecWorld(cfg, seed);
}

void PrintOnce() {
  static bool printed = false;
  if (printed) return;
  printed = true;

  // Exposure vs popularity suppression.
  {
    AsciiTable t({"protected popularity multiplier",
                  "protected exposure share (top-10)",
                  "protected item share"});
    for (double pop : {1.0, 0.6, 0.3}) {
      RecWorld world = MakeWorld(pop);
      RecWalkScorer scorer(&world.interactions);
      size_t protected_items = 0;
      for (int g : world.item_groups) protected_items += (g == 1);
      t.AddRow({FormatDouble(pop, 1),
                FormatDouble(RecExposureShare(scorer, world.interactions,
                                              world.item_groups, 10)),
                FormatDouble(static_cast<double>(protected_items) /
                             world.item_groups.size())});
    }
    std::printf("\n=== A7a: RecWalk exposure vs planted popularity bias "
                "===\nExpected shape: exposure share tracks the "
                "popularity multiplier down, falling below the item "
                "share.\n%s\n",
                t.ToString().c_str());
  }

  RecWorld world = MakeWorld(0.3);

  // Edge-removal attributions [84].
  {
    RecEdgeExplainOptions opts;
    opts.max_edges = 25;
    auto attributions = ExplainExposureByEdgeRemoval(
        world.interactions, world.item_groups, opts);
    AsciiTable t({"removed edge", "dExposure(protected)"});
    for (const auto& a : attributions) {
      t.AddRow({"(user " + std::to_string(a.user) + ", item " +
                    std::to_string(a.item) + ")",
                FormatDouble(a.effect, 4)});
    }
    std::printf("=== A7b: edge-removal bias explanations [84] ===\n%s\n",
                t.ToString().c_str());
  }

  // CEF factors [87].
  {
    MatrixFactorization mf;
    XFAIR_CHECK(mf.Fit(world.interactions, {}).ok());
    auto report = ExplainRecFairnessByFactors(mf, world.interactions,
                                              world.item_groups);
    AsciiTable t({"latent factor", "best damp scale", "fairness gain",
                  "utility loss", "explainability"});
    for (size_t k = 0; k < std::min<size_t>(4, report.ranked_factors.size());
         ++k) {
      const auto& f = report.ranked_factors[k];
      t.AddRow({std::to_string(f.factor), FormatDouble(f.best_scale, 2),
                FormatDouble(f.fairness_gain, 4),
                FormatDouble(f.utility_loss, 4),
                FormatDouble(f.explainability, 4)});
    }
    std::printf("=== A7c: CEF factor explanations [87] (base |gap| %.4f) "
                "===\nExpected shape: a few factors offer positive "
                "fairness gain at small utility loss.\n%s\n",
                report.base_exposure_gap, t.ToString().c_str());
  }

  // CFairER attribute sets [86].
  {
    Rng rng(132);
    Matrix attrs(world.interactions.num_items(), 4);
    for (size_t i = 0; i < attrs.rows(); ++i) {
      attrs.At(i, 0) = world.item_groups[i] == 1 ? 0.2 : 1.0;
      for (size_t a = 1; a < 4; ++a) attrs.At(i, a) = rng.Uniform(0, 1);
    }
    AttributeRecommender model(world.interactions, std::move(attrs));
    CfairerOptions opts;
    opts.target_gap = 0.01;
    auto report =
        ExplainFairnessByAttributes(model, world.item_groups, opts);
    std::printf("=== A7d: CFairER minimal attribute set [86] ===\n"
                "Removed %zu attribute(s); |exposure gap| %.4f -> %.4f "
                "(target %.2f %s)\n\n",
                report.attribute_set.size(), report.base_exposure_gap,
                report.final_exposure_gap, opts.target_gap,
                report.target_reached ? "reached" : "not reached");
  }

  // GNNUERS perturbation curve [91].
  {
    GnnuersOptions opts;
    opts.max_deletions = 6;
    opts.target_gap = 0.005;
    auto report = ExplainUserUnfairnessByPerturbation(
        world.interactions, world.user_groups, opts);
    AsciiTable t({"deletion #", "edge", "quality gap after"});
    t.AddRow({"0", "(none)", FormatDouble(report.base_gap, 4)});
    for (size_t k = 0; k < report.deletions.size(); ++k) {
      const auto& d = report.deletions[k];
      t.AddRow({std::to_string(k + 1),
                "(u" + std::to_string(d.user) + ", i" +
                    std::to_string(d.item) + ")",
                FormatDouble(d.gap_after, 4)});
    }
    std::printf("=== A7e: GNNUERS edge-perturbation curve [91] ===\n"
                "Expected shape: |gap| decreasing along deletions.\n%s\n",
                t.ToString().c_str());
  }

  // Probability-based fair top-k (FA*IR style, SII [23]).
  {
    Rng rng(134);
    const size_t n = 60;
    std::vector<double> scores(n);
    std::vector<int> flags(n);
    for (size_t i = 0; i < n; ++i) {
      flags[i] = i % 2;
      scores[i] = rng.Uniform(0, 1) - 0.35 * flags[i];  // Biased scorer.
    }
    AsciiTable t({"alpha", "protected in top-20", "swaps", "feasible"});
    for (double alpha : {0.01, 0.1, 0.3}) {
      auto r = BuildFairTopK(scores, flags, 20, 0.5, alpha);
      size_t prot = 0;
      for (size_t i : r.ranking) prot += (flags[i] == 1);
      t.AddRow({FormatDouble(alpha, 2), std::to_string(prot),
                std::to_string(r.swaps), r.feasible ? "yes" : "no"});
    }
    std::printf("=== A7g: probability-based fair top-k (FA*IR style) ===\n"
                "Expected shape: larger alpha demands prefixes closer to "
                "the target proportion, forcing more protected items in "
                "via more swaps.\n%s\n",
                t.ToString().c_str());
  }

  // Dexer [88]: detect + explain group under-representation in a
  // score-based ranking.
  {
    BiasConfig cfg;
    cfg.qualification_gap = 1.5;
    Dataset tuples = CreditGen(cfg).Generate(600, 135);
    TupleScorer scorer = [](const Vector& x) {
      return x[2] + 0.3 * x[3];  // income + savings
    };
    DexerOptions opts;
    opts.top_k = 60;
    auto r = ExplainRankingRepresentation(tuples, scorer, opts);
    AsciiTable t({"quantity", "value"});
    t.AddRow({"protected share overall",
              FormatDouble(r.detection.overall_share)});
    t.AddRow({"protected share in top-60",
              FormatDouble(r.detection.topk_share)});
    t.AddRow({"representation gap",
              FormatDouble(r.detection.representation_gap)});
    t.AddRow({"top attribute (Shapley)",
              r.attribute_names[r.ranked_attributes[0]]});
    t.AddRow({"its contribution",
              FormatDouble(r.attributions[r.ranked_attributes[0]])});
    std::printf("=== A7h: Dexer ranking-representation explanation [88] "
                "===\nExpected shape: the protected group is "
                "under-represented in the top-k and the scoring "
                "attributes carry the blame.\n%s\n",
                t.ToString().c_str());
  }

  // KG path reranking [44] on a KG materialized from the interaction
  // world (interaction triples + item attributes).
  {
    KgWorld kgw = BuildKgFromRecWorld(world, 6, 133);
    auto paths = kgw.kg.FindItemPaths(kgw.user_entities[0], 3);
    auto candidates =
        kgw.kg.ToCandidates(paths, kgw.entity_item_groups);
    AsciiTable t({"min protected exposure", "exposure after",
                  "relevance loss", "path diversity"});
    for (double target : {0.3, 0.6, 0.75}) {
      KgRerankOptions opts;
      opts.min_protected_exposure = target;
      auto r = FairRerank(candidates, opts);
      t.AddRow({FormatDouble(target, 2), FormatDouble(r.exposure_after),
                FormatDouble(r.relevance_loss),
                FormatDouble(r.path_diversity)});
    }
    std::printf("=== A7f: fairness-aware KG path reranking [44] ===\n"
                "Expected shape: tighter constraints cost more relevance; "
                "diversity stays high.\n%s\n",
                t.ToString().c_str());
  }
}

void BM_RecWalkScore(benchmark::State& state) {
  PrintOnce();
  RecWorld world = MakeWorld(0.3);
  RecWalkScorer scorer(&world.interactions);
  size_t user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.ScoreItems(user));
    user = (user + 1) % world.interactions.num_users();
  }
}
BENCHMARK(BM_RecWalkScore)->Unit(benchmark::kMicrosecond);

void BM_MfTraining(benchmark::State& state) {
  PrintOnce();
  RecWorld world = MakeWorld(0.3);
  for (auto _ : state) {
    MatrixFactorization mf;
    benchmark::DoNotOptimize(mf.Fit(world.interactions, {}));
  }
}
BENCHMARK(BM_MfTraining)->Unit(benchmark::kMillisecond);

void BM_GnnuersPerturbation(benchmark::State& state) {
  PrintOnce();
  RecWorld world = MakeWorld(0.3);
  GnnuersOptions opts;
  opts.max_deletions = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExplainUserUnfairnessByPerturbation(
        world.interactions, world.user_groups, opts));
  }
}
BENCHMARK(BM_GnnuersPerturbation)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xfair
