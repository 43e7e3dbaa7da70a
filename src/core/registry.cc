#include "src/core/registry.h"

#include "src/beyond/cef.h"
#include "src/beyond/cfairer.h"
#include "src/beyond/dexer.h"
#include "src/beyond/gnnuers.h"
#include "src/beyond/kg_rerank.h"
#include "src/beyond/node_influence.h"
#include "src/beyond/rec_edge_explain.h"
#include "src/beyond/structural_bias.h"
#include "src/rec/mf.h"
#include "src/rec/recwalk.h"
#include "src/unfair/ares.h"
#include "src/unfair/burden.h"
#include "src/unfair/causal_path.h"
#include "src/unfair/cet.h"
#include "src/unfair/contrastive.h"
#include "src/unfair/facts.h"
#include "src/unfair/fairness_shap.h"
#include "src/unfair/globece.h"
#include "src/explain/tree_shap.h"
#include "src/unfair/gopher.h"
#include "src/unfair/precof.h"
#include "src/unfair/recourse.h"
#include "src/unfair/slice_search.h"
#include "src/util/table.h"

namespace xfair {

RunContext RunContext::Make(uint64_t seed) {
  RunContext ctx;
  ctx.seed = seed;
  BiasConfig bias;
  bias.score_shift = 1.0;
  bias.label_bias = 0.1;
  ctx.credit = CreditGen(bias).Generate(900, seed);
  XFAIR_CHECK(ctx.credit_model.Fit(ctx.credit).ok());


  ctx.world_data = ctx.world.GenerateDataset(900, seed + 1);
  XFAIR_CHECK(ctx.world_model.Fit(ctx.world_data).ok());

  RecGenConfig rec_cfg;
  rec_cfg.protected_item_popularity = 0.35;
  rec_cfg.protected_user_activity = 0.5;
  ctx.rec = GenerateRecWorld(rec_cfg, seed + 2);

  SbmConfig sbm;
  sbm.num_nodes = 250;
  sbm.label_shift = 1.0;
  ctx.graph = GenerateSbm(sbm, seed + 3);
  XFAIR_CHECK(ctx.sgc.Fit(ctx.graph).ok());
  return ctx;
}

namespace {

std::string F(double v) { return FormatDouble(v, 3); }

std::vector<ApproachDescriptor> BuildRegistry() {
  std::vector<ApproachDescriptor> reg;

  // [10] Probabilistic contrastive counterfactuals (Galhotra et al.).
  reg.push_back(
      {"[10]", "probabilistic contrastive CFs", true,
       ExplanationStage::kPostHoc, ModelAccess::kBlackBox,
       Agnosticism::kAgnostic, Coverage::kBoth, "Contrastive",
       "Probabilistic contrastive CFEs / actionable recourses",
       FairnessLevel::kBoth, "Fairness of recourse",
       FairnessTask::kClassification, Goals{false, true, false},
       [](const RunContext& ctx) {
         auto income = ctx.world.scm.dag().IndexOf("income");
         auto r = ContrastInterventions(
             ctx.world_model, ctx.world.scm, ctx.world.sensitive,
             {{*income, 5.5}}, {{*income, 3.0}}, 800, ctx.seed);
         return "suff G+=" + F(r.sufficiency_protected) +
                " G-=" + F(r.sufficiency_non_protected) +
                " gap=" + F(r.sufficiency_gap);
       }});

  // [63] Gopher influence-based debugging (Salimi et al.).
  reg.push_back(
      {"[63]", "Gopher (influence patterns)", true,
       ExplanationStage::kPostHoc, ModelAccess::kGradient,
       Agnosticism::kSpecific, Coverage::kGlobal, "Influence-based",
       "Predicate-based causal", FairnessLevel::kGroup,
       "Base-Rates/Accuracy-Based", FairnessTask::kClassification,
       Goals{false, true, true}, [](const RunContext& ctx) {
         GopherOptions opts;
         opts.top_k = 1;
         auto r =
             ExplainUnfairnessByPatterns(ctx.credit_model, ctx.credit, opts);
         if (!r.ok() || r->patterns.empty()) return std::string("n/a");
         return "top pattern '" + r->patterns[0].description +
                "' est dGap=" + F(r->patterns[0].estimated_gap_change);
       }});

  // [71] PreCoF (Goethals et al.).
  reg.push_back(
      {"[71]", "PreCoF", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kLocal,
       "CFE", "Most significant feature change", FairnessLevel::kGroup,
       "Implicit/Explicit bias", FairnessTask::kClassification,
       Goals{false, true, false}, [](const RunContext& ctx) {
         Rng rng(ctx.seed);
         auto r = PrecofImplicitBias(ctx.credit, &rng);
         if (r.ranked_features.empty()) return std::string("n/a");
         const size_t top = r.ranked_features[0];
         return "top proxy '" + r.feature_names[top] +
                "' freq gap=" + F(r.frequency_gap[top]);
       }});

  // [72] CERTIFAI burden (Sharma et al.).
  reg.push_back(
      {"[72]", "CERTIFAI burden", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kLocal,
       "CFE", "CFEs", FairnessLevel::kBoth, "Burden",
       FairnessTask::kClassification, Goals{true, true, false},
       [](const RunContext& ctx) {
         Rng rng(ctx.seed);
         auto r = ComputeBurden(ctx.credit_model, ctx.credit,
                                BurdenScope::kAllNegatives, {}, &rng);
         return "burden G+=" + F(r.burden_protected) +
                " G-=" + F(r.burden_non_protected) +
                " gap=" + F(r.burden_gap);
       }});

  // [73] NAWB (Kuratomi et al.).
  reg.push_back(
      {"[73]", "NAWB", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kGlobal,
       "CFE", "Burden", FairnessLevel::kBoth, "Burden",
       FairnessTask::kClassification, Goals{true, true, false},
       [](const RunContext& ctx) {
         Rng rng(ctx.seed);
         auto r = ComputeNawb(ctx.credit_model, ctx.credit, {}, &rng);
         return "NAWB G+=" + F(r.nawb_protected) +
                " G-=" + F(r.nawb_non_protected) +
                " gap=" + F(r.nawb_gap);
       }});

  // [74] AReS two-level recourse sets (Rawal & Lakkaraju).
  reg.push_back(
      {"[74]", "AReS recourse sets", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kBoth,
       "Recourse", "Two level Recourse Sets", FairnessLevel::kBoth,
       "User study (complexity proxies)", FairnessTask::kClassification,
       Goals{false, true, false}, [](const RunContext& ctx) {
         auto r = BuildRecourseSet(ctx.credit_model, ctx.credit, {});
         return std::to_string(r.num_rules) + " rules, recourse rate G+=" +
                F(r.recourse_rate_protected) +
                " G-=" + F(r.recourse_rate_non_protected);
       }});

  // [75] GLOBE-CE (Ley et al.).
  reg.push_back(
      {"[75]", "GLOBE-CE", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kGlobal,
       "CFE", "CFEs (global translation)", FairnessLevel::kGroup,
       "Fairness of recourse", FairnessTask::kClassification,
       Goals{false, true, false}, [](const RunContext& ctx) {
         Rng rng(ctx.seed);
         auto r = FitGlobeCe(ctx.credit_model, ctx.credit, {}, &rng);
         return "cost G+=" + F(r.protected_group.mean_cost) +
                " G-=" + F(r.non_protected_group.mean_cost) +
                " gap=" + F(r.cost_gap);
       }});

  // [77] FACTS (Kavouras et al.).
  reg.push_back(
      {"[77]", "FACTS subgroups", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kGlobal,
       "CFE", "CFEs (subgroup audits)", FairnessLevel::kGroup,
       "Fairness of recourse", FairnessTask::kClassification,
       Goals{true, true, false}, [](const RunContext& ctx) {
         auto r = RunFacts(ctx.credit_model, ctx.credit, {});
         if (r.ranked_subgroups.empty()) return std::string("n/a");
         return std::to_string(r.subgroups_examined) +
                " subgroups, worst '" +
                r.ranked_subgroups[0].description +
                "' eff gap=" + F(r.ranked_subgroups[0].unfairness);
       }});

  // [82] Causal path decomposition (Pan et al.).
  reg.push_back(
      {"[82]", "causal path decomposition", true,
       ExplanationStage::kPostHoc, ModelAccess::kBlackBox,
       Agnosticism::kAgnostic, Coverage::kGlobal, "Recourse",
       "Causal path", FairnessLevel::kGroup, "Base-Rates",
       FairnessTask::kClassification, Goals{false, true, true},
       [](const RunContext& ctx) {
         auto r = DecomposeDisparityByPaths(ctx.world_model, ctx.world,
                                            2000, ctx.seed);
         if (r.paths.empty()) return std::string("n/a");
         return "top path '" + r.paths[0].description +
                "' contrib=" + F(r.paths[0].score_contribution) +
                " of total=" + F(r.total_disparity);
       }});

  // [79] Equalizing recourse (Gupta et al.).
  reg.push_back(
      {"[79]", "recourse equalization", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kGlobal,
       "Recourse", "Recourses", FairnessLevel::kGroup,
       "Fairness of recourse", FairnessTask::kClassification,
       Goals{true, false, true}, [](const RunContext& ctx) {
         auto r = EvaluateGroupRecourse(ctx.credit_model, ctx.credit);
         return "recourse G+=" + F(r.recourse_protected) +
                " G-=" + F(r.recourse_non_protected) +
                " gap=" + F(r.recourse_gap);
       }});

  // [80] Fair causal recourse (von Kuegelgen et al.).
  reg.push_back(
      {"[80]", "fair causal recourse", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kBoth,
       "Recourse", "Recourses", FairnessLevel::kBoth,
       "Fairness of recourse", FairnessTask::kClassification,
       Goals{true, false, true}, [](const RunContext& ctx) {
         auto income = ctx.world.scm.dag().IndexOf("income");
         auto r = EvaluateCausalRecourseFairness(
             ctx.world_model, ctx.world, {*income}, 300, ctx.seed);
         return "cost gap=" + F(r.group_gap) +
                " indiv unfairness=" + F(r.individual_unfairness);
       }});

  // [89] Structural bias explanation in GNNs (Dong et al.).
  reg.push_back(
      {"[89]", "GNN structural bias edges", true,
       ExplanationStage::kPostHoc, ModelAccess::kBlackBox,
       Agnosticism::kAgnostic, Coverage::kLocal, "CFE", "Edge-Set",
       FairnessLevel::kBoth, "Dist/Base-Rates/Accuracy-Based",
       FairnessTask::kGraph, Goals{true, true, true},
       [](const RunContext& ctx) {
         size_t node = 0;
         for (size_t u = 0; u < ctx.graph.graph.num_nodes(); ++u) {
           if (ctx.graph.graph.Degree(u) >= 3) {
             node = u;
             break;
           }
         }
         auto r = ExplainNodeBias(ctx.sgc, ctx.graph, node, {});
         return "node " + std::to_string(node) + ": " +
                std::to_string(r.bias_edge_set.size()) + " bias edges, " +
                std::to_string(r.fairness_edge_set.size()) +
                " fairness edges";
       }});

  // [81] Fairness Shapley (Begley et al.).
  reg.push_back(
      {"[81]", "fairness Shapley", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kBoth,
       "Shapley", "Shapley based visualization", FairnessLevel::kGroup,
       "Base-Rates", FairnessTask::kClassification,
       Goals{false, true, true}, [](const RunContext& ctx) {
         // Whole-dataset audit through the slice entry point (identical to
         // ExplainParityWithShapley on the full data, one batched sweep).
         std::vector<size_t> all(ctx.credit.size());
         for (size_t i = 0; i < all.size(); ++i) all[i] = i;
         auto r = FairnessShapBatch(ctx.credit_model, ctx.credit, all, {});
         if (r.ranked_features.empty()) return std::string("n/a");
         const size_t top = r.ranked_features[0];
         return "top contributor '" + r.feature_names[top] + "' phi=" +
                F(r.contributions[top]) + " of gap=" + F(r.full_gap);
       }});

  // [84] RecWalk edge-removal explanations (Zafeiriou).
  reg.push_back(
      {"[84]", "RecWalk edge CFs", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kBoth,
       "CFE", "CFEs (edge removals)", FairnessLevel::kBoth, "Base-Rates",
       FairnessTask::kRecommendation, Goals{false, true, false},
       [](const RunContext& ctx) {
         RecEdgeExplainOptions opts;
         opts.max_edges = 15;
         auto r = ExplainExposureByEdgeRemoval(
             ctx.rec.interactions, ctx.rec.item_groups, opts);
         if (r.empty()) return std::string("n/a");
         return "best removal (u" + std::to_string(r[0].user) + ",i" +
                std::to_string(r[0].item) +
                ") dExposure=" + F(r[0].effect);
       }});

  // [86] CFairER (Wang et al.).
  reg.push_back(
      {"[86]", "CFairER attribute CFs", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kGlobal,
       "CFE", "CFEs (attribute sets)", FairnessLevel::kGroup, "Exposure",
       FairnessTask::kRecommendation, Goals{false, true, true},
       [](const RunContext& ctx) {
         Rng rng(ctx.seed);
         Matrix attrs(ctx.rec.interactions.num_items(), 4);
         for (size_t i = 0; i < attrs.rows(); ++i) {
           attrs.At(i, 0) = ctx.rec.item_groups[i] == 1 ? 0.2 : 1.0;
           for (size_t a = 1; a < 4; ++a)
             attrs.At(i, a) = rng.Uniform(0, 1);
         }
         AttributeRecommender model(ctx.rec.interactions,
                                    std::move(attrs));
         auto r = ExplainFairnessByAttributes(model, ctx.rec.item_groups,
                                              {});
         return std::to_string(r.attribute_set.size()) +
                " attrs removed, gap " + F(r.base_exposure_gap) + " -> " +
                F(r.final_exposure_gap);
       }});

  // [87] CEF (Ge et al.).
  reg.push_back(
      {"[87]", "CEF factor explanations", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kGlobal,
       "CFE", "CFEs (feature perturbations)", FairnessLevel::kGroup,
       "Exposure", FairnessTask::kRecommendation, Goals{false, true, true},
       [](const RunContext& ctx) {
         MatrixFactorization mf;
         if (!mf.Fit(ctx.rec.interactions, {}).ok()) return std::string("n/a");
         auto r = ExplainRecFairnessByFactors(mf, ctx.rec.interactions,
                                              ctx.rec.item_groups);
         if (r.ranked_factors.empty()) return std::string("n/a");
         const auto& top = r.ranked_factors[0];
         return "factor " + std::to_string(top.factor) +
                " score=" + F(top.explainability) +
                " (gain " + F(top.fairness_gain) + ", loss " +
                F(top.utility_loss) + ")";
       }});

  // [88] Dexer (Moskovitch et al.).
  reg.push_back(
      {"[88]", "Dexer ranking Shapley", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kGlobal,
       "Shapley", "Attribute Shapley value distribution visualization",
       FairnessLevel::kGroup, "Exposure", FairnessTask::kRanking,
       Goals{false, true, false}, [](const RunContext& ctx) {
         TupleScorer scorer = [](const Vector& x) {
           return x[2] + 0.3 * x[3];
         };
         DexerOptions opts;
         opts.top_k = 60;
         auto r = ExplainRankingRepresentation(ctx.credit, scorer, opts);
         const size_t top = r.ranked_attributes[0];
         return "repr gap=" + F(r.detection.representation_gap) +
                ", top attr '" + r.attribute_names[top] + "'";
       }});

  // [90] Node-attribution of GNN bias (Dong et al.).
  reg.push_back(
      {"[90]", "GNN node influence", true, ExplanationStage::kPostHoc,
       ModelAccess::kGradient, Agnosticism::kSpecific, Coverage::kGlobal,
       "Influence-based", "Node influence", FairnessLevel::kGroup,
       "Base-Rates/Accuracy-Based", FairnessTask::kGraph,
       Goals{true, true, true}, [](const RunContext& ctx) {
         auto r = ExplainBiasByNodeInfluence(ctx.sgc);
         if (!r.ok()) return std::string("n/a");
         return "top-decile influence share=" + F(r->top_decile_share);
       }});

  // [83] Gopher demo (Zhu et al.): top-k data subsets, verified.
  reg.push_back(
      {"[83]", "Gopher (verified subsets)", true,
       ExplanationStage::kPostHoc, ModelAccess::kBlackBox,
       Agnosticism::kAgnostic, Coverage::kGlobal, "Contrastive",
       "Top-k data subsets", FairnessLevel::kGroup,
       "Base-Rates/Accuracy-Based", FairnessTask::kClassification,
       Goals{false, true, true}, [](const RunContext& ctx) {
         GopherOptions opts;
         opts.top_k = 3;
         auto r =
             ExplainUnfairnessByPatterns(ctx.credit_model, ctx.credit, opts);
         if (!r.ok() || r->patterns.empty()) return std::string("n/a");
         size_t verified = 0;
         for (const auto& p : r->patterns) verified += p.verified;
         return std::to_string(verified) + "/" +
                std::to_string(r->patterns.size()) +
                " verified, best dGap=" +
                F(r->patterns[0].verified_gap_change);
       }});

  // [91] GNNUERS (Medda et al.).
  reg.push_back(
      {"[91]", "GNNUERS edge perturbation", true,
       ExplanationStage::kPostHoc, ModelAccess::kBlackBox,
       Agnosticism::kAgnostic, Coverage::kGlobal, "CFE", "CFE",
       FairnessLevel::kGroup, "Exposure", FairnessTask::kRecommendation,
       Goals{false, true, true}, [](const RunContext& ctx) {
         GnnuersOptions opts;
         opts.max_deletions = 5;
         auto r = ExplainUserUnfairnessByPerturbation(
             ctx.rec.interactions, ctx.rec.user_groups, opts);
         return std::to_string(r.deletions.size()) +
                " deletions, quality gap " + F(r.base_gap) + " -> " +
                F(r.final_gap);
       }});

  // [44] Fairness-aware KG path reranking (Fu et al.).
  reg.push_back(
      {"[44]", "KG path reranking", true, ExplanationStage::kPostHoc,
       ModelAccess::kBlackBox, Agnosticism::kAgnostic, Coverage::kBoth,
       "Example-based", "Top-k KG-path", FairnessLevel::kBoth,
       "Constraints", FairnessTask::kRecommendation,
       Goals{true, true, true}, [](const RunContext& ctx) {
         Rng rng(ctx.seed);
         std::vector<ExplainedCandidate> candidates;
         for (size_t i = 0; i < 30; ++i) {
           ExplainedCandidate c;
           c.item = i;
           c.item_group = ctx.rec.item_groups[i % ctx.rec.item_groups.size()];
           c.relevance =
               rng.Uniform(0, 1) - 0.3 * (c.item_group == 1);
           c.path_type = static_cast<int>(i % 4);
           candidates.push_back(c);
         }
         auto r = FairRerank(candidates, {});
         return "exposure " + F(r.exposure_before) + " -> " +
                F(r.exposure_after) + ", diversity=" +
                F(r.path_diversity);
       }});

  // --- Methods discussed in §IV's text but not rows of Table I ---

  // [65] Actionable recourse via interventions (Karimi et al.).
  reg.push_back(
      {"[65]", "actionable recourse (SCM)", false,
       ExplanationStage::kPostHoc, ModelAccess::kBlackBox,
       Agnosticism::kAgnostic, Coverage::kLocal, "Recourse", "Flipsets",
       FairnessLevel::kIndividual, "Fairness of recourse",
       FairnessTask::kClassification, Goals{false, false, true},
       [](const RunContext& ctx) {
         auto income = ctx.world.scm.dag().IndexOf("income");
         Rng rng(ctx.seed);
         for (int tries = 0; tries < 100; ++tries) {
           Vector x = ctx.world.scm.SampleDo(
               {{ctx.world.sensitive, 1.0}}, &rng);
           if (ctx.world_model.Predict(x) == 1) continue;
           auto r = FindCausalRecourse(ctx.world_model, ctx.world.scm, x,
                                       {*income});
           if (!r.found) continue;
           return std::to_string(r.interventions.size()) +
                  " interventions, cost=" + F(r.cost);
         }
         return std::string("n/a");
       }});

  // [76] Counterfactual explanation trees (Kanamori et al.).
  reg.push_back(
      {"[76]", "counterfactual explanation tree", false,
       ExplanationStage::kPostHoc, ModelAccess::kBlackBox,
       Agnosticism::kAgnostic, Coverage::kGlobal, "CFE",
       "Decision tree of actions", FairnessLevel::kGroup,
       "Fairness of recourse", FairnessTask::kClassification,
       Goals{false, true, true}, [](const RunContext& ctx) {
         auto r = BuildCounterfactualTree(ctx.credit_model, ctx.credit,
                                          {});
         return std::to_string(r.num_leaves) + " leaves, eff G+=" +
                F(r.effectiveness_protected) +
                " G-=" + F(r.effectiveness_non_protected);
       }});

  // Batched SHAP serving over a whole audit slice (ExplainBench-style
  // infrastructure; exercises the batched TreeSHAP engine end to end).
  reg.push_back(
      {"[serve]", "batched SHAP audit slice", false,
       ExplanationStage::kPostHoc, ModelAccess::kWhiteBox,
       Agnosticism::kSpecific, Coverage::kLocal, "Shapley",
       "Per-instance SHAP matrix", FairnessLevel::kGroup,
       "Unfair model behavior", FairnessTask::kClassification,
       Goals{false, true, false}, [](const RunContext& ctx) {
         DecisionTree tree;
         XFAIR_CHECK(tree.Fit(ctx.credit).ok());
         const size_t n = std::min<size_t>(ctx.credit.size(), 256);
         Matrix xs(n, ctx.credit.num_features());
         for (size_t i = 0; i < n; ++i) {
           xs.SetRow(i, ctx.credit.instance(i));
         }
         const Dataset background = ctx.credit.Subset({0, 7, 14, 21, 28});
         Rng rng(ctx.seed);
         const Matrix phi =
             ShapExplainBatch(tree, background, xs, /*permutations=*/64,
                              &rng);
         // Report the slice size and the globally strongest feature by
         // mean |phi| — the "which feature drives decisions on this
         // audit slice" headline a serving deployment surfaces.
         size_t top = 0;
         double top_mean = -1.0;
         for (size_t c = 0; c < phi.cols(); ++c) {
           double acc = 0.0;
           for (size_t i = 0; i < phi.rows(); ++i) {
             acc += std::abs(phi.At(i, c));
           }
           acc /= static_cast<double>(phi.rows());
           if (acc > top_mean) {
             top_mean = acc;
             top = c;
           }
         }
         return std::to_string(n) + " SHAP rows, top feature " +
                std::to_string(top) + " mean|phi|=" + F(top_mean);
       }});

  // Slice-scale fairness audit (ExplainBench-style): decompose the parity
  // gap of two dataset slices in one FairnessShapBatch call each, through
  // the batched thresholded sweep.
  reg.push_back(
      {"[audit]", "fairness-SHAP audit slices", false,
       ExplanationStage::kPostHoc, ModelAccess::kWhiteBox,
       Agnosticism::kSpecific, Coverage::kGlobal, "Shapley",
       "Per-slice parity decomposition", FairnessLevel::kGroup,
       "Base-Rates", FairnessTask::kClassification,
       Goals{false, true, false}, [](const RunContext& ctx) {
         DecisionTree tree;
         XFAIR_CHECK(tree.Fit(ctx.credit).ok());
         // Two halves of the credit data stand in for tenant slices.
         const size_t n = ctx.credit.size();
         std::vector<size_t> first, second;
         for (size_t i = 0; i < n; ++i) {
           (i < n / 2 ? first : second).push_back(i);
         }
         std::string out;
         for (const auto* slice : {&first, &second}) {
           const auto r = FairnessShapBatch(tree, ctx.credit, *slice, {});
           if (r.ranked_features.empty()) return std::string("n/a");
           const size_t top = r.ranked_features[0];
           if (!out.empty()) out += "; ";
           out += std::to_string(slice->size()) + " rows top '" +
                  r.feature_names[top] + "' gap=" + F(r.full_gap);
         }
         return out;
       }});

  // Worst-slice audit on the vertical-bitset lattice engine: top
  // worst-off intersectional subgroups (conjunctions of up to three
  // discretized conditions) by selection rate — the FFB/FairX-style
  // multi-attribute subgroup setting of ROADMAP item 3.
  reg.push_back(
      {"[slice]", "worst-slice subgroup audit", false,
       ExplanationStage::kPostHoc, ModelAccess::kBlackBox,
       Agnosticism::kAgnostic, Coverage::kGlobal, "Subgroup search",
       "Top-k worst-off slices", FairnessLevel::kGroup,
       "Unfair model behavior", FairnessTask::kClassification,
       Goals{true, true, false}, [](const RunContext& ctx) {
         LogisticRegression model;
         XFAIR_CHECK(model.Fit(ctx.credit).ok());
         SliceSearchOptions opts;
         opts.metric = SliceMetricKind::kSelectionRate;
         const WorstSliceReport r =
             WorstSliceSearch(model, ctx.credit, opts);
         if (r.slices.empty()) return std::string("no slice above support");
         const SliceStat& worst = r.slices[0];
         return std::to_string(r.slices_examined) + " slices; worst '" +
                worst.description + "' rate=" + F(worst.metric_value) +
                " overall=" + F(r.overall_metric) +
                " gap=" + F(worst.gap_to_overall);
       }});

  return reg;
}

}  // namespace

const std::vector<ApproachDescriptor>& ApproachRegistry() {
  static const std::vector<ApproachDescriptor>* registry =
      new std::vector<ApproachDescriptor>(BuildRegistry());
  return *registry;
}

}  // namespace xfair
