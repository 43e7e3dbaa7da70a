// Tests for src/unfair: the explaining-unfairness methods of paper §IV —
// burden/NAWB, PreCoF, FACTS, GLOBE-CE, CE trees, AReS, fairness Shapley,
// causal-path decomposition, Gopher, probabilistic contrastive CFs, and
// causal recourse. Where the generator plants a known bias mechanism, the
// tests assert the method recovers it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/data/generators.h"
#include "src/model/decision_tree.h"
#include "src/model/gbm.h"
#include "src/unfair/ares.h"
#include "src/unfair/burden.h"
#include "src/unfair/causal_path.h"
#include "src/unfair/cet.h"
#include "src/unfair/contrastive.h"
#include "src/unfair/facts.h"
#include "src/unfair/fairness_shap.h"
#include "src/unfair/globece.h"
#include "src/unfair/gopher.h"
#include "src/unfair/precof.h"
#include "src/unfair/recourse.h"
#include "src/unfair/slice_search.h"
#include "src/util/rng.h"
#include "tests/oracles/subgroup_oracle.h"
#include "tests/oracles/tree_shap_oracle.h"

namespace xfair {
namespace {

struct BiasedCredit {
  Dataset data;
  LogisticRegression model;

  static BiasedCredit Make(double shift = 1.0, uint64_t seed = 77,
                           size_t n = 900) {
    BiasConfig cfg;
    cfg.score_shift = shift;
    BiasedCredit f{CreditGen(cfg).Generate(n, seed), {}};
    XFAIR_CHECK(f.model.Fit(f.data).ok());
    return f;
  }
};

// --- burden / NAWB ---

TEST(Burden, BiasedModelBurdensProtectedGroupMore) {
  auto f = BiasedCredit::Make(1.2);
  Rng rng(1);
  auto report =
      ComputeBurden(f.model, f.data, BurdenScope::kAllNegatives, {}, &rng);
  EXPECT_GT(report.counterfactuals_protected, 10u);
  EXPECT_GT(report.counterfactuals_non_protected, 10u);
  EXPECT_GT(report.burden_gap, 0.0)
      << "protected group should need larger changes";
}

TEST(Burden, ScopeRestrictsToFalseNegatives) {
  auto f = BiasedCredit::Make();
  Rng rng(2);
  auto all =
      ComputeBurden(f.model, f.data, BurdenScope::kAllNegatives, {}, &rng);
  auto fn =
      ComputeBurden(f.model, f.data, BurdenScope::kFalseNegatives, {}, &rng);
  EXPECT_LE(fn.counterfactuals_protected, all.counterfactuals_protected);
  EXPECT_LE(fn.counterfactuals_non_protected,
            all.counterfactuals_non_protected);
}

TEST(Burden, NawbSeparatesGroupsUnderBias) {
  auto f = BiasedCredit::Make(1.2);
  Rng rng(3);
  auto report = ComputeNawb(f.model, f.data, {}, &rng);
  EXPECT_GT(report.nawb_protected, 0.0);
  EXPECT_GT(report.nawb_gap, 0.0);
}

TEST(Burden, FairWorldHasSmallGap) {
  BiasConfig fair;
  fair.score_shift = 0.0;
  fair.label_bias = 0.0;
  fair.proxy_strength = 0.0;
  fair.qualification_gap = 0.0;
  Dataset d = CreditGen(fair).Generate(900, 5);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(d).ok());
  Rng rng(4);
  auto report = ComputeBurden(lr, d, BurdenScope::kAllNegatives, {}, &rng);
  EXPECT_LT(std::fabs(report.burden_gap), 0.15);
}

/// `data` with its rows in a seeded random order.
Dataset Shuffled(const Dataset& data, uint64_t seed) {
  std::vector<size_t> order(data.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  rng.Shuffle(&order);
  return data.Subset(order);
}

/// `data` followed by a second copy of its rows.
Dataset Doubled(const Dataset& data) {
  std::vector<size_t> rows;
  for (int copy = 0; copy < 2; ++copy)
    for (size_t i = 0; i < data.size(); ++i) rows.push_back(i);
  return data.Subset(rows);
}

TEST(Burden, RowShuffleAndDoublingKeepBurdenAndNawb) {
  // Each row's search stream is keyed on its feature bytes, so the
  // metrics belong to the rows, not to their positions or multiplicity.
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  const Dataset data = CreditGen(cfg).Generate(500, 81);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(data).ok());
  GradientBoostedTrees gbm;
  GbmOptions gbm_opts;
  gbm_opts.num_rounds = 20;
  ASSERT_TRUE(gbm.Fit(data, gbm_opts).ok());
  for (const Model* model : {static_cast<const Model*>(&lr),
                             static_cast<const Model*>(&gbm)}) {
    SCOPED_TRACE(model->name());
    const auto burden = [&](const Dataset& d, BurdenScope scope) {
      Rng rng(82);
      return ComputeBurden(*model, d, scope, {}, &rng);
    };
    const auto nawb = [&](const Dataset& d) {
      Rng rng(83);
      return ComputeNawb(*model, d, {}, &rng);
    };
    const BurdenScope scopes[] = {BurdenScope::kAllNegatives,
                                  BurdenScope::kFalseNegatives};
    std::vector<BurdenReport> base;
    for (BurdenScope scope : scopes) base.push_back(burden(data, scope));
    ASSERT_GT(base[1].counterfactuals_protected, 0u);
    ASSERT_GT(base[1].counterfactuals_non_protected, 0u);
    const NawbReport nawb_base = nawb(data);
    for (size_t copies : {1, 2}) {
      const Dataset copy = copies == 1 ? Shuffled(data, 84) : Doubled(data);
      for (size_t k = 0; k < 2; ++k) {
        const BurdenReport b = burden(copy, scopes[k]);
        EXPECT_NEAR(b.burden_protected, base[k].burden_protected, 1e-12);
        EXPECT_NEAR(b.burden_non_protected, base[k].burden_non_protected,
                    1e-12);
        EXPECT_NEAR(b.burden_gap, base[k].burden_gap, 1e-12);
        EXPECT_EQ(b.counterfactuals_protected,
                  copies * base[k].counterfactuals_protected);
        EXPECT_EQ(b.counterfactuals_non_protected,
                  copies * base[k].counterfactuals_non_protected);
        EXPECT_EQ(b.failures, copies * base[k].failures);
      }
      const NawbReport n = nawb(copy);
      EXPECT_NEAR(n.nawb_protected, nawb_base.nawb_protected, 1e-12);
      EXPECT_NEAR(n.nawb_non_protected, nawb_base.nawb_non_protected, 1e-12);
      EXPECT_NEAR(n.nawb_gap, nawb_base.nawb_gap, 1e-12);
    }
  }
}

// --- PreCoF ---

TEST(Precof, RowShuffleAndDoublingKeepChangeFrequencies) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  const Dataset data = CreditGen(cfg).Generate(500, 85);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  const auto precof = [&](const Dataset& d) {
    Rng rng(86);
    return PrecofExplicitBias(model, d, &rng);
  };
  const PrecofReport base = precof(data);
  ASSERT_GT(base.counterfactuals_protected, 0u);
  for (size_t copies : {1, 2}) {
    const PrecofReport r =
        precof(copies == 1 ? Shuffled(data, 87) : Doubled(data));
    EXPECT_EQ(r.counterfactuals_protected,
              copies * base.counterfactuals_protected);
    EXPECT_EQ(r.counterfactuals_non_protected,
              copies * base.counterfactuals_non_protected);
    for (size_t c = 0; c < data.num_features(); ++c) {
      EXPECT_NEAR(r.change_freq_protected[c], base.change_freq_protected[c],
                  1e-12);
      EXPECT_NEAR(r.change_freq_non_protected[c],
                  base.change_freq_non_protected[c], 1e-12);
    }
    EXPECT_EQ(r.ranked_features, base.ranked_features);
  }
}

TEST(Precof, ExplicitBiasFlagsSensitiveAttribute) {
  // Model with a huge direct penalty on the protected attribute: flipping
  // it is the cheapest counterfactual, so its change frequency for the
  // protected group should dominate.
  BiasConfig cfg;
  cfg.score_shift = 0.3;
  Dataset d = CreditGen(cfg).Generate(700, 6);
  LogisticRegression direct;
  Vector w(d.num_features(), 0.0);
  w[0] = -6.0;   // protected
  w[2] = 0.25;   // income
  direct.SetParameters(w, 0.0);
  Rng rng(5);
  auto report = PrecofExplicitBias(direct, d, &rng);
  ASSERT_GT(report.counterfactuals_protected, 5u);
  // For protected negatives, the sensitive attribute flips almost always.
  EXPECT_GT(report.change_freq_protected[0], 0.6);
  // For the non-protected group flipping it would hurt: near zero.
  EXPECT_LT(report.change_freq_non_protected[0], 0.2);
  EXPECT_EQ(report.ranked_features[0], 0u);
}

TEST(Precof, ImplicitBiasSurfacesProxyRoutes) {
  BiasConfig cfg;
  cfg.proxy_strength = 0.9;
  cfg.score_shift = 0.8;
  Dataset d = CreditGen(cfg).Generate(900, 7);
  Rng rng(6);
  auto report = PrecofImplicitBias(d, &rng);
  // The blind dataset has 7 features (sensitive dropped); frequencies are
  // well-defined probabilities.
  ASSERT_EQ(report.change_freq_protected.size(), 7u);
  for (size_t c = 0; c < 7; ++c) {
    EXPECT_GE(report.change_freq_protected[c], 0.0);
    EXPECT_LE(report.change_freq_protected[c], 1.0);
  }
  EXPECT_GT(report.counterfactuals_protected, 10u);
  // Ranking is by descending gap.
  for (size_t k = 1; k < report.ranked_features.size(); ++k) {
    EXPECT_GE(report.frequency_gap[report.ranked_features[k - 1]],
              report.frequency_gap[report.ranked_features[k]]);
  }
}

// --- FACTS ---

TEST(Facts, FindsSubgroupsAndRanksByUnfairness) {
  auto f = BiasedCredit::Make(1.0);
  FactsOptions opts;
  opts.top_k = 5;
  auto report = RunFacts(f.model, f.data, opts);
  ASSERT_GT(report.subgroups_examined, 0u);
  ASSERT_FALSE(report.ranked_subgroups.empty());
  for (size_t k = 1; k < report.ranked_subgroups.size(); ++k) {
    EXPECT_GE(report.ranked_subgroups[k - 1].unfairness,
              report.ranked_subgroups[k].unfairness);
  }
  for (const auto& sg : report.ranked_subgroups) {
    EXPECT_GE(sg.affected_protected, opts.min_group_members);
    EXPECT_GE(sg.affected_non_protected, opts.min_group_members);
    EXPECT_FALSE(sg.description.empty());
    EXPECT_GE(sg.best_effectiveness_protected, 0.0);
    EXPECT_LE(sg.best_effectiveness_protected, 1.0);
  }
}

TEST(Facts, BiasedModelShowsRecourseBias) {
  auto f = BiasedCredit::Make(1.3);
  auto report = RunFacts(f.model, f.data, {});
  // With planted bias, the same actions work better for G-.
  EXPECT_GT(report.overall_effectiveness_gap, 0.0);
  EXPECT_GE(report.overall_choice_gap, 0.0);
}

TEST(Facts, EffectivenessRespectsDefinition) {
  // A model that favors exactly income > threshold: the action
  // "income := high" must have effectiveness 1 for everyone it applies to.
  Dataset d = CreditGen().Generate(400, 8);
  LogisticRegression income_only;
  Vector w(d.num_features(), 0.0);
  w[2] = 4.0;
  income_only.SetParameters(w, -20.0);  // favorable iff income > 5.
  auto report = RunFacts(income_only, d, {});
  // Best effectiveness for both groups should be ~1 via the income action.
  if (!report.ranked_subgroups.empty()) {
    const auto& top = report.ranked_subgroups.front();
    EXPECT_GE(std::max(top.best_effectiveness_protected,
                       top.best_effectiveness_non_protected),
              0.9);
  }
  EXPECT_NEAR(report.overall_effectiveness_gap, 0.0, 0.1)
      << "income-only model gives both groups the same recourse";
}

// --- GLOBE-CE ---

TEST(GlobeCe, DirectionIsUnitAndCoversGroups) {
  auto f = BiasedCredit::Make();
  Rng rng(9);
  GlobeCeOptions opts;
  auto report = FitGlobeCe(f.model, f.data, opts, &rng);
  EXPECT_NEAR(Norm2(report.protected_group.direction), 1.0, 1e-9);
  EXPECT_NEAR(Norm2(report.non_protected_group.direction), 1.0, 1e-9);
  EXPECT_GT(report.protected_group.coverage, 0.5);
  EXPECT_GT(report.non_protected_group.coverage, 0.5);
}

TEST(GlobeCe, BiasedModelCostsProtectedMore) {
  auto f = BiasedCredit::Make(1.3);
  Rng rng(10);
  auto report = FitGlobeCe(f.model, f.data, {}, &rng);
  EXPECT_GT(report.cost_gap, 0.0)
      << "protected group should need larger scales along its direction";
}

TEST(GlobeCe, ImmutableCoordinatesStayZeroInTranslation) {
  auto f = BiasedCredit::Make();
  Rng rng(11);
  auto report = FitGlobeCe(f.model, f.data, {}, &rng);
  // Directions may have components on immutables (they are projected away
  // at translation time); verify translation never moves them by checking
  // scales found imply flips with unchanged immutables. Indirect check:
  // re-verify a member flip manually.
  const auto& dir = report.protected_group.direction;
  ASSERT_EQ(dir.size(), f.data.num_features());
}

// --- counterfactual explanation tree ---

TEST(Cet, TreeAssignsEffectiveActions) {
  auto f = BiasedCredit::Make();
  CetOptions opts;
  auto report = BuildCounterfactualTree(f.model, f.data, opts);
  ASSERT_FALSE(report.nodes.empty());
  EXPECT_GE(report.num_leaves, 1u);
  EXPECT_GT(report.effectiveness_protected +
                report.effectiveness_non_protected,
            0.5);
  EXPECT_FALSE(report.ToString(f.data.schema()).empty());
}

TEST(Cet, ConsistentActionsForSameLeaf) {
  auto f = BiasedCredit::Make();
  auto report = BuildCounterfactualTree(f.model, f.data, {});
  // Two identical inputs route identically.
  const Vector x = f.data.instance(3);
  const auto& a1 = report.ActionFor(x);
  const auto& a2 = report.ActionFor(x);
  EXPECT_EQ(&a1, &a2);
}

TEST(Cet, DepthZeroGivesSingleLeaf) {
  auto f = BiasedCredit::Make();
  CetOptions opts;
  opts.max_depth = 0;
  auto report = BuildCounterfactualTree(f.model, f.data, opts);
  EXPECT_EQ(report.num_leaves, 1u);
  EXPECT_EQ(report.nodes.size(), 1u);
}

// --- action vocabulary bounds ---

// Every public entry point of the action vocabulary checks its feature and
// bin indices: a short row or an unknown bin aborts instead of being read
// or written out of bounds.
class ActionsDeathTest : public ::testing::Test {
 protected:
  // Earlier tests in the binary may have started the thread pool; a
  // re-executed child, unlike a forked one, never inherits its locks.
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

TEST_F(ActionsDeathTest, ActionApplyToRejectsShortRow) {
  const Action action{3, 1.0};
  EXPECT_DEATH((void)action.ApplyTo(Vector(2, 0.0)), "feature < x.size");
}

TEST_F(ActionsDeathTest, CompositeActionApplyToRejectsShortRow) {
  const CompositeAction action{{{0, 1.0}, {3, 1.0}}};
  EXPECT_DEATH((void)action.ApplyTo(Vector(2, 0.0)),
               "a.feature < out.size");
}

TEST_F(ActionsDeathTest, ActionCostRejectsShortRow) {
  const Dataset data = CreditGen().Generate(50, 3);
  const Action action{3, 1.0};
  EXPECT_DEATH((void)action.Cost(data.schema(), Vector(2, 0.0)),
               "feature < x.size");
}

TEST_F(ActionsDeathTest, BinLabelRejectsUnknownFeatureAndBin) {
  const Dataset data = CreditGen().Generate(200, 3);
  const Discretizer disc(data, 3);
  const size_t d = data.num_features();
  EXPECT_DEATH((void)disc.BinLabel(data.schema(), d, 0),
               "feature < edges_.size");
  // A feature with inner edges: one past its last bin would read past
  // them.
  size_t f = 0;
  while (f < d && disc.NumBins(f) < 3) ++f;
  ASSERT_LT(f, d);
  EXPECT_DEATH((void)disc.BinLabel(data.schema(), f, disc.NumBins(f)),
               "bin <= edges.size");
}

TEST_F(ActionsDeathTest, CetActionForRejectsShortRow) {
  CetReport report;
  report.nodes.resize(3);
  report.nodes[0].feature = 4;
  report.nodes[0].left = 1;
  report.nodes[0].right = 2;
  EXPECT_DEATH((void)report.ActionFor(Vector(2, 0.0)),
               "cet.cc.*< x.size");
}

// --- AReS ---

TEST(Ares, SelectsRulesWithinBudget) {
  auto f = BiasedCredit::Make();
  AresOptions opts;
  opts.max_rules = 4;
  auto report = BuildRecourseSet(f.model, f.data, opts);
  EXPECT_LE(report.num_rules, 4u);
  EXPECT_GT(report.num_rules, 0u);
  EXPECT_GT(report.total_recourse_rate, 0.2);
  for (const auto& rule : report.rules) {
    EXPECT_GE(rule.coverage, kAresMinRuleCoverage);
    EXPECT_GT(rule.effectiveness, 0.0);
    EXPECT_FALSE(rule.description.empty());
  }
}

TEST(Ares, GreedyRulesHaveDecreasingMarginalValue) {
  auto f = BiasedCredit::Make();
  auto report = BuildRecourseSet(f.model, f.data, {});
  // Interpretability proxies are populated.
  EXPECT_GT(report.mean_rule_width, 0.0);
}

// --- fairness Shapley ---

TEST(FairnessShap, MaskModeEfficiencyHolds) {
  auto f = BiasedCredit::Make();
  FairnessShapOptions opts;
  opts.mode = FairnessShapMode::kMask;
  auto report = ExplainParityWithShapley(f.model, f.data, opts);
  double sum = 0.0;
  for (double c : report.contributions) sum += c;
  EXPECT_NEAR(sum, report.full_gap - report.baseline_gap, 1e-9);
  EXPECT_NEAR(report.baseline_gap, 0.0, 1e-12)
      << "empty coalition treats groups identically";
}

TEST(FairnessShap, SensitiveFeatureGetsLargeShare) {
  // Model that discriminates directly: the sensitive feature must carry
  // the dominant share of the parity gap.
  Dataset d = CreditGen().Generate(800, 12);
  LogisticRegression direct;
  Vector w(d.num_features(), 0.0);
  w[0] = -4.0;
  w[2] = 0.5;
  direct.SetParameters(w, -1.0);
  FairnessShapOptions opts;
  auto report = ExplainParityWithShapley(direct, d, opts);
  EXPECT_EQ(report.ranked_features[0], 0u);
  EXPECT_GT(report.contributions[0], 0.0);
}

TEST(FairnessShap, RetrainModeRunsAndRanks) {
  // Use a narrow dataset to keep 2^d retrains cheap.
  Dataset full = CreditGen().Generate(300, 13);
  // Keep protected, income, zip_risk.
  Dataset d = full;
  for (int c = static_cast<int>(full.num_features()) - 1; c >= 0; --c) {
    if (c == 0 || c == 2 || c == 7) continue;
    d = d.WithoutFeature(static_cast<size_t>(c));
  }
  FairnessShapOptions opts;
  opts.mode = FairnessShapMode::kRetrain;
  LogisticRegression unused;
  ASSERT_TRUE(unused.Fit(d).ok());
  auto report = ExplainParityWithShapley(unused, d, opts);
  EXPECT_EQ(report.contributions.size(), 3u);
  EXPECT_DOUBLE_EQ(report.baseline_gap, 0.0);
  double sum = 0.0;
  for (double c : report.contributions) sum += c;
  EXPECT_NEAR(sum, report.full_gap, 1e-9);
}

/// FairnessShapBatch promises bit-identity with its reference path, not
/// closeness — compare every report field with EXPECT_EQ (0 ulp).
void ExpectReportsBitIdentical(const FairnessShapReport& a,
                               const FairnessShapReport& b) {
  ASSERT_EQ(a.contributions.size(), b.contributions.size());
  for (size_t c = 0; c < a.contributions.size(); ++c)
    EXPECT_EQ(a.contributions[c], b.contributions[c]) << "feature " << c;
  EXPECT_EQ(a.full_gap, b.full_gap);
  EXPECT_EQ(a.baseline_gap, b.baseline_gap);
  EXPECT_EQ(a.ranked_features, b.ranked_features);
  EXPECT_EQ(a.feature_names, b.feature_names);
}

TEST(FairnessShap, TreeBatchedSweepMatchesLoopedReferenceBitForBit) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  const Dataset data = CreditGen(cfg).Generate(1300, 79);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data).ok());
  FairnessShapOptions opts;  // kMask: the tree takes the batched sweep.
  opts.background_size = 130;  // sample = all 1300 rows -> ragged tiles.
  const FairnessShapReport report = ExplainParityWithShapley(tree, data, opts);
  // The same game by hand: column-mean background, the seeded row sample,
  // +-1/count[g] weights; solved by the looped per-row reference.
  const size_t n = data.size(), d = data.num_features();
  Vector background(d, 0.0);
  for (size_t i = 0; i < n; ++i)
    for (size_t c = 0; c < d; ++c) background[c] += data.x().At(i, c);
  for (double& v : background) v /= static_cast<double>(n);
  Rng rng(opts.seed);
  const size_t sample =
      std::min<size_t>(n, std::max<size_t>(opts.background_size * 10, 200));
  const std::vector<size_t> rows = rng.SampleWithoutReplacement(n, sample);
  size_t count[2] = {0, 0};
  for (size_t r : rows) ++count[data.group(r)];
  Vector weights(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    weights[i] = data.group(rows[i]) == 0
                     ? 1.0 / static_cast<double>(count[0])
                     : -1.0 / static_cast<double>(count[1]);
  }
  const Vector looped = oracles::InterventionalTreeShapThresholdedLooped(
      tree, data.x(), rows, weights, background, tree.threshold());
  ASSERT_EQ(report.contributions.size(), looped.size());
  for (size_t c = 0; c < d; ++c)
    EXPECT_EQ(report.contributions[c], looped[c]) << "feature " << c;
}

TEST(FairnessShap, BatchSliceMatchesSubsetExplainBitForBit) {
  auto f = BiasedCredit::Make(1.0, 81, 1100);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(f.data).ok());
  std::vector<size_t> slice;
  for (size_t i = 0; i < f.data.size(); ++i)
    if (i % 3 != 1) slice.push_back(i);  // Non-contiguous 2/3 slice.
  const Dataset subset = f.data.Subset(slice);
  FairnessShapOptions opts;
  // Tree fast path: slice view vs materialized subset through the batched
  // thresholded sweep.
  ExpectReportsBitIdentical(FairnessShapBatch(tree, f.data, slice, opts),
                            ExplainParityWithShapley(tree, subset, opts));
  // Generic coalition-tiled path (logistic model, d <= 10 exact table).
  ExpectReportsBitIdentical(FairnessShapBatch(f.model, f.data, slice, opts),
                            ExplainParityWithShapley(f.model, subset, opts));
}

TEST(FairnessShap, BatchSingleGroupSliceReturnsZeroSentinel) {
  auto f = BiasedCredit::Make();
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(f.data).ok());
  std::vector<size_t> slice;
  for (size_t i = 0; i < f.data.size(); ++i)
    if (f.data.group(i) == 0) slice.push_back(i);
  ASSERT_FALSE(slice.empty());
  // Both the tree fast path and the generic path must hit the sentinel
  // before any 1/count[g] weight is formed. Ranked order is not pinned:
  // all-zero contributions sort arbitrarily.
  for (const Model* m : {static_cast<const Model*>(&tree),
                         static_cast<const Model*>(&f.model)}) {
    const auto report = FairnessShapBatch(*m, f.data, slice, {});
    EXPECT_EQ(report.full_gap, 0.0);
    EXPECT_EQ(report.baseline_gap, 0.0);
    ASSERT_EQ(report.contributions.size(), f.data.num_features());
    for (double c : report.contributions) EXPECT_EQ(c, 0.0);
    EXPECT_EQ(report.ranked_features.size(), f.data.num_features());
  }
}

// --- causal path decomposition ---

TEST(CausalPath, EnumeratesAllPathsFromSensitive) {
  CausalWorld world = MakeCreditWorld(1.0);
  LogisticRegression lr;
  lr.SetParameters({0.0, 0.6, 0.4, -0.5, 0.0}, -3.5);
  auto report = DecomposeDisparityByPaths(lr, world, 2000, 14);
  // Paths: S->income, S->income->savings, S->income->debt, S->zip.
  EXPECT_EQ(report.paths.size(), 4u);
}

TEST(CausalPath, ExplainedDisparityMatchesTotalForNearLinearModel) {
  CausalWorld world = MakeCreditWorld(1.0);
  LogisticRegression lr;
  lr.SetParameters({0.0, 0.3, 0.2, -0.25, 0.0}, -1.5);  // Gentle slopes.
  auto report = DecomposeDisparityByPaths(lr, world, 4000, 15);
  EXPECT_GT(report.total_disparity, 0.0);
  EXPECT_NEAR(report.explained_disparity, report.total_disparity,
              0.25 * std::fabs(report.total_disparity) + 0.01);
}

TEST(CausalPath, ProxyOnlyModelBlamesProxyPath) {
  CausalWorld world = MakeCreditWorld(1.0);
  // Model that uses only zip_risk.
  LogisticRegression lr;
  lr.SetParameters({0.0, 0.0, 0.0, 0.0, 0.8}, -3.0);
  auto report = DecomposeDisparityByPaths(lr, world, 3000, 16);
  ASSERT_FALSE(report.paths.empty());
  EXPECT_EQ(report.paths[0].description, "S -> zip_risk");
  // Income paths contribute nothing to this model.
  for (const auto& p : report.paths) {
    if (p.description != "S -> zip_risk") {
      EXPECT_NEAR(p.score_contribution, 0.0, 1e-9);
    }
  }
}

// --- Gopher ---

TEST(Gopher, FindsGapReducingPatterns) {
  auto f = BiasedCredit::Make(1.0, 78, 700);
  GopherOptions opts;
  opts.top_k = 3;
  auto report = ExplainUnfairnessByPatterns(f.model, f.data, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->original_gap, 0.0);
  ASSERT_FALSE(report->patterns.empty());
  EXPECT_GT(report->patterns_examined, report->patterns.size());
  // Top pattern's estimated effect is gap-reducing.
  EXPECT_LT(report->patterns.front().estimated_gap_change, 0.0);
  for (const auto& p : report->patterns) {
    EXPECT_GE(p.support, 1u);
    EXPECT_FALSE(p.description.empty());
  }
}

TEST(Gopher, VerifiedChangesCorrelateWithEstimates) {
  auto f = BiasedCredit::Make(1.0, 79, 600);
  GopherOptions opts;
  opts.top_k = 4;
  auto report = ExplainUnfairnessByPatterns(f.model, f.data, opts);
  ASSERT_TRUE(report.ok());
  size_t verified = 0, same_sign = 0;
  for (const auto& p : report->patterns) {
    if (!p.verified) continue;
    ++verified;
    if (p.estimated_gap_change * p.verified_gap_change > 0.0 ||
        std::fabs(p.verified_gap_change) < 0.02) {
      ++same_sign;
    }
  }
  ASSERT_GT(verified, 0u);
  EXPECT_GE(same_sign * 2, verified)
      << "at least half the verified patterns should agree in direction";
}

// --- worst-slice subgroup search ---

TEST(WorstSlice, RecoversPlantedDisadvantagedGroup) {
  auto f = BiasedCredit::Make(1.0, 85, 700);
  // Restricted to the sensitive column only, the worst "slice" must be
  // the planted disadvantaged group itself.
  SliceSearchOptions opts;
  opts.columns = {0};
  opts.max_conditions = 1;
  opts.bins = 2;
  opts.top_k = 2;
  const WorstSliceReport r = WorstSliceSearch(f.model, f.data, opts);
  ASSERT_EQ(r.slices.size(), 2u);
  EXPECT_EQ(r.slices[0].conditions.size(), 1u);
  EXPECT_EQ(r.slices[0].conditions[0].first, 0u);  // Sensitive column.
  EXPECT_LT(r.slices[0].metric_value, r.slices[1].metric_value);
  EXPECT_LT(r.slices[0].gap_to_overall, 0.0);
  // The slice's selection rate must match a direct count.
  const auto& worst = r.slices[0];
  EXPECT_EQ(worst.metric_value, static_cast<double>(worst.hits) /
                                    static_cast<double>(worst.relevant));
}

TEST(WorstSlice, IntersectionalSearchFindsSlicesBelowOverall) {
  auto f = BiasedCredit::Make(1.0, 86, 600);
  SliceSearchOptions opts;  // All columns, depth 3, selection rate.
  const WorstSliceReport r = WorstSliceSearch(f.model, f.data, opts);
  ASSERT_FALSE(r.slices.empty());
  EXPECT_GT(r.slices_examined, r.slices.size());
  EXPECT_GT(r.lattice_candidates, 0u);
  const size_t min_count = static_cast<size_t>(0.02 * 600);
  double prev = -1.0;
  for (const auto& s : r.slices) {
    EXPECT_LE(s.conditions.size(), opts.max_conditions);
    EXPECT_GE(s.support, min_count);
    EXPECT_LE(s.hits, s.relevant);
    EXPECT_LE(s.relevant, s.support);
    EXPECT_FALSE(s.description.empty());
    EXPECT_GE(s.metric_value, prev);  // Worst (lowest rate) first.
    prev = s.metric_value;
  }
  EXPECT_LT(r.slices[0].metric_value, r.overall_metric);
}

TEST(WorstSlice, EngineMatchesLoopedOracleExactly) {
  auto f = BiasedCredit::Make(1.0, 87, 500);
  for (const auto metric :
       {SliceMetricKind::kSelectionRate, SliceMetricKind::kAccuracy,
        SliceMetricKind::kTruePositiveRate,
        SliceMetricKind::kFalsePositiveRate}) {
    SliceSearchOptions opts;
    opts.metric = metric;
    opts.top_k = 8;
    const WorstSliceReport fast = WorstSliceSearch(f.model, f.data, opts);
    const WorstSliceReport slow =
        oracles::WorstSliceSearchLooped(f.model, f.data, opts);
    EXPECT_EQ(fast.overall_metric, slow.overall_metric);
    EXPECT_EQ(fast.slices_examined, slow.slices_examined);
    ASSERT_EQ(fast.slices.size(), slow.slices.size());
    for (size_t i = 0; i < fast.slices.size(); ++i) {
      EXPECT_EQ(fast.slices[i].description, slow.slices[i].description);
      EXPECT_EQ(fast.slices[i].support, slow.slices[i].support);
      EXPECT_EQ(fast.slices[i].hits, slow.slices[i].hits);
      EXPECT_EQ(fast.slices[i].relevant, slow.slices[i].relevant);
      EXPECT_EQ(fast.slices[i].metric_value, slow.slices[i].metric_value);
      EXPECT_EQ(fast.slices[i].gap_to_overall, slow.slices[i].gap_to_overall);
    }
  }
}

TEST(WorstSlice, FalsePositiveRateRanksHighestFirst) {
  auto f = BiasedCredit::Make(1.0, 88, 500);
  SliceSearchOptions opts;
  opts.metric = SliceMetricKind::kFalsePositiveRate;
  const WorstSliceReport r = WorstSliceSearch(f.model, f.data, opts);
  double prev = 2.0;
  for (const auto& s : r.slices) {
    EXPECT_LE(s.metric_value, prev);  // Higher FPR = worse = first.
    prev = s.metric_value;
  }
}

// Zero-support singles (discretizer bins that never occur in the indexed
// data) are pruned before any extension, and the walk reports them.
TEST(WorstSlice, LatticeWalkPrunesZeroSupportSingles) {
  auto f = BiasedCredit::Make(1.0, 89, 400);
  // Discretize on the full data, but index only the rows the model
  // rejects — bins populated solely by accepted rows go extent-empty.
  Discretizer disc(f.data, /*bins=*/6);
  std::vector<size_t> low;
  for (size_t i = 0; i < f.data.size(); ++i) {
    if (i % 3 == 0) low.push_back(i);
  }
  const Dataset subset = f.data.Subset(low);
  // Squash a column so several of its full-data bins are empty in the
  // index: every subset row takes the column's minimum value.
  Matrix x = subset.x();
  double squash = x.At(0, 2);
  for (size_t i = 0; i < x.rows(); ++i) squash = std::min(squash, x.At(i, 2));
  for (size_t i = 0; i < x.rows(); ++i) x.At(i, 2) = squash;
  const Dataset squashed(subset.schema(), std::move(x), subset.labels(),
                         subset.groups());
  const SliceExtentIndex index(disc, squashed);
  size_t seen = 0;
  const auto stats = LatticeWalk(
      index, /*min_count=*/1, /*max_depth=*/2,
      [](size_t) {}, [](size_t, const LatticeNode&) {},
      [&](size_t, const LatticeNode& node) {
        // Dead singles never materialize (intersections can still be
        // empty at depth 2 — only the singles level is pre-pruned).
        if (node.depth == 1) {
          EXPECT_GT(node.support, 0u);
        }
        ++seen;
        return true;
      });
  EXPECT_GT(stats.singles_zero_support, 0u);
  EXPECT_EQ(stats.candidates, seen);
  // Every single the walk dropped or kept is accounted for.
  size_t frequent = 0;
  for (size_t sid = 0; sid < index.num_singles(); ++sid) {
    if (index.support(sid) >= 1) ++frequent;
  }
  EXPECT_EQ(frequent + stats.singles_zero_support + stats.singles_infrequent,
            index.num_singles());
}

// --- probabilistic contrastive counterfactuals ---

TEST(Contrastive, InterventionQueryMovesFavorableRate) {
  CausalWorld world = MakeCreditWorld(1.0);
  LogisticRegression lr;
  lr.SetParameters({0.0, 0.6, 0.4, -0.5, 0.0}, -3.5);
  auto income = world.scm.dag().IndexOf("income");
  ASSERT_TRUE(income.ok());
  auto low = EstimateInterventionQuery(lr, world.scm, world.sensitive, 1,
                                       {{*income, 2.0}}, 3000, 17);
  auto high = EstimateInterventionQuery(lr, world.scm, world.sensitive, 1,
                                        {{*income, 8.0}}, 3000, 17);
  EXPECT_GT(high.favorable_rate, low.favorable_rate + 0.2);
}

TEST(Contrastive, SufficiencyGapRevealsGroupDifference) {
  CausalWorld world = MakeCreditWorld(1.5);
  // Model dominated by the *proxy* (zip_risk), so fixing income alone
  // rescues the non-protected group far more often: the protected group
  // stays trapped by its proxy value.
  LogisticRegression lr;
  lr.SetParameters({0.0, 0.3, 0.2, -0.2, -1.0}, 0.5);
  auto income = world.scm.dag().IndexOf("income");
  ASSERT_TRUE(income.ok());
  auto report = ContrastInterventions(lr, world.scm, world.sensitive,
                                      {{*income, 6.5}}, {{*income, 2.0}},
                                      1500, 18);
  EXPECT_GE(report.sufficiency_protected, 0.0);
  EXPECT_LE(report.sufficiency_protected, 1.0);
  EXPECT_GT(report.sufficiency_gap, 0.0);
  EXPECT_GT(report.necessity_non_protected, 0.0);
}

// --- causal recourse ---

TEST(Recourse, CausalRecourseExploitsDownstreamEffects) {
  CausalWorld world = MakeCreditWorld(1.0);
  // Model heavily weights savings; savings is caused by income. An
  // intervention on income should be usable for recourse.
  LogisticRegression lr;
  lr.SetParameters({0.0, 0.2, 0.9, -0.2, 0.0}, -5.0);
  Rng rng(19);
  auto income = world.scm.dag().IndexOf("income");
  ASSERT_TRUE(income.ok());
  // Find a denied individual.
  Vector x;
  for (int tries = 0; tries < 200; ++tries) {
    Vector cand = world.scm.SampleDo({{world.sensitive, 1.0}}, &rng);
    if (lr.Predict(cand) == 0) {
      x = cand;
      break;
    }
  }
  ASSERT_FALSE(x.empty());
  auto action = FindCausalRecourse(lr, world.scm, x, {*income});
  ASSERT_TRUE(action.found);
  EXPECT_EQ(lr.Predict(action.resulting_state), 1);
  // Savings must have moved even though only income was intervened on.
  auto savings = world.scm.dag().IndexOf("savings");
  ASSERT_TRUE(savings.ok());
  EXPECT_GT(action.resulting_state[*savings], x[*savings]);
}

TEST(Recourse, AlreadyFavorableNeedsNoAction) {
  CausalWorld world = MakeCreditWorld(1.0);
  LogisticRegression lr;
  lr.SetParameters({0.0, 0.0, 0.0, 0.0, 0.0}, 5.0);  // Always favorable.
  Rng rng(20);
  const Vector x = world.scm.Sample(&rng);
  auto action = FindCausalRecourse(lr, world.scm, x, {1, 2});
  EXPECT_TRUE(action.found);
  EXPECT_TRUE(action.interventions.empty());
  EXPECT_DOUBLE_EQ(action.cost, 0.0);
}

TEST(Recourse, GroupRecourseGapPositiveUnderBias) {
  auto f = BiasedCredit::Make(1.2);
  auto report = EvaluateGroupRecourse(f.model, f.data);
  EXPECT_GT(report.negatives_protected, 0u);
  EXPECT_GT(report.negatives_non_protected, 0u);
  EXPECT_GT(report.recourse_gap, 0.0)
      << "denied protected individuals sit farther from the boundary";
}

TEST(Recourse, CausalRecourseFairnessDetectsDisparity) {
  CausalWorld world = MakeCreditWorld(1.5);
  LogisticRegression lr;
  lr.SetParameters({0.0, 0.6, 0.4, -0.5, 0.0}, -3.5);
  auto income = world.scm.dag().IndexOf("income");
  ASSERT_TRUE(income.ok());
  auto report = EvaluateCausalRecourseFairness(lr, world, {*income}, 400,
                                               21);
  EXPECT_GT(report.evaluated, 20u);
  EXPECT_GT(report.group_gap, 0.0)
      << "protected individuals should pay more for recourse";
  EXPECT_GT(report.individual_unfairness, 0.0);
}

TEST(Recourse, FairWorldHasNearZeroIndividualUnfairness) {
  CausalWorld world = MakeCreditWorld(0.0);  // S affects nothing relevant.
  LogisticRegression lr;
  lr.SetParameters({0.0, 0.6, 0.4, -0.5, 0.0}, -3.5);
  auto income = world.scm.dag().IndexOf("income");
  ASSERT_TRUE(income.ok());
  auto report =
      EvaluateCausalRecourseFairness(lr, world, {*income}, 300, 22);
  EXPECT_NEAR(report.individual_unfairness, 0.0, 0.05);
  EXPECT_NEAR(report.group_gap, 0.0, 0.3);
}

}  // namespace
}  // namespace xfair
