// Tests for src/explain: counterfactual generators (validity, feasibility,
// sparsity), Shapley engine (axioms, convergence), importance, PDP,
// surrogates, rules, influence functions, prototypes.

#include <gtest/gtest.h>

#include <cmath>

#include "src/data/generators.h"
#include "src/data/scaler.h"
#include "src/util/stats.h"
#include "src/explain/counterfactual.h"
#include "src/explain/importance.h"
#include "src/explain/influence.h"
#include "src/explain/prototypes.h"
#include "src/explain/rules.h"
#include "src/explain/shap.h"
#include "src/explain/surrogate.h"
#include "src/model/logistic_regression.h"
#include "src/model/random_forest.h"

namespace xfair {
namespace {

struct CreditFixture {
  Dataset data;
  LogisticRegression model;

  static CreditFixture Make(uint64_t seed = 42) {
    CreditFixture f{CreditGen().Generate(1200, seed), {}};
    XFAIR_CHECK(f.model.Fit(f.data).ok());
    return f;
  }

  /// Index of some instance predicted unfavorably.
  size_t NegativeInstance() const {
    for (size_t i = 0; i < data.size(); ++i)
      if (model.Predict(data.instance(i)) == 0) return i;
    XFAIR_CHECK_MSG(false, "no negative instance found");
    return 0;
  }
};

TEST(Counterfactual, WachterFlipsClassAndRespectsImmutables) {
  auto f = CreditFixture::Make();
  const size_t i = f.NegativeInstance();
  const Vector x = f.data.instance(i);
  CounterfactualConfig cfg;
  auto r = WachterCounterfactual(f.model, f.data.schema(), x, cfg);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(f.model.Predict(r.counterfactual), 1);
  EXPECT_GT(r.distance, 0.0);
  // Immutable features (protected=0, age=1) must not move.
  EXPECT_DOUBLE_EQ(r.counterfactual[0], x[0]);
  EXPECT_DOUBLE_EQ(r.counterfactual[1], x[1]);
  // Increase-only income must not decrease; decrease-only debt must not
  // increase.
  EXPECT_GE(r.counterfactual[2], x[2]);
  EXPECT_LE(r.counterfactual[5], x[5]);
}

TEST(Counterfactual, GrowingSpheresFlipsClassBlackBox) {
  auto f = CreditFixture::Make();
  RandomForest forest;
  RandomForestOptions fo;
  fo.num_trees = 15;
  ASSERT_TRUE(forest.Fit(f.data, fo).ok());
  Rng rng(1);
  size_t found = 0, tried = 0;
  for (size_t i = 0; i < f.data.size() && tried < 20; ++i) {
    const Vector x = f.data.instance(i);
    if (forest.Predict(x) != 0) continue;
    ++tried;
    auto r = GrowingSpheresCounterfactual(forest, f.data.schema(), x, {},
                                          &rng);
    if (!r.valid) continue;
    ++found;
    EXPECT_EQ(forest.Predict(r.counterfactual), 1);
    EXPECT_DOUBLE_EQ(r.counterfactual[0], x[0]);  // Immutable.
  }
  EXPECT_GE(found, tried / 2) << "growing spheres should usually succeed";
}

TEST(Counterfactual, AlreadyTargetClassIsTrivial) {
  auto f = CreditFixture::Make();
  size_t pos = 0;
  for (size_t i = 0; i < f.data.size(); ++i)
    if (f.model.Predict(f.data.instance(i)) == 1) {
      pos = i;
      break;
    }
  const Vector x = f.data.instance(pos);
  auto r = WachterCounterfactual(f.model, f.data.schema(), x, {});
  EXPECT_TRUE(r.valid);
  EXPECT_DOUBLE_EQ(r.distance, 0.0);
  EXPECT_EQ(r.sparsity, 0u);
}

TEST(Counterfactual, SparsityNeverExceedsChangedCount) {
  auto f = CreditFixture::Make();
  Rng rng(2);
  const size_t i = f.NegativeInstance();
  auto r = GrowingSpheresCounterfactual(f.model, f.data.schema(),
                                        f.data.instance(i), {}, &rng);
  ASSERT_TRUE(r.valid);
  EXPECT_LE(r.sparsity, f.data.num_features());
  EXPECT_EQ(r.sparsity,
            NonZeroCount(Sub(r.counterfactual, f.data.instance(i)), 1e-12));
}

TEST(Counterfactual, UnconstrainedMayTouchSensitive) {
  auto f = CreditFixture::Make();
  CounterfactualConfig cfg;
  cfg.respect_actionability = false;
  const size_t i = f.NegativeInstance();
  auto r =
      WachterCounterfactual(f.model, f.data.schema(), f.data.instance(i), cfg);
  ASSERT_TRUE(r.valid);
  // With actionability off, bounds still hold.
  for (size_t c = 0; c < r.counterfactual.size(); ++c) {
    EXPECT_GE(r.counterfactual[c], f.data.schema().feature(c).lower);
    EXPECT_LE(r.counterfactual[c], f.data.schema().feature(c).upper);
  }
}

TEST(Counterfactual, NormalizedDistanceIsScaleAware) {
  Schema schema(
      {FeatureSpec{"small", FeatureKind::kNumeric, 0, Actionability::kAny,
                   0.0, 1.0},
       FeatureSpec{"big", FeatureKind::kNumeric, 0, Actionability::kAny, 0.0,
                   100.0}},
      -1);
  // A change of 0.5 on each feature: the small one dominates.
  EXPECT_NEAR(NormalizedDistance(schema, {0.0, 0.0}, {0.5, 0.0}), 0.5,
              1e-12);
  EXPECT_NEAR(NormalizedDistance(schema, {0.0, 0.0}, {0.0, 0.5}), 0.005,
              1e-12);
}

/// Rows of `data` that `model` denies, in row order.
std::vector<size_t> DeniedRows(const Model& model, const Dataset& data) {
  std::vector<size_t> rows;
  for (size_t i = 0; i < data.size(); ++i)
    if (model.Predict(data.instance(i)) == 0) rows.push_back(i);
  return rows;
}

TEST(Counterfactual, ForRowsMatchesEachRowSearchedAlone) {
  // One result per row, in the order given. Each row's stream is keyed on
  // its feature bytes, so a row gets the same counterfactual whether it
  // is searched among the others, in reverse order, or alone.
  auto f = CreditFixture::Make();
  const std::vector<size_t> rows = DeniedRows(f.model, f.data);
  ASSERT_FALSE(rows.empty());
  const std::vector<size_t> reversed(rows.rbegin(), rows.rend());
  Rng rng(3), reversed_rng(3);
  const auto results = CounterfactualsForRows(f.model, f.data, rows, {}, &rng);
  const auto backwards =
      CounterfactualsForRows(f.model, f.data, reversed, {}, &reversed_rng);
  ASSERT_EQ(results.size(), rows.size());
  ASSERT_EQ(backwards.size(), rows.size());
  for (size_t k = 0; k < rows.size(); ++k) {
    EXPECT_EQ(results[k].counterfactual,
              backwards[rows.size() - 1 - k].counterfactual);
    if (k % 16 != 0) continue;
    Rng alone_rng(3);
    const auto alone =
        CounterfactualsForRows(f.model, f.data, {rows[k]}, {}, &alone_rng);
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(alone[0].counterfactual, results[k].counterfactual);
    EXPECT_EQ(alone[0].distance, results[k].distance);
  }
}

TEST(Counterfactual, ForRowsStayValidAndFeasible) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  const Dataset data = CreditGen(cfg).Generate(150, 95);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  const std::vector<size_t> rows = DeniedRows(model, data);
  ASSERT_FALSE(rows.empty());
  CounterfactualConfig config;
  Rng rng(96);
  const auto results = CounterfactualsForRows(model, data, rows, config, &rng);
  size_t valid = 0;
  for (size_t k = 0; k < rows.size(); ++k) {
    const auto& r = results[k];
    if (!r.valid) continue;
    ++valid;
    const Vector x = data.instance(rows[k]);
    EXPECT_EQ(model.Predict(r.counterfactual), kCounterfactualTargetClass);
    // Immutables pinned, directional features one-way (CreditGen schema).
    EXPECT_DOUBLE_EQ(r.counterfactual[0], x[0]);
    EXPECT_DOUBLE_EQ(r.counterfactual[1], x[1]);
    EXPECT_GE(r.counterfactual[2], x[2]);
    EXPECT_LE(r.counterfactual[5], x[5]);
  }
  EXPECT_GT(valid, rows.size() / 2);
}

// --- Shapley engine ---

TEST(Shapley, ExactOnAdditiveGame) {
  // v(S) = sum of member weights: Shapley value = own weight.
  Vector weights = {1.0, -2.0, 3.5, 0.0};
  CoalitionValue v = [&](const std::vector<bool>& mask) {
    double acc = 0.0;
    for (size_t i = 0; i < mask.size(); ++i)
      if (mask[i]) acc += weights[i];
    return acc;
  };
  Vector phi = ExactShapley(v, 4);
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(phi[i], weights[i], 1e-12);
}

TEST(Shapley, ExactOnUnanimityGame) {
  // v(S) = 1 iff S contains both 0 and 1: classic split of 1/2 each.
  CoalitionValue v = [](const std::vector<bool>& mask) {
    return mask[0] && mask[1] ? 1.0 : 0.0;
  };
  Vector phi = ExactShapley(v, 3);
  EXPECT_NEAR(phi[0], 0.5, 1e-12);
  EXPECT_NEAR(phi[1], 0.5, 1e-12);
  EXPECT_NEAR(phi[2], 0.0, 1e-12);
}

TEST(Shapley, EfficiencyAxiom) {
  // Shapley values must sum to v(full) - v(empty) for any game.
  Rng rng(4);
  Vector table(1u << 5);
  for (double& t : table) t = rng.Uniform(-1, 1);
  CoalitionValue v = [&](const std::vector<bool>& mask) {
    size_t s = 0;
    for (size_t i = 0; i < mask.size(); ++i)
      if (mask[i]) s |= (1u << i);
    return table[s];
  };
  Vector phi = ExactShapley(v, 5);
  double sum = 0.0;
  for (double p : phi) sum += p;
  EXPECT_NEAR(sum, table[31] - table[0], 1e-9);
}

TEST(Shapley, SampledConvergesToExact) {
  Rng seed_rng(5);
  Vector table(1u << 6);
  for (double& t : table) t = seed_rng.Uniform(-1, 1);
  CoalitionValue v = [&](const std::vector<bool>& mask) {
    size_t s = 0;
    for (size_t i = 0; i < mask.size(); ++i)
      if (mask[i]) s |= (1u << i);
    return table[s];
  };
  Vector exact = ExactShapley(v, 6);
  Rng rng(6);
  Vector sampled = SampledShapley(v, 6, 3000, &rng);
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(sampled[i], exact[i], 0.05);
}

TEST(Shapley, InstanceExplanationEfficiency) {
  auto f = CreditFixture::Make();
  Dataset background = f.data.Subset({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Vector x = f.data.instance(f.NegativeInstance());
  Rng rng(7);
  Vector phi = ShapExplainInstance(f.model, background, x, 200, &rng);
  double base = 0.0;
  for (size_t b = 0; b < background.size(); ++b)
    base += f.model.PredictProba(background.instance(b));
  base /= static_cast<double>(background.size());
  double sum = 0.0;
  for (double p : phi) sum += p;
  EXPECT_NEAR(sum, f.model.PredictProba(x) - base, 1e-9);
}

// --- importance / PDP ---

TEST(Importance, IrrelevantFeatureScoresLow) {
  // Model depends only on feature 0.
  Dataset d = CreditGen().Generate(800, 8);
  LogisticRegression lr;
  Vector w(d.num_features(), 0.0);
  w[2] = 2.0;  // income only
  lr.SetParameters(w, -10.0);
  Rng rng(9);
  Vector imp = PermutationImportance(lr, d, 3, &rng);
  for (size_t c = 0; c < d.num_features(); ++c) {
    if (c == 2) continue;
    EXPECT_LE(std::fabs(imp[c]), std::fabs(imp[2]) + 1e-9);
  }
}

TEST(Importance, PdpMonotoneForMonotoneModel) {
  Dataset d = CreditGen().Generate(400, 10);
  LogisticRegression lr;
  Vector w(d.num_features(), 0.0);
  w[2] = 1.0;
  lr.SetParameters(w, -6.0);
  auto pd = ComputePartialDependence(lr, d, 2, 10);
  ASSERT_EQ(pd.grid_values.size(), 10u);
  for (size_t g = 1; g < 10; ++g)
    EXPECT_GE(pd.mean_predictions[g], pd.mean_predictions[g - 1] - 1e-12);
}

// --- surrogates ---

TEST(Surrogate, LocalRecoversLinearModelDirection) {
  auto f = CreditFixture::Make();
  Rng rng(11);
  const Vector x = f.data.instance(5);
  auto s = FitLocalSurrogate(f.model, f.data, x, &rng);
  EXPECT_GT(s.fidelity, 0.5);  // sigmoid curvature caps local-linear R^2
  // Signs of local coefficients should match the global linear model for
  // the highest-weight feature.
  size_t top = 0;
  for (size_t c = 1; c < f.model.weights().size(); ++c)
    if (std::fabs(f.model.weights()[c]) >
        std::fabs(f.model.weights()[top]))
      top = c;
  EXPECT_GT(s.coefficients[top] * f.model.weights()[top], 0.0);
}

TEST(Surrogate, GlobalFidelityHighOnTreeFriendlyModel) {
  auto f = CreditFixture::Make();
  auto g = FitGlobalSurrogate(f.model, f.data, 5);
  EXPECT_GT(g.fidelity, 0.85);
}

// --- rules ---

TEST(Rules, ExtractedRulesPartitionData) {
  auto f = CreditFixture::Make();
  DecisionTree tree;
  DecisionTreeOptions opts;
  opts.max_depth = 4;
  ASSERT_TRUE(tree.Fit(f.data, opts).ok());
  auto rules = RulesFromTree(tree);
  ASSERT_FALSE(rules.empty());
  // Every instance matches exactly one rule, and the rule's prediction
  // equals the tree's.
  for (size_t i = 0; i < 100; ++i) {
    const Vector x = f.data.instance(i);
    size_t matches = 0;
    for (const auto& rule : rules) {
      if (rule.Matches(x)) {
        ++matches;
        EXPECT_NEAR(rule.prediction, tree.PredictProba(x), 1e-12);
      }
    }
    EXPECT_EQ(matches, 1u);
  }
  // Supports sum to 1.
  double support = 0.0;
  for (const auto& r : rules) support += r.support;
  EXPECT_NEAR(support, 1.0, 1e-9);
}

TEST(Rules, CoverageMatchesManualCount) {
  Schema schema({FeatureSpec{"a"}}, -1);
  Dataset d(schema, Matrix::FromRows({{1.0}, {2.0}, {3.0}, {4.0}}),
            {0, 0, 1, 1}, {0, 0, 0, 0});
  Rule rule;
  rule.conditions.push_back({0, Condition::Op::kGt, 2.5});
  EXPECT_DOUBLE_EQ(RuleCoverage(rule, d), 0.5);
  EXPECT_FALSE(rule.ToString(schema).empty());
}

// --- influence ---

TEST(Influence, TracksLeaveOneOutRetraining) {
  // Small dataset and converged Newton fits, so leave-one-out retraining
  // deltas are signal, not optimizer noise.
  Dataset d = CreditGen().Generate(250, 40);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(d).ok());
  auto analyzer = InfluenceAnalyzer::Create(model, d);
  ASSERT_TRUE(analyzer.ok());

  const Vector x_test = d.instance(0);
  Vector predicted, actual;
  for (size_t i = 0; i < 25; ++i) {
    predicted.push_back(analyzer->InfluenceOnPrediction(x_test, i));
    std::vector<size_t> keep;
    for (size_t j = 0; j < d.size(); ++j)
      if (j != i) keep.push_back(j);
    LogisticRegression retrained;
    ASSERT_TRUE(retrained.Fit(d.Subset(keep)).ok());
    actual.push_back(retrained.PredictProba(x_test) -
                     model.PredictProba(x_test));
  }
  EXPECT_GT(PearsonCorrelation(predicted, actual), 0.8)
      << "influence approximation should track retraining deltas";
}

TEST(Influence, ParityInfluenceVectorHasTrainingSize) {
  auto f = CreditFixture::Make();
  auto analyzer = InfluenceAnalyzer::Create(f.model, f.data);
  ASSERT_TRUE(analyzer.ok());
  Vector infl = analyzer->InfluenceOnParityGap(f.data);
  EXPECT_EQ(infl.size(), f.data.size());
  // Not identically zero on a biased dataset.
  EXPECT_GT(Norm2(infl), 0.0);
}

// --- prototypes ---

TEST(Prototypes, ReturnsRequestedCountFromCorrectClass) {
  auto f = CreditFixture::Make();
  Rng rng(12);
  auto protos = ClassPrototypes(f.data, 1, 3, &rng);
  EXPECT_EQ(protos.size(), 3u);
  for (size_t i : protos) EXPECT_EQ(f.data.label(i), 1);
}

TEST(Prototypes, NeighborExplanationFindsBothClasses) {
  auto f = CreditFixture::Make();
  const Vector x = f.data.instance(7);
  auto ne = ExplainByNeighbors(f.data, x, 1);
  EXPECT_EQ(f.data.label(ne.same_label_index), 1);
  EXPECT_EQ(f.data.label(ne.other_label_index), 0);
  EXPECT_GE(ne.same_label_distance, 0.0);
  EXPECT_GE(ne.other_label_distance, 0.0);
}

}  // namespace
}  // namespace xfair
