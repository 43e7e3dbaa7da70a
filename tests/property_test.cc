// Property-based sweeps: invariants that must hold across generators,
// models, seeds, and parameter grids — run as parameterized gtest suites.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/data/generators.h"
#include "src/explain/counterfactual.h"
#include "src/explain/shap.h"
#include "src/fairness/group_metrics.h"
#include "src/fairness/ranking_metrics.h"
#include "src/mitigate/preprocess.h"
#include "src/model/knn.h"
#include "src/model/logistic_regression.h"
#include "src/model/random_forest.h"
#include "src/unfair/actions.h"
#include "src/unfair/burden.h"

namespace xfair {
namespace {

// ---------------------------------------------------------------------
// Counterfactual feasibility across (generator x model) combinations.
// ---------------------------------------------------------------------

enum class Gen { kCredit, kRecidivism, kIncome };
enum class Mod { kLogistic, kForest, kKnn };

Dataset MakeData(Gen g, size_t n, uint64_t seed) {
  BiasConfig cfg;
  cfg.score_shift = 0.8;
  switch (g) {
    case Gen::kCredit:
      return CreditGen(cfg).Generate(n, seed);
    case Gen::kRecidivism:
      return RecidivismGen(cfg).Generate(n, seed);
    case Gen::kIncome:
      return IncomeGen(cfg).Generate(n, seed);
  }
  XFAIR_CHECK(false);
  return CreditGen().Generate(1, 0);
}

std::unique_ptr<Model> MakeModel(Mod m, const Dataset& data) {
  switch (m) {
    case Mod::kLogistic: {
      auto model = std::make_unique<LogisticRegression>();
      XFAIR_CHECK(model->Fit(data).ok());
      return model;
    }
    case Mod::kForest: {
      auto model = std::make_unique<RandomForest>();
      RandomForestOptions opts;
      opts.num_trees = 12;
      XFAIR_CHECK(model->Fit(data, opts).ok());
      return model;
    }
    case Mod::kKnn: {
      auto model = std::make_unique<KnnClassifier>(7);
      XFAIR_CHECK(model->Fit(data).ok());
      return model;
    }
  }
  XFAIR_CHECK(false);
  return nullptr;
}

class CfFeasibilityTest
    : public ::testing::TestWithParam<std::tuple<Gen, Mod>> {};

TEST_P(CfFeasibilityTest, CounterfactualsAreFeasible) {
  const auto [gen, mod] = GetParam();
  Dataset data = MakeData(gen, 500, 301);
  auto model = MakeModel(mod, data);
  Rng rng(302);
  size_t checked = 0;
  for (size_t i = 0; i < data.size() && checked < 15; ++i) {
    const Vector x = data.instance(i);
    if (model->Predict(x) != 0) continue;
    ++checked;
    auto r =
        GrowingSpheresCounterfactual(*model, data.schema(), x, {}, &rng);
    if (!r.valid) continue;
    // Invariants: predicted class flipped; bounds respected; immutables
    // untouched; directional features moved the allowed way; reported
    // distance/sparsity consistent.
    EXPECT_EQ(model->Predict(r.counterfactual), 1);
    for (size_t c = 0; c < x.size(); ++c) {
      const auto& spec = data.schema().feature(c);
      EXPECT_GE(r.counterfactual[c], spec.lower);
      EXPECT_LE(r.counterfactual[c], spec.upper);
      const double delta = r.counterfactual[c] - x[c];
      switch (spec.actionability) {
        case Actionability::kImmutable:
          EXPECT_DOUBLE_EQ(delta, 0.0) << spec.name;
          break;
        case Actionability::kIncreaseOnly:
          EXPECT_GE(delta, 0.0) << spec.name;
          break;
        case Actionability::kDecreaseOnly:
          EXPECT_LE(delta, 0.0) << spec.name;
          break;
        case Actionability::kAny:
          break;
      }
    }
    EXPECT_NEAR(r.distance,
                NormalizedDistance(data.schema(), x, r.counterfactual),
                1e-12);
    EXPECT_EQ(r.sparsity, NonZeroCount(Sub(r.counterfactual, x), 1e-12));
  }
  EXPECT_GT(checked, 0u) << "fixture produced no negatives";
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, CfFeasibilityTest,
    ::testing::Combine(::testing::Values(Gen::kCredit, Gen::kRecidivism,
                                         Gen::kIncome),
                       ::testing::Values(Mod::kLogistic, Mod::kForest,
                                         Mod::kKnn)));

// ---------------------------------------------------------------------
// Group-metric invariants across generators.
// ---------------------------------------------------------------------

class MetricInvariantTest : public ::testing::TestWithParam<Gen> {};

TEST_P(MetricInvariantTest, RangesAndSymmetry) {
  Dataset data = MakeData(GetParam(), 800, 303);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  const GroupFairnessReport r = EvaluateGroupFairness(model, data);
  const double parity = r.statistical_parity_difference;
  EXPECT_GE(parity, -1.0);
  EXPECT_LE(parity, 1.0);
  EXPECT_GE(r.disparate_impact_ratio, 0.0);
  EXPECT_GE(r.equalized_odds_difference, 0.0);
  EXPECT_LE(r.equalized_odds_difference, 1.0);

  // Swapping group labels negates the signed differences.
  std::vector<int> flipped(data.size());
  for (size_t i = 0; i < data.size(); ++i) flipped[i] = 1 - data.group(i);
  Dataset swapped(data.schema(), data.x(), data.labels(), flipped);
  const GroupFairnessReport rs = EvaluateGroupFairness(model, swapped);
  EXPECT_NEAR(rs.statistical_parity_difference, -parity, 1e-12);
  EXPECT_NEAR(rs.equal_opportunity_difference,
              -r.equal_opportunity_difference, 1e-12);
  // Equalized odds is symmetric in the groups.
  EXPECT_NEAR(rs.equalized_odds_difference, r.equalized_odds_difference,
              1e-12);
}

TEST_P(MetricInvariantTest, ReweighingIndependenceHolds) {
  Dataset data = MakeData(GetParam(), 600, 304);
  Vector w = ReweighingWeights(data);
  double mass[2] = {0, 0}, pos[2] = {0, 0};
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_GT(w[i], 0.0);
    mass[data.group(i)] += w[i];
    pos[data.group(i)] += w[i] * data.label(i);
  }
  EXPECT_NEAR(pos[1] / mass[1], pos[0] / mass[0], 1e-9);
  // Total weight is preserved (reweighing redistributes, not rescales).
  EXPECT_NEAR(mass[0] + mass[1], static_cast<double>(data.size()), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, MetricInvariantTest,
                         ::testing::Values(Gen::kCredit, Gen::kRecidivism,
                                           Gen::kIncome));

// ---------------------------------------------------------------------
// Shapley axioms on random games of varying size.
// ---------------------------------------------------------------------

class ShapleyAxiomTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShapleyAxiomTest, EfficiencySymmetryDummy) {
  const size_t d = GetParam();
  Rng rng(305 + d);
  // Random game built so that: player 0 and 1 are symmetric (value
  // depends on them only via their count), player d-1 is a dummy.
  Vector base(size_t{1} << (d - 1));
  for (double& v : base) v = rng.Uniform(-1, 1);
  CoalitionValue value = [&](const std::vector<bool>& mask) {
    // Collapse players 0,1 into a count and drop the dummy d-1.
    size_t key = 0;
    size_t bit = 0;
    const int count01 = static_cast<int>(mask[0]) + static_cast<int>(mask[1]);
    key |= static_cast<size_t>(count01 > 0);  // Symmetric in 0 and 1.
    ++bit;
    for (size_t i = 2; i + 1 < d; ++i) {
      key |= static_cast<size_t>(mask[i]) << bit;
      ++bit;
    }
    return base[key] + 0.3 * count01;
  };
  Vector phi = ExactShapley(value, d);
  // Efficiency.
  std::vector<bool> none(d, false), all(d, true);
  double sum = 0.0;
  for (double p : phi) sum += p;
  EXPECT_NEAR(sum, value(all) - value(none), 1e-9);
  // Symmetry of players 0 and 1.
  EXPECT_NEAR(phi[0], phi[1], 1e-9);
  // Dummy player gets zero.
  EXPECT_NEAR(phi[d - 1], 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(GameSizes, ShapleyAxiomTest,
                         ::testing::Values(4u, 6u, 8u, 10u));

// ---------------------------------------------------------------------
// Burden invariants across scopes and generators.
// ---------------------------------------------------------------------

class BurdenInvariantTest
    : public ::testing::TestWithParam<std::tuple<Gen, BurdenScope>> {};

TEST_P(BurdenInvariantTest, NonNegativeAndBounded) {
  const auto [gen, scope] = GetParam();
  Dataset data = MakeData(gen, 400, 306);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  Rng rng(307);
  auto report = ComputeBurden(model, data, scope, {}, &rng);
  EXPECT_GE(report.burden_protected, 0.0);
  EXPECT_GE(report.burden_non_protected, 0.0);
  size_t negatives = 0;
  for (size_t i = 0; i < data.size(); ++i)
    negatives += (model.Predict(data.instance(i)) == 0);
  EXPECT_LE(report.counterfactuals_protected +
                report.counterfactuals_non_protected + report.failures,
            negatives);
}

INSTANTIATE_TEST_SUITE_P(
    ScopesAndGenerators, BurdenInvariantTest,
    ::testing::Combine(::testing::Values(Gen::kCredit, Gen::kIncome),
                       ::testing::Values(BurdenScope::kAllNegatives,
                                         BurdenScope::kFalseNegatives)));

// ---------------------------------------------------------------------
// Discretizer / action invariants on random data.
// ---------------------------------------------------------------------

class DiscretizerTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DiscretizerTest, BinsPartitionAndRepresentativesBelong) {
  const size_t bins = GetParam();
  Dataset data = CreditGen().Generate(300, 308);
  Discretizer disc(data, bins);
  for (size_t f = 0; f < data.num_features(); ++f) {
    EXPECT_GE(disc.NumBins(f), 1u);
    EXPECT_LE(disc.NumBins(f), bins);
    for (size_t b = 0; b < disc.NumBins(f); ++b) {
      // A bin's representative falls back into that bin.
      EXPECT_EQ(disc.BinOf(f, disc.Representative(f, b)), b)
          << "feature " << f << " bin " << b;
      EXPECT_FALSE(disc.BinLabel(data.schema(), f, b).empty());
    }
    // Every data value lands in a valid bin.
    for (size_t i = 0; i < 50; ++i) {
      EXPECT_LT(disc.BinOf(f, data.x().At(i, f)), disc.NumBins(f));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BinCounts, DiscretizerTest,
                         ::testing::Values(2u, 3u, 5u, 8u));

TEST(ActionProperties, CostAndApplicability) {
  Dataset data = CreditGen().Generate(200, 309);
  Discretizer disc(data, 3);
  const auto actions = EnumerateActions(data.schema(), disc);
  ASSERT_FALSE(actions.empty());
  const Vector x = data.instance(0);
  for (const auto& a : actions) {
    // Never an action on an immutable feature.
    EXPECT_NE(data.schema().feature(a.feature).actionability,
              Actionability::kImmutable);
    EXPECT_GE(a.Cost(data.schema(), x), 0.0);
    if (a.ApplicableTo(data.schema(), x)) {
      const Vector applied = a.ApplyTo(x);
      EXPECT_DOUBLE_EQ(applied[a.feature], a.target_value);
      // Idempotent.
      EXPECT_EQ(a.ApplyTo(applied), applied);
    }
  }
}

// ---------------------------------------------------------------------
// Ranking metric invariants under permutations.
// ---------------------------------------------------------------------

TEST(RankingProperties, ExposureShareBounds) {
  Rng rng(310);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 5 + rng.Below(20);
    std::vector<size_t> ranking(n);
    std::vector<int> groups(n);
    for (size_t i = 0; i < n; ++i) {
      ranking[i] = i;
      groups[i] = rng.Bernoulli(0.5) ? 1 : 0;
    }
    rng.Shuffle(&ranking);
    const double share = *ExposureShare(ranking, groups);
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, 1.0);
    const double p = *FairPrefixPValue(ranking, groups);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    // Complementary group shares sum to 1.
    std::vector<int> complement(n);
    for (size_t i = 0; i < n; ++i) complement[i] = 1 - groups[i];
    EXPECT_NEAR(share + *ExposureShare(ranking, complement), 1.0, 1e-12);
  }
}

}  // namespace
}  // namespace xfair
