// Tests for src/fairness: group metrics against hand-computable fixtures,
// individual-fairness metrics, counterfactual fairness, ranking metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/causal/worlds.h"
#include "src/data/generators.h"
#include "src/fairness/group_metrics.h"
#include "src/fairness/individual_metrics.h"
#include "src/fairness/ranking_metrics.h"
#include "src/model/logistic_regression.h"

namespace xfair {
namespace {

/// A fixed "model" that predicts from a lookup of the first feature value,
/// letting us construct exact confusion tables.
class LookupModel final : public Model {
 public:
  double PredictProba(const Vector& x) const override {
    return x[0] >= 0.5 ? 0.9 : 0.1;
  }
  std::string name() const override { return "lookup"; }
};

/// Builds a dataset where feature 0 *is* the model's decision, so group
/// rates are exactly controlled: `pos1` of group-1 rows decided favorably
/// out of n1, similarly for group 0.
Dataset ControlledData(size_t n1, size_t pos1, size_t n0, size_t pos0) {
  std::vector<Vector> rows;
  std::vector<int> labels, groups;
  for (size_t i = 0; i < n1; ++i) {
    rows.push_back({i < pos1 ? 1.0 : 0.0});
    labels.push_back(1);  // Everyone truly deserves the favorable label.
    groups.push_back(1);
  }
  for (size_t i = 0; i < n0; ++i) {
    rows.push_back({i < pos0 ? 1.0 : 0.0});
    labels.push_back(1);
    groups.push_back(0);
  }
  Schema schema({FeatureSpec{"decision", FeatureKind::kBinary}}, -1);
  return Dataset(schema, Matrix::FromRows(rows), labels, groups);
}

TEST(GroupMetrics, StatisticalParityExactValue) {
  // Group1: 2/10 favorable; group0: 6/10.
  Dataset d = ControlledData(10, 2, 10, 6);
  LookupModel m;
  EXPECT_NEAR(StatisticalParityDifference(m, d), 0.4, 1e-12);
  EXPECT_NEAR(EvaluateGroupFairness(m, d).disparate_impact_ratio, 2.0 / 6.0,
              1e-12);
}

TEST(GroupMetrics, ParityZeroWhenEqual) {
  Dataset d = ControlledData(10, 5, 10, 5);
  LookupModel m;
  EXPECT_NEAR(StatisticalParityDifference(m, d), 0.0, 1e-12);
  EXPECT_NEAR(EvaluateGroupFairness(m, d).disparate_impact_ratio, 1.0, 1e-12);
}

TEST(GroupMetrics, EqualOpportunityUsesTruePositivesOnly) {
  // All labels are 1, so TPR == positive rate here.
  Dataset d = ControlledData(8, 2, 8, 6);
  LookupModel m;
  const GroupFairnessReport r = EvaluateGroupFairness(m, d);
  EXPECT_NEAR(r.equal_opportunity_difference, 0.5, 1e-12);
  EXPECT_NEAR(r.equalized_odds_difference, 0.5, 1e-12);
}

TEST(GroupMetrics, ReportIsConsistentWithIndividualMetrics) {
  CreditGen gen;
  Dataset d = gen.Generate(1500, 21);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(d).ok());
  GroupFairnessReport r = EvaluateGroupFairness(lr, d);
  EXPECT_EQ(r.statistical_parity_difference,
            StatisticalParityDifference(lr, d));
  EXPECT_EQ(r.accuracy, Accuracy(lr, d));
  EXPECT_FALSE(r.single_group);
  EXPECT_EQ(r.protected_group.total(), d.GroupIndices(1).size());
  // Each group's confusion and calibration error are the unconditioned
  // metrics of that group's rows alone.
  const Dataset g1 = d.Subset(d.GroupIndices(1));
  const Dataset g0 = d.Subset(d.GroupIndices(0));
  const Confusion c1 = EvaluateConfusion(lr, g1);
  const Confusion c0 = EvaluateConfusion(lr, g0);
  EXPECT_EQ(r.protected_group.tp, c1.tp);
  EXPECT_EQ(r.protected_group.fp, c1.fp);
  EXPECT_EQ(r.protected_group.tn, c1.tn);
  EXPECT_EQ(r.protected_group.fn, c1.fn);
  EXPECT_EQ(r.non_protected_group.tp, c0.tp);
  EXPECT_EQ(r.non_protected_group.fp, c0.fp);
  EXPECT_EQ(r.non_protected_group.tn, c0.tn);
  EXPECT_EQ(r.non_protected_group.fn, c0.fn);
  EXPECT_EQ(r.equal_opportunity_difference, c0.tpr() - c1.tpr());
  EXPECT_EQ(r.equalized_odds_difference,
            std::max(std::fabs(c0.tpr() - c1.tpr()),
                     std::fabs(c0.fpr() - c1.fpr())));
  EXPECT_EQ(r.predictive_parity_difference, c0.precision() - c1.precision());
  EXPECT_EQ(r.calibration_gap,
            std::fabs(ExpectedCalibrationError(lr, g1) -
                      ExpectedCalibrationError(lr, g0)));
  EXPECT_FALSE(r.ToString().empty());
}

TEST(GroupMetrics, BiasedGeneratorYieldsPositiveParityGap) {
  BiasConfig biased;
  biased.score_shift = 1.0;
  CreditGen gen(biased);
  Dataset d = gen.Generate(3000, 22);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(d).ok());
  // The model trained on planted-bias data disadvantages G+.
  EXPECT_GT(StatisticalParityDifference(lr, d), 0.15);
  // Fails the 80% rule.
  EXPECT_LT(EvaluateGroupFairness(lr, d).disparate_impact_ratio, 0.8);
}

TEST(IndividualMetrics, LipschitzZeroForConstantModel) {
  Dataset d = CreditGen().Generate(200, 23);
  LogisticRegression flat;
  flat.SetParameters(Vector(d.num_features(), 0.0), 0.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(LipschitzViolationRate(flat, d, 0.01, 500, &rng), 0.0);
}

TEST(IndividualMetrics, LipschitzDetectsSteepModel) {
  Dataset d = CreditGen().Generate(200, 24);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(d).ok());
  Rng rng(2);
  // With an absurdly small Lipschitz constant almost any non-constant
  // model violates.
  EXPECT_GT(LipschitzViolationRate(lr, d, 1e-6, 500, &rng), 0.1);
}

TEST(IndividualMetrics, KnnConsistencyHighForSmoothModel) {
  Dataset d = CreditGen().Generate(400, 25);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(d).ok());
  EXPECT_GT(KnnConsistency(lr, d, 5), 0.6);
}

TEST(IndividualMetrics, CounterfactualFairnessGapDetectsDirectUse) {
  CausalWorld world = MakeCreditWorld(1.0);
  // A model that directly uses S is counterfactually unfair.
  LogisticRegression direct;
  direct.SetParameters({5.0, 0.0, 0.0, 0.0, 0.0}, -2.5);
  const double gap_direct = CounterfactualFairnessGap(direct, world, 500, 3);
  // A model using only zip_risk (proxy) is *also* unfair because zip
  // responds to the S intervention.
  LogisticRegression proxy;
  proxy.SetParameters({0.0, 0.0, 0.0, 0.0, 1.5}, -6.0);
  const double gap_proxy = CounterfactualFairnessGap(proxy, world, 500, 3);
  // A model using only exogenous noise-free-of-S features would be fair;
  // here debt depends on income which depends on S, so use a constant.
  LogisticRegression constant;
  constant.SetParameters({0.0, 0.0, 0.0, 0.0, 0.0}, 0.3);
  const double gap_const = CounterfactualFairnessGap(constant, world, 500, 3);
  EXPECT_GT(gap_direct, 0.5);
  EXPECT_GT(gap_proxy, 0.1);
  EXPECT_NEAR(gap_const, 0.0, 1e-12);
}

TEST(RankingMetrics, PositionBiasDecreases) {
  EXPECT_DOUBLE_EQ(PositionBias(0), 1.0);
  EXPECT_GT(PositionBias(1), PositionBias(2));
  EXPECT_GT(PositionBias(5), PositionBias(50));
}

TEST(RankingMetrics, ExposureShareAllOneGroup) {
  std::vector<size_t> ranking = {0, 1, 2};
  std::vector<int> groups = {1, 1, 1};
  EXPECT_DOUBLE_EQ(*ExposureShare(ranking, groups), 1.0);
  std::vector<int> none = {0, 0, 0};
  EXPECT_DOUBLE_EQ(*ExposureShare(ranking, none), 0.0);
}

TEST(RankingMetrics, ExposureGapNegativeWhenProtectedAtBottom) {
  // 6 items, protected items ranked last.
  std::vector<size_t> ranking = {0, 1, 2, 3, 4, 5};
  std::vector<int> groups = {0, 0, 0, 1, 1, 1};
  EXPECT_LT(*ExposureGap(ranking, groups), -0.05);
  // Alternating ranking is nearly proportional.
  std::vector<size_t> alt = {3, 0, 4, 1, 5, 2};
  EXPECT_NEAR(*ExposureGap(alt, groups), 0.0, 0.12);
}

TEST(RankingMetrics, FairPrefixPValueFlagsBottomStacking) {
  std::vector<int> groups(20);
  for (int i = 0; i < 20; ++i) groups[i] = i >= 10 ? 1 : 0;
  // Protected items occupy exactly the bottom half.
  std::vector<size_t> bad(20);
  std::iota(bad.begin(), bad.end(), 0);
  const double p_bad = *FairPrefixPValue(bad, groups);
  // Perfectly interleaved ranking.
  std::vector<size_t> good;
  for (int i = 0; i < 10; ++i) {
    good.push_back(static_cast<size_t>(10 + i));
    good.push_back(static_cast<size_t>(i));
  }
  const double p_good = *FairPrefixPValue(good, groups);
  EXPECT_LT(p_bad, 0.01);
  EXPECT_GT(p_good, 0.2);
}

TEST(RankingMetrics, FairPrefixPValueDegenerateCases) {
  EXPECT_DOUBLE_EQ(*FairPrefixPValue({}, {}), 1.0);
  std::vector<int> all_one = {1, 1};
  EXPECT_DOUBLE_EQ(*FairPrefixPValue({0, 1}, all_one), 1.0);
}

TEST(RankingMetrics, EmptyRankingSentinels) {
  const std::vector<size_t> empty;
  const std::vector<int> groups = {0, 1};
  EXPECT_DOUBLE_EQ(*ExposureShare(empty, groups), 0.0);
  EXPECT_DOUBLE_EQ(*ExposureGap(empty, groups), 0.0);
  EXPECT_DOUBLE_EQ(*FairPrefixPValue(empty, groups), 1.0);
}

TEST(RankingMetrics, OutOfRangeItemIsInvalidArgument) {
  // An external ranking referencing an item the group table doesn't know
  // used to abort the process via XFAIR_CHECK; it must surface as a
  // Status naming the offending rank instead.
  const std::vector<size_t> ranking = {0, 5, 1};
  const std::vector<int> groups = {0, 1};
  for (const auto& r :
       {ExposureShare(ranking, groups), ExposureGap(ranking, groups),
        FairPrefixPValue(ranking, groups)}) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("rank 1"), std::string::npos)
        << r.status().message();
  }
}

TEST(GroupMetrics, SingleGroupDatasetUsesFairSentinels) {
  // Every row is group 0 with a 60% favorable rate. There is no second
  // group to compare against, so each metric reports its "fair" value
  // instead of comparing against an absent group's vacuous zero rate.
  Dataset d = ControlledData(0, 0, 10, 6);
  LookupModel m;
  EXPECT_DOUBLE_EQ(StatisticalParityDifference(m, d), 0.0);

  const GroupFairnessReport report = EvaluateGroupFairness(m, d);
  EXPECT_TRUE(report.single_group);
  EXPECT_DOUBLE_EQ(report.statistical_parity_difference, 0.0);
  EXPECT_DOUBLE_EQ(report.disparate_impact_ratio, 1.0);
  EXPECT_FALSE(report.disparate_impact_defined);
  EXPECT_DOUBLE_EQ(report.equal_opportunity_difference, 0.0);
  EXPECT_DOUBLE_EQ(report.equalized_odds_difference, 0.0);
  EXPECT_DOUBLE_EQ(report.predictive_parity_difference, 0.0);
  EXPECT_DOUBLE_EQ(report.calibration_gap, 0.0);
  EXPECT_NEAR(report.accuracy, 0.6, 1e-12);
}

TEST(GroupMetrics, DisparateImpactIsDefinedIffTheUnprotectedGroupIsFavored) {
  LookupModel m;
  // rate(G+) / rate(G-) = 0.4 / 0.8.
  GroupFairnessReport r =
      EvaluateGroupFairness(m, ControlledData(10, 4, 10, 8));
  EXPECT_TRUE(r.disparate_impact_defined);
  EXPECT_DOUBLE_EQ(r.disparate_impact_ratio, 0.5);
  // G+ never favored: a real ratio of 0, not a sentinel.
  r = EvaluateGroupFairness(m, ControlledData(10, 0, 10, 5));
  EXPECT_TRUE(r.disparate_impact_defined);
  EXPECT_DOUBLE_EQ(r.disparate_impact_ratio, 0.0);
  // G- never favored (with and without G+ favored): zero denominator, so
  // the ratio keeps its sentinel 1 and the flag says it is one.
  for (size_t pos1 : {size_t{5}, size_t{0}}) {
    r = EvaluateGroupFairness(m, ControlledData(10, pos1, 10, 0));
    EXPECT_FALSE(r.single_group);
    EXPECT_FALSE(r.disparate_impact_defined) << "pos1 " << pos1;
    EXPECT_DOUBLE_EQ(r.disparate_impact_ratio, 1.0) << "pos1 " << pos1;
  }
}

TEST(GroupMetrics, ToStringPrintsUndefinedDisparateImpactInsteadOfSentinel) {
  LookupModel m;
  const auto ratio_row = [](const GroupFairnessReport& r) {
    const std::string text = r.ToString();
    const size_t at = text.find("disparate_impact_ratio");
    EXPECT_NE(at, std::string::npos) << text;
    if (at == std::string::npos) return std::string();
    return text.substr(at, text.find('\n', at) - at);
  };
  const std::string defined =
      ratio_row(EvaluateGroupFairness(m, ControlledData(10, 4, 10, 8)));
  EXPECT_NE(defined.find("0.500"), std::string::npos) << defined;
  EXPECT_EQ(defined.find("undefined"), std::string::npos) << defined;
  for (const Dataset& d :
       {ControlledData(10, 5, 10, 0), ControlledData(0, 0, 10, 6)}) {
    const std::string row = ratio_row(EvaluateGroupFairness(m, d));
    EXPECT_NE(row.find("undefined"), std::string::npos) << row;
    EXPECT_EQ(row.find("1.000"), std::string::npos) << row;
  }
}

}  // namespace
}  // namespace xfair
