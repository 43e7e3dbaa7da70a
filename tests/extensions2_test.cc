// Tests for the second extension wave: schema inference from CSV, the
// gradient-boosted model, the education world, counterfactually fair
// training via causal feature selection, and random-SCM round-trip
// properties.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "src/data/csv.h"
#include "src/data/generators.h"
#include "src/fairness/individual_metrics.h"
#include "src/model/gbm.h"
#include "src/model/metrics.h"
#include "src/mitigate/counterfactual_fair.h"

namespace xfair {
namespace {

// --- schema inference ---

TEST(InferSchema, RecoversNamesKindsAndSensitive) {
  Dataset d = CreditGen().Generate(120, 501);
  const std::string path = "/tmp/xfair_infer_test.csv";
  ASSERT_TRUE(WriteCsv(d, path).ok());
  auto schema = InferSchemaFromCsv(path);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  ASSERT_EQ(schema->num_features(), d.num_features());
  for (size_t c = 0; c < d.num_features(); ++c) {
    EXPECT_EQ(schema->feature(c).name, d.schema().feature(c).name);
  }
  // "protected" detected as the immutable sensitive column.
  EXPECT_EQ(schema->sensitive_index(), 0);
  EXPECT_EQ(schema->feature(0).actionability, Actionability::kImmutable);
  EXPECT_EQ(schema->feature(0).kind, FeatureKind::kBinary);
  // Numeric column stays numeric with data-padded bounds.
  EXPECT_EQ(schema->feature(2).kind, FeatureKind::kNumeric);
  Vector income = d.x().Col(2);
  const double lo = *std::min_element(income.begin(), income.end());
  EXPECT_LE(schema->feature(2).lower, lo);
  // The inferred schema round-trips through ReadCsv.
  auto reread = ReadCsv(*schema, path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->size(), d.size());
  std::remove(path.c_str());
}

TEST(InferSchema, RejectsBadHeader) {
  const std::string path = "/tmp/xfair_infer_bad.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("a,b,c\n1,2,3\n", f);  // No label,group suffix.
    fclose(f);
  }
  auto schema = InferSchemaFromCsv(path);
  EXPECT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kInvalidArgument);
  // ReadCsv holds the same contract, even when the width fits the schema.
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("s,a,y,g\n1,2,1,0\n", f);
    fclose(f);
  }
  std::vector<FeatureSpec> two(2);
  two[0].name = "s";
  two[1].name = "a";
  for (const Status& st : {InferSchemaFromCsv(path).status(),
                           ReadCsv(Schema(two, -1), path).status()}) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("header must end with 'label,group' at line 1"),
              std::string::npos)
        << st.message();
  }
  std::remove(path.c_str());
  EXPECT_FALSE(InferSchemaFromCsv("/tmp/definitely_absent.csv").ok());
}

TEST(InferSchema, RejectsBoundsThatOverflow) {
  // Finite cells whose padded bounds are not: the first column's range
  // overflows (lower -inf, upper +inf), the second's upper bound does.
  const std::string path = "/tmp/xfair_infer_overflow.csv";
  for (const char* body : {"x,label,group\n-1e308,0,1\n1e308,1,0\n",
                           "x,label,group\n0,0,1\n1.7e308,1,0\n"}) {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(body, f);
    fclose(f);
    const Result<Schema> schema = InferSchemaFromCsv(path);
    ASSERT_FALSE(schema.ok()) << body;
    EXPECT_EQ(schema.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(schema.status().message().find("column 'x'"),
              std::string::npos)
        << schema.status().message();
    EXPECT_NE(schema.status().message().find(path), std::string::npos)
        << schema.status().message();
  }
  std::remove(path.c_str());
}

// --- gradient boosting ---

TEST(Gbm, BeatsLogisticOnNonlinearData) {
  // XOR-ish data: boosting should crack it, the linear model cannot.
  Rng rng(502);
  std::vector<Vector> rows;
  std::vector<int> labels, groups;
  for (size_t i = 0; i < 700; ++i) {
    const double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    rows.push_back({a, b});
    labels.push_back((a > 0) != (b > 0) ? 1 : 0);
    groups.push_back(0);
  }
  Schema schema({FeatureSpec{"x0"}, FeatureSpec{"x1"}}, -1);
  Dataset d(schema, Matrix::FromRows(rows), labels, groups);
  GradientBoostedTrees gbm;
  ASSERT_TRUE(gbm.Fit(d).ok());
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(d).ok());
  EXPECT_GT(Accuracy(gbm, d), 0.9);
  EXPECT_GT(Accuracy(gbm, d), Accuracy(lr, d) + 0.2);
}

TEST(Gbm, CalibratedProbabilitiesOnCredit) {
  Dataset d = CreditGen().Generate(1200, 503);
  Rng rng(504);
  auto [train, test] = d.Split(0.7, &rng);
  GradientBoostedTrees gbm;
  ASSERT_TRUE(gbm.Fit(train).ok());
  EXPECT_GT(Auc(gbm, test), 0.75);
  EXPECT_LT(ExpectedCalibrationError(gbm, test), 0.15);
  for (size_t i = 0; i < 20; ++i) {
    const double p = gbm.PredictProba(test.instance(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(Gbm, RejectsEmptyAndZeroRounds) {
  GradientBoostedTrees gbm;
  Schema schema({FeatureSpec{"x"}}, -1);
  Dataset empty(schema, Matrix(0, 1), {}, {});
  EXPECT_FALSE(gbm.Fit(empty).ok());
  Dataset d = CreditGen().Generate(50, 505);
  GbmOptions opts;
  opts.num_rounds = 0;
  EXPECT_FALSE(gbm.Fit(d, opts).ok());
}

TEST(Gbm, MoreRoundsDoNotHurtTrainingFit) {
  Dataset d = CreditGen().Generate(500, 506);
  GbmOptions few;
  few.num_rounds = 5;
  GbmOptions many;
  many.num_rounds = 60;
  GradientBoostedTrees small, large;
  ASSERT_TRUE(small.Fit(d, few).ok());
  ASSERT_TRUE(large.Fit(d, many).ok());
  EXPECT_GE(Accuracy(large, d) + 0.01, Accuracy(small, d));
  EXPECT_EQ(large.num_trees(), 60u);
}

// --- education world + counterfactually fair training ---

TEST(EducationWorld, EducationIsNotADescendantOfS) {
  CausalWorld world = MakeEducationWorld(1.0);
  auto edu = world.scm.dag().IndexOf("education");
  ASSERT_TRUE(edu.ok());
  const auto descendants = world.scm.dag().Descendants(world.sensitive);
  for (size_t node : descendants) EXPECT_NE(node, *edu);
  // And flipping S leaves education untouched in the counterfactual.
  Rng rng(507);
  const Vector x = world.scm.SampleDo({{world.sensitive, 1.0}}, &rng);
  const Vector cf = world.scm.Counterfactual(x, {{world.sensitive, 0.0}});
  EXPECT_NEAR(cf[*edu], x[*edu], 1e-12);
}

TEST(CounterfactualFairTraining, GapVanishesForSubsetModel) {
  CausalWorld world = MakeEducationWorld(1.0);
  Dataset data = world.GenerateDataset(1500, 508);
  // Baseline model using everything is counterfactually unfair.
  LogisticRegression baseline;
  ASSERT_TRUE(baseline.Fit(data).ok());
  const double gap_base =
      CounterfactualFairnessGap(baseline, world, 600, 509);
  // Causal feature selection: only education survives.
  auto fair = TrainCounterfactuallyFairModel(world, data);
  ASSERT_TRUE(fair.ok()) << fair.status().ToString();
  auto edu = world.scm.dag().IndexOf("education");
  ASSERT_TRUE(edu.ok());
  EXPECT_EQ(fair->columns(), std::vector<size_t>{*edu});
  const double gap_fair = CounterfactualFairnessGap(*fair, world, 600, 509);
  EXPECT_GT(gap_base, 0.05);
  EXPECT_NEAR(gap_fair, 0.0, 1e-9)
      << "non-descendant-only model must be exactly CF-fair";
  // It still predicts better than chance (education carries signal).
  EXPECT_GT(Auc(*fair, data), 0.55);
}

TEST(CounterfactualFairTraining, FailsWhenEverythingIsDownstream) {
  CausalWorld world = MakeCreditWorld(1.0);  // No non-descendants.
  Dataset data = world.GenerateDataset(300, 510);
  auto fair = TrainCounterfactuallyFairModel(world, data);
  EXPECT_FALSE(fair.ok());
  EXPECT_EQ(fair.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CounterfactualFairTraining, RejectsMisalignedData) {
  CausalWorld world = MakeEducationWorld(1.0);
  Dataset wrong = CreditGen().Generate(100, 511);  // 8 columns != 5 nodes.
  EXPECT_FALSE(TrainCounterfactuallyFairModel(world, wrong).ok());
}

// --- random-SCM round-trip property ---

class RandomScmTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomScmTest, AbductionCounterfactualRoundTrip) {
  Rng rng(GetParam());
  // Random DAG over 6 nodes: edge i -> j (i < j) with probability 0.4.
  Dag dag;
  const size_t n = 6;
  for (size_t i = 0; i < n; ++i) dag.AddNode("v" + std::to_string(i));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.4)) {
        ASSERT_TRUE(dag.AddEdge(i, j).ok());
      }
    }
  }
  Scm scm(dag);
  for (size_t i = 0; i < n; ++i) {
    Vector w(dag.parents(i).size());
    for (double& v : w) v = rng.Uniform(-1.5, 1.5);
    scm.SetEquation(i, std::move(w), rng.Uniform(-2, 2),
                    rng.Uniform(0.1, 1.0));
  }
  const Vector x = scm.Sample(&rng);
  // Identity counterfactual.
  const Vector same = scm.Counterfactual(x, {});
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(same[i], x[i], 1e-9);
  // Intervening on a node then restoring its factual value is also the
  // identity (the intervention equals what the mechanism produced).
  const size_t node = rng.Below(n);
  const Vector restored = scm.Counterfactual(x, {{node, x[node]}});
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(restored[i], x[i], 1e-9);
  // Interventions only move descendants.
  const Vector shifted = scm.Counterfactual(x, {{node, x[node] + 1.0}});
  const auto descendants = dag.Descendants(node);
  for (size_t i = 0; i < n; ++i) {
    if (i == node) continue;
    const bool is_descendant =
        std::find(descendants.begin(), descendants.end(), i) !=
        descendants.end();
    if (!is_descendant) {
      EXPECT_NEAR(shifted[i], x[i], 1e-9) << "non-descendant " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScmTest,
                         ::testing::Values(601u, 602u, 603u, 604u, 605u));

}  // namespace
}  // namespace xfair
