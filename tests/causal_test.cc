// Tests for src/causal: DAG invariants, SCM sampling/abduction/
// counterfactuals, OLS fitting, total effects, and the credit world.

#include <gtest/gtest.h>

#include <cmath>

#include "src/causal/worlds.h"
#include "src/util/stats.h"

namespace xfair {
namespace {

Dag ChainDag() {
  Dag dag;
  dag.AddNode("a");
  dag.AddNode("b");
  dag.AddNode("c");
  EXPECT_TRUE(dag.AddEdge(0, 1).ok());
  EXPECT_TRUE(dag.AddEdge(1, 2).ok());
  return dag;
}

TEST(Dag, RejectsCycle) {
  Dag dag = ChainDag();
  Status s = dag.AddEdge(2, 0);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(dag.AddEdge(0, 0).code(), StatusCode::kFailedPrecondition);
}

TEST(Dag, AddEdgeIdempotent) {
  Dag dag = ChainDag();
  EXPECT_TRUE(dag.AddEdge(0, 1).ok());
  EXPECT_EQ(dag.children(0).size(), 1u);
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  Dag dag;
  for (int i = 0; i < 5; ++i)
    dag.AddNode(std::string("n").append(std::to_string(i)));
  ASSERT_TRUE(dag.AddEdge(3, 1).ok());
  ASSERT_TRUE(dag.AddEdge(1, 4).ok());
  ASSERT_TRUE(dag.AddEdge(0, 4).ok());
  ASSERT_TRUE(dag.AddEdge(3, 0).ok());
  auto order = dag.TopologicalOrder();
  std::vector<size_t> pos(5);
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_LT(pos[3], pos[1]);
  EXPECT_LT(pos[1], pos[4]);
  EXPECT_LT(pos[0], pos[4]);
  EXPECT_LT(pos[3], pos[0]);
}

TEST(Dag, AllPathsEnumeratesDiamond) {
  Dag dag;
  for (int i = 0; i < 4; ++i)
    dag.AddNode(std::string("n").append(std::to_string(i)));
  // 0 -> 1 -> 3, 0 -> 2 -> 3, 0 -> 3.
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(0, 2).ok());
  ASSERT_TRUE(dag.AddEdge(1, 3).ok());
  ASSERT_TRUE(dag.AddEdge(2, 3).ok());
  ASSERT_TRUE(dag.AddEdge(0, 3).ok());
  auto paths = dag.AllPaths(0, 3);
  EXPECT_EQ(paths.size(), 3u);
  for (const auto& p : paths) {
    EXPECT_EQ(p.front(), 0u);
    EXPECT_EQ(p.back(), 3u);
  }
}

TEST(Dag, Descendants) {
  Dag dag = ChainDag();
  EXPECT_EQ(dag.Descendants(0), (std::vector<size_t>{1, 2}));
  EXPECT_TRUE(dag.Descendants(2).empty());
}

TEST(Dag, IndexOf) {
  Dag dag = ChainDag();
  auto i = dag.IndexOf("b");
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(*i, 1u);
  EXPECT_FALSE(dag.IndexOf("zzz").ok());
}

Scm ChainScm() {
  // a = 1 + u_a; b = 2a + u_b; c = -b + 0.5 + u_c.
  Scm scm(ChainDag());
  scm.SetEquation(0, {}, 1.0, 0.5);
  scm.SetEquation(1, {2.0}, 0.0, 0.5);
  scm.SetEquation(2, {-1.0}, 0.5, 0.5);
  return scm;
}

TEST(Scm, SampleMeansMatchStructure) {
  Scm scm = ChainScm();
  Rng rng(1);
  RunningStats sa, sb, sc;
  for (int i = 0; i < 20000; ++i) {
    Vector x = scm.Sample(&rng);
    sa.Add(x[0]);
    sb.Add(x[1]);
    sc.Add(x[2]);
  }
  EXPECT_NEAR(sa.mean(), 1.0, 0.03);
  EXPECT_NEAR(sb.mean(), 2.0, 0.05);
  EXPECT_NEAR(sc.mean(), -1.5, 0.05);
}

TEST(Scm, AbductionRecoversNoiseExactly) {
  Scm scm = ChainScm();
  Rng rng(2);
  Vector x = scm.Sample(&rng);
  Vector u = scm.Abduct(x);
  // Re-simulate with the recovered noise: must reproduce x exactly.
  Vector re(3);
  re[0] = 1.0 + u[0];
  re[1] = 2.0 * re[0] + u[1];
  re[2] = -re[1] + 0.5 + u[2];
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(re[i], x[i], 1e-12);
}

TEST(Scm, CounterfactualNoInterventionIsIdentity) {
  Scm scm = ChainScm();
  Rng rng(3);
  Vector x = scm.Sample(&rng);
  Vector cf = scm.Counterfactual(x, {});
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(cf[i], x[i], 1e-12);
}

TEST(Scm, CounterfactualPropagatesDownstreamOnly) {
  Scm scm = ChainScm();
  Rng rng(4);
  Vector x = scm.Sample(&rng);
  Vector cf = scm.Counterfactual(x, {{1, x[1] + 1.0}});
  EXPECT_NEAR(cf[0], x[0], 1e-12);          // Upstream untouched.
  EXPECT_NEAR(cf[1], x[1] + 1.0, 1e-12);    // Forced.
  EXPECT_NEAR(cf[2], x[2] - 1.0, 1e-12);    // c responds with weight -1.
}

TEST(Scm, SampleDoBreaksDependence) {
  Scm scm = ChainScm();
  Rng rng(5);
  RunningStats sb;
  for (int i = 0; i < 5000; ++i) {
    Vector x = scm.SampleDo({{0, 10.0}}, &rng);
    EXPECT_DOUBLE_EQ(x[0], 10.0);
    sb.Add(x[1]);
  }
  EXPECT_NEAR(sb.mean(), 20.0, 0.1);
}

TEST(Scm, TotalEffectClosedForm) {
  Scm scm = ChainScm();
  // Effect of a: +1 on c is 2 * (-1) = -2.
  EXPECT_NEAR(scm.TotalEffect(0, 2, 0.0, 1.0), -2.0, 1e-12);
  EXPECT_NEAR(scm.TotalEffect(0, 1, 0.0, 1.0), 2.0, 1e-12);
  EXPECT_NEAR(scm.TotalEffect(2, 0, 0.0, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(scm.TotalEffect(1, 1, 0.0, 2.0), 2.0, 1e-12);
}

TEST(Scm, FitFromDataRecoversWeights) {
  Scm truth = ChainScm();
  Rng rng(6);
  Matrix data(3000, 3);
  for (size_t r = 0; r < data.rows(); ++r) data.SetRow(r, truth.Sample(&rng));
  Scm fitted(ChainDag());
  ASSERT_TRUE(fitted.FitFromData(data).ok());
  EXPECT_NEAR(fitted.EdgeWeight(0, 1), 2.0, 0.05);
  EXPECT_NEAR(fitted.EdgeWeight(1, 2), -1.0, 0.05);
  EXPECT_NEAR(fitted.bias(0), 1.0, 0.05);
  EXPECT_NEAR(fitted.noise_std(1), 0.5, 0.05);
}

TEST(Scm, FitRejectsBadShapes) {
  Scm scm(ChainDag());
  EXPECT_EQ(scm.FitFromData(Matrix(10, 2)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(scm.FitFromData(Matrix(2, 3)).code(),
            StatusCode::kInvalidArgument);
}

TEST(CreditWorld, DisparityShowsUpInIncome) {
  CausalWorld world = MakeCreditWorld(1.0);
  Dataset d = world.GenerateDataset(6000, 7);
  Vector income_g0, income_g1;
  auto idx = world.scm.dag().IndexOf("income");
  ASSERT_TRUE(idx.ok());
  for (size_t i = 0; i < d.size(); ++i) {
    (d.group(i) == 1 ? income_g1 : income_g0)
        .push_back(d.x().At(i, *idx));
  }
  EXPECT_NEAR(Mean(income_g0) - Mean(income_g1), 1.0, 0.1);
}

TEST(CreditWorld, ZeroDisparityEqualizesGroups) {
  CausalWorld world = MakeCreditWorld(0.0);
  Dataset d = world.GenerateDataset(6000, 8);
  EXPECT_LT(std::fabs(d.BaseRate(0) - d.BaseRate(1)), 0.05);
}

TEST(CreditWorld, SensitiveInterventionMovesIncomeNotZipNoise) {
  CausalWorld world = MakeCreditWorld(1.0);
  Rng rng(9);
  Vector x = world.scm.SampleDo({{world.sensitive, 1.0}}, &rng);
  Vector cf = world.scm.Counterfactual(x, {{world.sensitive, 0.0}});
  auto income = world.scm.dag().IndexOf("income");
  auto zip = world.scm.dag().IndexOf("zip_risk");
  ASSERT_TRUE(income.ok() && zip.ok());
  EXPECT_NEAR(cf[*income] - x[*income], 1.0, 1e-9);   // -(-1.0) * (0-1)
  EXPECT_NEAR(cf[*zip] - x[*zip], -3.0, 1e-9);        // 3.0 * (0-1)
}

}  // namespace
}  // namespace xfair
