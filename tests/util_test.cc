// Tests for src/util: Status/Result, Rng, Matrix, stats, table rendering.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/util/hash.h"
#include "src/util/matrix.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/status.h"
#include "src/util/table.h"

namespace xfair {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, OkStatusIsNormalizedToInternal) {
  Result<int> r{Status::OK()};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.Below(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.Add(rng.Normal());
  EXPECT_NEAR(rs.mean(), 0.0, 0.05);
  EXPECT_NEAR(rs.stddev(), 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(19);
  auto s = rng.SampleWithoutReplacement(50, 20);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (size_t v : s) EXPECT_LT(v, 50u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Fnv1a, MatchesPublishedVectorsAndChains) {
  // The dataset fingerprint and every counterfactual row stream are keyed
  // on this hash, so its values are pinned to the published FNV-1a test
  // vectors.
  EXPECT_EQ(Fnv1a(kFnv1aBasis, "", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a(kFnv1aBasis, "a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a(kFnv1aBasis, "foobar", 6), 0x85944171f73967e8ULL);
  EXPECT_EQ(Fnv1a(Fnv1a(kFnv1aBasis, "foo", 3), "bar", 3),
            Fnv1a(kFnv1aBasis, "foobar", 6));
}

TEST(Matrix, IdentityMatVec) {
  Matrix id = Matrix::Identity(3);
  Vector v = {1.0, 2.0, 3.0};
  EXPECT_EQ(id.MatVec(v), v);
}

TEST(Matrix, FromRowsAndAccess) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 6.0);
  EXPECT_EQ(m.Row(0), Vector({1, 2, 3}));
  EXPECT_EQ(m.Col(1), Vector({2, 5}));
}

TEST(Matrix, TransposeMatVecMatchesTransposedCopy) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Vector v = {1.0, -1.0, 2.0};
  EXPECT_EQ(m.TransposeMatVec(v), m.Transposed().MatVec(v));
}

TEST(Matrix, MatMul) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 50.0);
}

TEST(Matrix, SolveLinearSystem) {
  Matrix a = Matrix::FromRows({{2, 1}, {1, 3}});
  auto x = SolveLinearSystem(a, {5, 10});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-9);
  EXPECT_NEAR((*x)[1], 3.0, 1e-9);
}

TEST(Matrix, SolveSingularFails) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 4}});
  auto x = SolveLinearSystem(a, {1, 2});
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Matrix, InvertRoundTrip) {
  Matrix a = Matrix::FromRows({{4, 7}, {2, 6}});
  auto inv = Invert(a);
  ASSERT_TRUE(inv.ok());
  Matrix prod = a.MatMul(*inv);
  for (size_t i = 0; i < 2; ++i)
    for (size_t j = 0; j < 2; ++j)
      EXPECT_NEAR(prod.At(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(VectorOps, NormsAndArithmetic) {
  Vector a = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(Norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(Norm1(a), 7.0);
  EXPECT_EQ(NonZeroCount({0.0, 1e-15, 2.0}), 1u);
  EXPECT_EQ(Sub({5, 5}, {2, 3}), Vector({3, 2}));
  EXPECT_EQ(Add({1, 2}, {3, 4}), Vector({4, 6}));
  EXPECT_EQ(Scale(2.0, {1, -2}), Vector({2, -4}));
  Vector y = {1.0, 1.0};
  Axpy(2.0, {1.0, 2.0}, &y);
  EXPECT_EQ(y, Vector({3.0, 5.0}));
}

TEST(Stats, MeanVarianceQuantile) {
  Vector v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(v), 3.0);
  EXPECT_DOUBLE_EQ(Variance(v), 2.5);
  EXPECT_DOUBLE_EQ(Median(v), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.0);
}

TEST(Stats, QuantileEmptyIsNaNSentinel) {
  // Empty slices happen whenever a caller conditions on a group that is
  // absent; the documented sentinel is quiet NaN, not an abort.
  EXPECT_TRUE(std::isnan(Quantile({}, 0.0)));
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
  EXPECT_TRUE(std::isnan(Quantile({}, 1.0)));
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(Stats, QuantileSingleElementIsThatElement) {
  EXPECT_DOUBLE_EQ(Quantile({7.5}, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(Quantile({7.5}, 0.25), 7.5);
  EXPECT_DOUBLE_EQ(Quantile({7.5}, 1.0), 7.5);
  EXPECT_DOUBLE_EQ(Median({7.5}), 7.5);
}

TEST(Stats, PearsonPerfectAndNone) {
  Vector a = {1, 2, 3, 4};
  EXPECT_NEAR(PearsonCorrelation(a, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(a, {8, 6, 4, 2}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, {5, 5, 5, 5}), 0.0);
}

TEST(Stats, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
}

TEST(Stats, LogGammaMatchesFactorials) {
  // Gamma(n) = (n-1)!
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-9);
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-9);
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-9);
}

TEST(Stats, LogChoose) {
  EXPECT_NEAR(LogChoose(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogChoose(10, 0), 0.0, 1e-9);
}

TEST(Stats, BinomialTail) {
  // P(X >= 1), X ~ Bin(2, 0.5) = 3/4.
  EXPECT_NEAR(BinomialTailProb(2, 1, 0.5), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(BinomialTailProb(10, 0, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(BinomialTailProb(10, 11, 0.3), 0.0);
  EXPECT_NEAR(BinomialTailProb(5, 5, 0.5), 1.0 / 32.0, 1e-12);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Vector v = {1.5, 2.5, 0.5, 4.0, -1.0};
  RunningStats rs;
  for (double x : v) rs.Add(x);
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_NEAR(rs.mean(), Mean(v), 1e-12);
  EXPECT_NEAR(rs.variance(), Variance(v), 1e-12);
}

TEST(Table, RendersAligned) {
  AsciiTable t({"name", "v"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name  | v  |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1  |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22 |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
}

}  // namespace
}  // namespace xfair
