// Tests for the one-call audit report (src/core/report.h) and the
// umbrella header.

#include <gtest/gtest.h>

#include "src/xfair.h"  // Umbrella: must compile and expose everything.
#include "src/core/report.h"

namespace xfair {
namespace {

TEST(AuditReport, ContainsAllSectionsOnBiasedData) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data = CreditGen(cfg).Generate(700, 801);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  const std::string report = WriteAuditReport(model, data);
  EXPECT_NE(report.find("# xfair audit report"), std::string::npos);
  EXPECT_NE(report.find("Group fairness"), std::string::npos);
  EXPECT_NE(report.find("Counterfactual burden"), std::string::npos);
  EXPECT_NE(report.find("fairness Shapley"), std::string::npos);
  EXPECT_NE(report.find("FACTS"), std::string::npos);
  EXPECT_NE(report.find("tradeoff"), std::string::npos);
  // The biased fixture must trip the 80%-rule verdict.
  EXPECT_NE(report.find("FAILS the 80% rule"), std::string::npos);
}

TEST(AuditReport, CanSkipCounterfactualSections) {
  Dataset data = CreditGen().Generate(300, 802);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  AuditReportOptions opts;
  opts.include_counterfactual_sections = false;
  const std::string report = WriteAuditReport(model, data, opts);
  EXPECT_EQ(report.find("Counterfactual burden"), std::string::npos);
  EXPECT_EQ(report.find("FACTS"), std::string::npos);
  EXPECT_NE(report.find("Group fairness"), std::string::npos);
}

TEST(AuditReport, DeterministicForSameSeed) {
  Dataset data = CreditGen().Generate(400, 803);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_EQ(WriteAuditReport(model, data), WriteAuditReport(model, data));
}

/// The report's verdict line, without its trailing newline.
std::string VerdictLine(const std::string& report) {
  const size_t at = report.find("Verdict: ");
  if (at == std::string::npos) return "";
  return report.substr(at, report.find('\n', at) - at);
}

/// The report's metrics-table row for `metric`, without its newline.
std::string MetricRow(const std::string& report, const std::string& metric) {
  const size_t at = report.find("| " + metric + " ");
  if (at == std::string::npos) return "";
  return report.substr(at, report.find('\n', at) - at);
}

/// Predicts favorable exactly for rows whose protected column is set.
class FavorsProtectedColumn final : public Model {
 public:
  explicit FavorsProtectedColumn(size_t column) : column_(column) {}
  double PredictProba(const Vector& x) const override {
    return x[column_] >= 0.5 ? 0.9 : 0.1;
  }
  std::string name() const override { return "favors_protected"; }

 private:
  size_t column_;
};

/// Never predicts the favorable class.
class AlwaysDeny final : public Model {
 public:
  double PredictProba(const Vector&) const override { return 0.1; }
  std::string name() const override { return "always_deny"; }
};

AuditReportOptions GroupSectionsOnly() {
  AuditReportOptions opts;
  opts.include_counterfactual_sections = false;
  return opts;
}

TEST(AuditReport, VerdictIsSymmetricInGroupCoding) {
  // Swapping which group is coded 1 swaps the two selection rates; the
  // four-fifths ratio min/max and the verdict must not move, and the
  // named disadvantaged group must follow the people, not the code.
  Dataset data = CreditGen().Generate(2000, 1);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  std::vector<int> swapped = data.groups();
  for (int& g : swapped) g = 1 - g;
  const Dataset mirrored(data.schema(), data.x(), data.labels(), swapped);
  const std::string verdict =
      VerdictLine(WriteAuditReport(model, data, GroupSectionsOnly()));
  const std::string mirrored_verdict =
      VerdictLine(WriteAuditReport(model, mirrored, GroupSectionsOnly()));
  EXPECT_NE(verdict.find("FAILS the 80% rule (disadvantaged group: G+)"),
            std::string::npos)
      << verdict;
  std::string expected = verdict;
  expected.replace(expected.find("G+"), 2, "G-");
  EXPECT_EQ(mirrored_verdict, expected);
}

TEST(AuditReport, VerdictIsUndefinedWhenNoGroupIsFavored) {
  Dataset data = CreditGen().Generate(300, 804);
  AlwaysDeny model;
  const std::string report = WriteAuditReport(model, data, GroupSectionsOnly());
  EXPECT_EQ(VerdictLine(report),
            "Verdict: disparate impact undefined (no group receives "
            "favorable outcomes).");
  // The table above the verdict must not print the 1.0 sentinel.
  EXPECT_EQ(MetricRow(report, "disparate_impact_ratio"),
            "| disparate_impact_ratio  | undefined |");
}

TEST(AuditReport, VerdictFailsWhenOnlyTheProtectedGroupIsFavored) {
  // rate(G-) = 0 < rate(G+): the signed ratio rate(G+)/rate(G-) has a
  // zero denominator, but the four-fifths ratio is 0 and fails.
  Dataset data = CreditGen().Generate(300, 805);
  FavorsProtectedColumn model(
      static_cast<size_t>(data.schema().sensitive_index()));
  const GroupFairnessReport group = EvaluateGroupFairness(model, data);
  ASSERT_EQ(group.non_protected_group.positive_rate(), 0.0);
  ASSERT_GT(group.protected_group.positive_rate(), 0.0);
  EXPECT_FALSE(group.disparate_impact_defined);
  const std::string report = WriteAuditReport(model, data, GroupSectionsOnly());
  EXPECT_EQ(VerdictLine(report),
            "Verdict: disparate impact 0.000 FAILS the 80% rule "
            "(disadvantaged group: G-).");
  // The signed ratio rate(G+)/rate(G-) has no denominator: the table
  // says so instead of printing the 1.0 sentinel above a failing verdict.
  EXPECT_EQ(MetricRow(report, "disparate_impact_ratio"),
            "| disparate_impact_ratio  | undefined |");
}

TEST(UmbrellaHeader, ExposesEveryLayer) {
  // One symbol per layer: compiling this test is most of the assertion.
  Rng rng(7);
  EXPECT_LE(rng.Uniform(), 1.0);                       // util
  EXPECT_EQ(CreditGen::MakeSchema().sensitive_index(), 0);  // data
  EXPECT_EQ(Matrix::Identity(2).At(1, 1), 1.0);        // matrix
  EXPECT_STREQ(ToString(FairnessTask::kGraph), "Graph");  // core taxonomy
  EXPECT_GE(PositionBias(0), PositionBias(1));         // fairness
  CausalWorld world = MakeCreditWorld(0.5);             // causal
  EXPECT_EQ(world.scm.num_vars(), 5u);
  Graph g(2);                                          // graph
  g.AddEdge(0, 1);
  EXPECT_EQ(g.num_edges(), 1u);
  Interactions ia(1, 1);                                // rec
  ia.Add(0, 0);
  EXPECT_TRUE(ia.Has(0, 0));
}

}  // namespace
}  // namespace xfair
