// FACTS [77] against a test-only oracle: the per-row algorithm RunFacts
// used before it moved onto flip bitvectors and the shared lattice
// engine. The oracle matches each subgroup by re-binning every affected
// row, grows subgroups with its own apriori, and calls Predict once per
// (subgroup, action, side, row). RunFacts must reproduce every
// FactsReport field bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>

#include "src/data/generators.h"
#include "src/model/decision_tree.h"
#include "src/model/gbm.h"
#include "src/model/logistic_regression.h"
#include "src/model/random_forest.h"
#include "src/unfair/facts.h"
#include "tests/facts_testing.h"

namespace xfair {
namespace {

/// Affected instances of `group` matching every (feature, bin) condition.
std::vector<size_t> MatchSubgroup(const Dataset& data, const Discretizer& disc,
                                  const std::vector<size_t>& affected,
                                  const Conditions& conditions, int group) {
  std::vector<size_t> out;
  for (size_t i : affected) {
    if (data.group(i) != group) continue;
    bool match = true;
    for (const auto& [f, b] : conditions) {
      if (disc.BinOf(f, data.x().At(i, f)) != b) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(i);
  }
  return out;
}

/// eff(a, G) one row and one Predict call at a time.
double RowLoopEffectiveness(const Model& model, const Dataset& data,
                            const std::vector<size_t>& instances,
                            const CompositeAction& action) {
  if (instances.empty()) return 0.0;
  size_t flipped = 0;
  for (size_t i : instances) {
    const Vector x = data.instance(i);
    if (!action.ApplicableTo(data.schema(), x)) continue;
    if (model.Predict(action.ApplyTo(x)) == 1) ++flipped;
  }
  return static_cast<double>(flipped) /
         static_cast<double>(instances.size());
}

void OracleAudit(const Model& model, const Dataset& data,
                 const std::vector<Action>& candidates, FactsSubgroup* sg,
                 const std::vector<size_t>& members_p,
                 const std::vector<size_t>& members_np, double phi) {
  for (const Action& a : candidates) {
    const CompositeAction ca{{a}};
    const double eff_p = RowLoopEffectiveness(model, data, members_p, ca);
    const double eff_np = RowLoopEffectiveness(model, data, members_np, ca);
    if (eff_p > sg->best_effectiveness_protected) {
      sg->best_effectiveness_protected = eff_p;
      sg->best_action_protected = ca;
    }
    if (eff_np > sg->best_effectiveness_non_protected) {
      sg->best_effectiveness_non_protected = eff_np;
      sg->best_action_non_protected = ca;
    }
    sg->unfairness = std::max(sg->unfairness, eff_np - eff_p);
    if (eff_p >= phi) ++sg->choices_protected;
    if (eff_np >= phi) ++sg->choices_non_protected;
  }
}

FactsReport OracleFacts(const Model& model, const Dataset& data,
                        const FactsOptions& options) {
  FactsReport report;
  std::vector<size_t> affected;
  for (size_t i = 0; i < data.size(); ++i)
    if (model.Predict(data.instance(i)) == 0) affected.push_back(i);
  if (affected.empty()) return report;

  Discretizer disc(data, options.bins);
  const std::vector<Action> candidates =
      EnumerateActions(data.schema(), disc);
  const size_t min_count = std::max<size_t>(
      static_cast<size_t>(options.min_support *
                          static_cast<double>(affected.size())),
      1);
  const auto support = [&](const Conditions& cand) {
    return MatchSubgroup(data, disc, affected, cand, 0).size() +
           MatchSubgroup(data, disc, affected, cand, 1).size();
  };

  // Frequent single conditions (never the sensitive column), then
  // apriori extension in canonical (ascending feature) order.
  std::vector<Conditions> frontier;
  const int sens = data.schema().sensitive_index();
  for (size_t f = 0; f < data.num_features(); ++f) {
    if (static_cast<int>(f) == sens) continue;
    for (size_t b = 0; b < disc.NumBins(f); ++b) {
      if (support({{f, b}}) >= min_count) frontier.push_back({{f, b}});
    }
  }
  std::vector<Conditions> all_subgroups = frontier;
  std::vector<Conditions> current = frontier;
  for (size_t depth = 2; depth <= options.max_itemset; ++depth) {
    std::vector<Conditions> next;
    for (const auto& base : current) {
      for (const auto& ext : frontier) {
        if (ext[0].first <= base.back().first) continue;
        Conditions cand = base;
        cand.push_back(ext[0]);
        if (support(cand) >= min_count) next.push_back(std::move(cand));
      }
    }
    all_subgroups.insert(all_subgroups.end(), next.begin(), next.end());
    current = std::move(next);
  }

  std::vector<FactsSubgroup> audited;
  for (const auto& conditions : all_subgroups) {
    const auto members_p = MatchSubgroup(data, disc, affected, conditions, 1);
    const auto members_np =
        MatchSubgroup(data, disc, affected, conditions, 0);
    if (members_p.size() < options.min_group_members ||
        members_np.size() < options.min_group_members) {
      continue;
    }
    FactsSubgroup sg;
    sg.conditions = conditions;
    sg.description = disc.Describe(data.schema(), conditions);
    sg.affected_protected = members_p.size();
    sg.affected_non_protected = members_np.size();
    OracleAudit(model, data, candidates, &sg, members_p, members_np,
                options.phi);
    audited.push_back(std::move(sg));
  }
  report.subgroups_examined = audited.size();

  FactsSubgroup everyone;
  std::vector<size_t> all_p, all_np;
  for (size_t i : affected) (data.group(i) == 1 ? all_p : all_np).push_back(i);
  OracleAudit(model, data, candidates, &everyone, all_p, all_np,
              options.phi);
  report.overall_best_effectiveness_protected =
      everyone.best_effectiveness_protected;
  report.overall_best_effectiveness_non_protected =
      everyone.best_effectiveness_non_protected;
  report.overall_effectiveness_gap =
      everyone.best_effectiveness_non_protected -
      everyone.best_effectiveness_protected;
  report.overall_choices_protected = everyone.choices_protected;
  report.overall_choices_non_protected = everyone.choices_non_protected;
  report.overall_choice_gap =
      static_cast<double>(everyone.choices_non_protected) -
      static_cast<double>(everyone.choices_protected);

  std::sort(audited.begin(), audited.end(),
            [](const FactsSubgroup& a, const FactsSubgroup& b) {
              return a.unfairness > b.unfairness;
            });
  if (audited.size() > options.top_k) audited.resize(options.top_k);
  report.ranked_subgroups = std::move(audited);
  return report;
}

enum class ModelKind { kLogistic, kTree, kForest, kGbm };
enum class GenKind { kCredit, kRecidivism, kIncome };

Dataset Generate(GenKind gen, size_t n, uint64_t seed) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  switch (gen) {
    case GenKind::kCredit:
      return CreditGen(cfg).Generate(n, seed);
    case GenKind::kRecidivism:
      return RecidivismGen(cfg).Generate(n, seed);
    case GenKind::kIncome:
      return IncomeGen(cfg).Generate(n, seed);
  }
  return {};
}

std::unique_ptr<Model> Fit(ModelKind kind, const Dataset& data) {
  switch (kind) {
    case ModelKind::kLogistic: {
      auto m = std::make_unique<LogisticRegression>();
      XFAIR_CHECK(m->Fit(data).ok());
      return m;
    }
    case ModelKind::kTree: {
      auto m = std::make_unique<DecisionTree>();
      XFAIR_CHECK(m->Fit(data).ok());
      return m;
    }
    case ModelKind::kForest: {
      auto m = std::make_unique<RandomForest>();
      RandomForestOptions opts;
      opts.num_trees = 8;
      XFAIR_CHECK(m->Fit(data, opts).ok());
      return m;
    }
    case ModelKind::kGbm: {
      auto m = std::make_unique<GradientBoostedTrees>();
      GbmOptions opts;
      opts.num_rounds = 20;
      XFAIR_CHECK(m->Fit(data, opts).ok());
      return m;
    }
  }
  return nullptr;
}

/// Checks RunFacts against the oracle; returns the subgroups examined.
size_t ExpectMatchesOracle(const Model& model, const Dataset& data,
                           const FactsOptions& options) {
  const FactsReport fast = RunFacts(model, data, options);
  const FactsReport oracle = OracleFacts(model, data, options);
  ExpectSameFacts(fast, oracle, data.schema());
  return fast.subgroups_examined;
}

class FactsOracleTest
    : public ::testing::TestWithParam<std::tuple<ModelKind, GenKind>> {};

TEST_P(FactsOracleTest, MatchesPerRowOracleBitForBit) {
  const auto [kind, gen] = GetParam();
  const Dataset data = Generate(gen, 240, 811);
  const std::unique_ptr<Model> model = Fit(kind, data);
  size_t examined = 0;
  for (size_t max_itemset : {0u, 1u, 2u, 3u}) {
    for (double min_support : {0.0, 0.1}) {
      SCOPED_TRACE("max_itemset " + std::to_string(max_itemset) +
                   ", min_support " + std::to_string(min_support));
      FactsOptions opts;
      opts.max_itemset = max_itemset;
      opts.min_support = min_support;
      opts.top_k = 1000;  // Compare every audited subgroup, not a prefix.
      examined += ExpectMatchesOracle(*model, data, opts);
    }
  }
  EXPECT_GT(examined, 0u) << "nothing audited: the comparison is vacuous";
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndGenerators, FactsOracleTest,
    ::testing::Combine(::testing::Values(ModelKind::kLogistic,
                                         ModelKind::kTree, ModelKind::kForest,
                                         ModelKind::kGbm),
                       ::testing::Values(GenKind::kCredit,
                                         GenKind::kRecidivism,
                                         GenKind::kIncome)));

TEST(FactsOracle, MultiTileAuditMatchesOracle) {
  // More affected rows than one scoring tile, with a ragged last tile.
  const Dataset data = Generate(GenKind::kCredit, 3000, 812);
  const std::unique_ptr<Model> model = Fit(ModelKind::kLogistic, data);
  size_t denied = 0;
  for (int p : model->PredictAll(data)) denied += p == 0 ? 1 : 0;
  ASSERT_GT(denied, kActionTileRows);
  ASSERT_NE(denied % kActionTileRows, 0u);
  EXPECT_GT(ExpectMatchesOracle(*model, data, {}), 0u);
}

TEST(FactsOracle, NoDeniedRowGivesEmptyReport) {
  const Dataset data = Generate(GenKind::kCredit, 200, 813);
  LogisticRegression approve_all;
  approve_all.SetParameters(Vector(data.num_features(), 0.0), 10.0);
  const FactsReport report = RunFacts(approve_all, data, {});
  EXPECT_EQ(report.subgroups_examined, 0u);
  EXPECT_TRUE(report.ranked_subgroups.empty());
  EXPECT_EQ(report.overall_best_effectiveness_protected, 0.0);
  EXPECT_EQ(report.overall_choices_non_protected, 0u);
  ExpectSameFacts(report, OracleFacts(approve_all, data, {}), data.schema());
}

TEST(FactsOracle, SideBelowMinGroupMembersIsNotAudited) {
  // Keep only three protected rows: no subgroup has min_group_members
  // (5) protected members, yet the classifier-level fields still count
  // them. Without any protected row the protected side is empty.
  const Dataset full = Generate(GenKind::kCredit, 400, 814);
  const std::unique_ptr<Model> model = Fit(ModelKind::kLogistic, full);
  std::vector<size_t> few = full.GroupIndices(0);
  const std::vector<size_t> protected_rows = full.GroupIndices(1);
  few.insert(few.end(), protected_rows.begin(), protected_rows.begin() + 3);
  const Dataset data = full.Subset(few);
  const FactsReport report = RunFacts(*model, data, {});
  EXPECT_EQ(report.subgroups_examined, 0u);
  ExpectSameFacts(report, OracleFacts(*model, data, {}), data.schema());

  const Dataset none = full.Subset(full.GroupIndices(0));
  FactsOptions lenient;
  lenient.min_group_members = 0;
  const FactsReport empty_side = RunFacts(*model, none, lenient);
  EXPECT_EQ(empty_side.overall_best_effectiveness_protected, 0.0);
  EXPECT_GT(empty_side.subgroups_examined, 0u);
  ExpectSameFacts(empty_side, OracleFacts(*model, none, lenient),
                  none.schema());
}

TEST(ScoreActions, BitsMatchPerRowPredictAcrossTiles) {
  // An unsorted row list with repeats spanning three tiles, a single and
  // a composite action: every bit is the per-row outcome, padding bits
  // stay zero, and rows_scored counts the applicable (action, row) pairs.
  const Dataset data = Generate(GenKind::kCredit, 900, 815);
  const std::unique_ptr<Model> model = Fit(ModelKind::kGbm, data);
  std::vector<size_t> rows;
  for (size_t k = 0; k < 2 * kActionTileRows + 100; ++k)
    rows.push_back((k * 7919) % data.size());
  const Discretizer disc(data, 3);
  const std::vector<Action> singles = EnumerateActions(data.schema(), disc);
  ASSERT_GE(singles.size(), 2u);
  const std::vector<CompositeAction> actions = {
      {{singles.front()}}, {{singles.front(), singles.back()}}};
  const ActionFlips flips = ScoreActions(*model, data, rows, actions, 1);
  ASSERT_EQ(flips.bits.size(), actions.size());
  size_t applicable = 0;
  for (size_t a = 0; a < actions.size(); ++a) {
    ASSERT_EQ(flips.bits[a].size(), (rows.size() + 63) / 64);
    for (size_t k = 0; k < flips.bits[a].size() * 64; ++k) {
      const bool bit = (flips.bits[a][k >> 6] >> (k & 63)) & 1;
      bool expected = false;
      if (k < rows.size()) {
        const Vector x = data.instance(rows[k]);
        if (actions[a].ApplicableTo(data.schema(), x)) {
          ++applicable;
          expected = model->Predict(actions[a].ApplyTo(x)) == 1;
        }
      }
      EXPECT_EQ(bit, expected) << "action " << a << " position " << k;
    }
  }
  EXPECT_EQ(flips.rows_scored, applicable);
}

}  // namespace
}  // namespace xfair
