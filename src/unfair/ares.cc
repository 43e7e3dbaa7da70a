#include "src/unfair/ares.h"

#include <algorithm>

namespace xfair {
namespace {

/// Candidate rule before selection, with its matched member list.
struct Candidate {
  RecourseRule rule;
  std::vector<size_t> members;        ///< Matching affected instances.
  std::vector<size_t> flipped;        ///< Members the action flips.
};

bool MatchesBin(const Discretizer& disc, const Dataset& data, size_t i,
                size_t feature, size_t bin) {
  return disc.BinOf(feature, data.x().At(i, feature)) == bin;
}

}  // namespace

AresReport BuildRecourseSet(const Model& model, const Dataset& data,
                            const AresOptions& options) {
  AresReport report;
  const std::vector<int> predictions = model.PredictAll(data);
  std::vector<size_t> affected;
  for (size_t i = 0; i < data.size(); ++i)
    if (predictions[i] == 0) affected.push_back(i);
  if (affected.empty()) return report;

  Discretizer disc(data, options.bins);
  const Schema& schema = data.schema();

  // Outer descriptors: bins of immutable features (always including the
  // trivial "everyone" descriptor).
  std::vector<Conditions> descriptors = {{}};
  for (size_t f = 0; f < data.num_features(); ++f) {
    if (schema.feature(f).actionability != Actionability::kImmutable)
      continue;
    for (size_t b = 0; b < disc.NumBins(f); ++b)
      descriptors.push_back({{f, b}});
  }

  // Enumerate candidates: descriptor x inner-condition x action where the
  // action moves the conditioned feature to a different bin.
  std::vector<Candidate> candidates;
  for (const auto& descriptor : descriptors) {
    for (size_t f = 0; f < data.num_features(); ++f) {
      if (schema.feature(f).actionability == Actionability::kImmutable)
        continue;
      for (size_t from_bin = 0; from_bin < disc.NumBins(f); ++from_bin) {
        for (size_t to_bin = 0; to_bin < disc.NumBins(f); ++to_bin) {
          if (to_bin == from_bin) continue;
          Candidate cand;
          cand.rule.subgroup = descriptor;
          cand.rule.inner_condition = {f, from_bin};
          cand.rule.action =
              CompositeAction{{Action{f, disc.Representative(f, to_bin)}}};
          for (size_t i : affected) {
            bool match = MatchesBin(disc, data, i, f, from_bin);
            for (const auto& [df, db] : descriptor)
              match = match && MatchesBin(disc, data, i, df, db);
            if (!match) continue;
            cand.members.push_back(i);
            const Vector x = data.instance(i);
            if (cand.rule.action.ApplicableTo(schema, x) &&
                model.Predict(cand.rule.action.ApplyTo(x)) == 1) {
              cand.flipped.push_back(i);
            }
          }
          if (cand.members.size() < kAresMinRuleCoverage) continue;
          if (cand.flipped.empty()) continue;
          cand.rule.coverage = cand.members.size();
          cand.rule.effectiveness =
              static_cast<double>(cand.flipped.size()) /
              static_cast<double>(cand.members.size());
          cand.rule.mean_cost =
              ActionMeanCost(data, cand.members, cand.rule.action);
          candidates.push_back(std::move(cand));
        }
      }
    }
  }

  // Greedy selection: maximize newly flipped affected instances.
  std::vector<bool> covered(data.size(), false);
  for (size_t round = 0;
       round < options.max_rules && !candidates.empty(); ++round) {
    size_t best = candidates.size();
    size_t best_new = 0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      size_t fresh = 0;
      for (size_t i : candidates[c].flipped)
        fresh += static_cast<size_t>(!covered[i]);
      if (fresh > best_new) {
        best_new = fresh;
        best = c;
      }
    }
    if (best == candidates.size() || best_new == 0) break;
    Candidate chosen = std::move(candidates[best]);
    candidates.erase(candidates.begin() + static_cast<long>(best));
    for (size_t i : chosen.flipped) covered[i] = true;
    Conditions conditions = chosen.rule.subgroup;
    conditions.push_back(chosen.rule.inner_condition);
    chosen.rule.description = "IF " + disc.Describe(schema, conditions) +
                              " THEN " + chosen.rule.action.ToString(schema);
    report.rules.push_back(std::move(chosen.rule));
  }

  // Summary metrics.
  size_t flipped_total = 0, flipped_g[2] = {0, 0}, count_g[2] = {0, 0};
  for (size_t i : affected) {
    ++count_g[data.group(i)];
    if (covered[i]) {
      ++flipped_total;
      ++flipped_g[data.group(i)];
    }
  }
  report.total_recourse_rate = static_cast<double>(flipped_total) /
                               static_cast<double>(affected.size());
  if (count_g[1] > 0) {
    report.recourse_rate_protected = static_cast<double>(flipped_g[1]) /
                                     static_cast<double>(count_g[1]);
  }
  if (count_g[0] > 0) {
    report.recourse_rate_non_protected =
        static_cast<double>(flipped_g[0]) /
        static_cast<double>(count_g[0]);
  }
  report.num_rules = report.rules.size();
  double width = 0.0;
  for (const auto& r : report.rules)
    width += static_cast<double>(r.subgroup.size() + 1 + r.action.actions.size());
  report.mean_rule_width =
      report.rules.empty() ? 0.0
                           : width / static_cast<double>(report.rules.size());
  return report;
}

}  // namespace xfair
