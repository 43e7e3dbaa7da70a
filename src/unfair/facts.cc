#include "src/unfair/facts.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/unfair/slice_search.h"
#include "src/util/kernels.h"

namespace xfair {
namespace {

/// Audits one subgroup whose per-side member counts are set. An action's
/// effectiveness on a side is its flips among the side's members over the
/// member count (0 for an empty side), as in ActionEffectiveness.
void Audit(const std::vector<CompositeAction>& actions,
           const ActionFlips& flips, const uint64_t* members_p,
           const uint64_t* members_np, double phi, FactsSubgroup* sg) {
  const auto effectiveness = [](const std::vector<uint64_t>& flipped,
                                const uint64_t* members, size_t count) {
    if (count == 0) return 0.0;
    return static_cast<double>(kernels::AndPopcountU64(
               flipped.data(), members, flipped.size())) /
           static_cast<double>(count);
  };
  for (size_t a = 0; a < actions.size(); ++a) {
    const double eff_p =
        effectiveness(flips.bits[a], members_p, sg->affected_protected);
    const double eff_np = effectiveness(flips.bits[a], members_np,
                                        sg->affected_non_protected);
    if (eff_p > sg->best_effectiveness_protected) {
      sg->best_effectiveness_protected = eff_p;
      sg->best_action_protected = actions[a];
    }
    if (eff_np > sg->best_effectiveness_non_protected) {
      sg->best_effectiveness_non_protected = eff_np;
      sg->best_action_non_protected = actions[a];
    }
    sg->unfairness = std::max(sg->unfairness, eff_np - eff_p);
    if (eff_p >= phi) ++sg->choices_protected;
    if (eff_np >= phi) ++sg->choices_non_protected;
  }
}

}  // namespace

FactsReport RunFacts(const Model& model, const Dataset& data,
                     const FactsOptions& options) {
  XFAIR_SPAN("facts/run");
  XFAIR_LATENCY_NS("latency/facts_ns");
  FactsReport report;
  // Affected population: everyone the classifier denies.
  const std::vector<int> decisions = model.PredictBatch(data.x());
  XFAIR_COUNTER_ADD("facts/rows_scored", data.size());
  std::vector<size_t> affected;
  for (size_t i = 0; i < data.size(); ++i)
    if (decisions[i] == 0) affected.push_back(i);
  if (affected.empty()) return report;

  // One flip bitvector per candidate action over the affected rows.
  Discretizer disc(data, options.bins);
  std::vector<CompositeAction> actions;
  for (const Action& a : EnumerateActions(data.schema(), disc))
    actions.push_back({{a}});
  const ActionFlips flips = [&] {
    XFAIR_SPAN("facts/score_actions");
    return ScoreActions(model, data, affected, actions, 1);
  }();
  XFAIR_COUNTER_ADD("facts/rows_scored", flips.rows_scored);

  // Side membership over the affected rows (bit k = affected[k]).
  const size_t words = (affected.size() + 63) / 64;
  std::vector<uint64_t> side_p(words, 0), side_np(words, 0);
  for (size_t k = 0; k < affected.size(); ++k) {
    (data.group(affected[k]) == 1 ? side_p : side_np)[k >> 6] |=
        uint64_t{1} << (k & 63);
  }

  // Subgroups: frequent conjunctions of (feature, bin) conditions over
  // the affected rows, in canonical lattice order. The sensitive column
  // is not indexed (it would make single-group subgroups); with no other
  // column nothing is (an empty column list means every column).
  std::vector<size_t> columns;
  for (size_t f = 0; f < data.num_features(); ++f)
    if (static_cast<int>(f) != data.schema().sensitive_index())
      columns.push_back(f);
  const size_t min_count = std::max<size_t>(
      1, static_cast<size_t>(options.min_support * affected.size()));
  std::vector<FactsSubgroup> audited;
  if (!columns.empty()) {
    const SliceExtentIndex index(disc, data.Subset(affected), columns);
    LatticeWalk(
        index, min_count, std::max<size_t>(options.max_itemset, 1),
        [](size_t) {}, [](size_t, const LatticeNode&) {},
        [&](size_t, const LatticeNode& node) {
          if (node.support < min_count) return true;
          FactsSubgroup sg;
          std::vector<uint64_t> members_p(words), members_np(words);
          sg.affected_protected = kernels::AndPopcountU64(
              node.extent, side_p.data(), members_p.data(), words);
          sg.affected_non_protected = kernels::AndPopcountU64(
              node.extent, side_np.data(), members_np.data(), words);
          if (sg.affected_protected >= options.min_group_members &&
              sg.affected_non_protected >= options.min_group_members) {
            for (size_t k = 0; k < node.depth; ++k)
              sg.conditions.push_back(index.condition(node.sids[k]));
            sg.description = disc.Describe(data.schema(), sg.conditions);
            Audit(actions, flips, members_p.data(), members_np.data(),
                  options.phi, &sg);
            audited.push_back(std::move(sg));
          }
          return true;
        });
  }
  report.subgroups_examined = audited.size();

  // Classifier-level fairness of recourse on the trivial subgroup.
  FactsSubgroup everyone;
  everyone.affected_protected = kernels::PopcountU64(side_p.data(), words);
  everyone.affected_non_protected =
      affected.size() - everyone.affected_protected;
  Audit(actions, flips, side_p.data(), side_np.data(), options.phi,
        &everyone);
  report.overall_best_effectiveness_protected =
      everyone.best_effectiveness_protected;
  report.overall_best_effectiveness_non_protected =
      everyone.best_effectiveness_non_protected;
  report.overall_effectiveness_gap = everyone.best_effectiveness_non_protected -
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

}  // namespace xfair
