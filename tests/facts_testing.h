// Field-by-field FactsReport equality, shared by the FACTS oracle test
// and the thread-count invariance test.

#ifndef XFAIR_TESTS_FACTS_TESTING_H_
#define XFAIR_TESTS_FACTS_TESTING_H_

#include <gtest/gtest.h>

#include <string>

#include "src/unfair/facts.h"

namespace xfair {

/// EXPECT_EQ on every FactsReport field. Actions compare through
/// ToString and, exactly, through their (feature, target) pairs.
inline void ExpectSameFacts(const FactsReport& a, const FactsReport& b,
                            const Schema& schema) {
  EXPECT_EQ(a.subgroups_examined, b.subgroups_examined);
  EXPECT_EQ(a.overall_best_effectiveness_protected,
            b.overall_best_effectiveness_protected);
  EXPECT_EQ(a.overall_best_effectiveness_non_protected,
            b.overall_best_effectiveness_non_protected);
  EXPECT_EQ(a.overall_effectiveness_gap, b.overall_effectiveness_gap);
  EXPECT_EQ(a.overall_choices_protected, b.overall_choices_protected);
  EXPECT_EQ(a.overall_choices_non_protected, b.overall_choices_non_protected);
  EXPECT_EQ(a.overall_choice_gap, b.overall_choice_gap);
  const auto same_action = [&](const CompositeAction& x,
                               const CompositeAction& y) {
    EXPECT_EQ(x.ToString(schema), y.ToString(schema));
    ASSERT_EQ(x.actions.size(), y.actions.size());
    for (size_t k = 0; k < x.actions.size(); ++k) {
      EXPECT_EQ(x.actions[k].feature, y.actions[k].feature);
      EXPECT_EQ(x.actions[k].target_value, y.actions[k].target_value);
    }
  };
  ASSERT_EQ(a.ranked_subgroups.size(), b.ranked_subgroups.size());
  for (size_t i = 0; i < a.ranked_subgroups.size(); ++i) {
    const FactsSubgroup& x = a.ranked_subgroups[i];
    const FactsSubgroup& y = b.ranked_subgroups[i];
    SCOPED_TRACE("ranked subgroup " + std::to_string(i) + ": " +
                 x.description);
    EXPECT_EQ(x.conditions, y.conditions);
    EXPECT_EQ(x.description, y.description);
    EXPECT_EQ(x.affected_protected, y.affected_protected);
    EXPECT_EQ(x.affected_non_protected, y.affected_non_protected);
    EXPECT_EQ(x.best_effectiveness_protected, y.best_effectiveness_protected);
    EXPECT_EQ(x.best_effectiveness_non_protected,
              y.best_effectiveness_non_protected);
    same_action(x.best_action_protected, y.best_action_protected);
    same_action(x.best_action_non_protected, y.best_action_non_protected);
    EXPECT_EQ(x.unfairness, y.unfairness);
    EXPECT_EQ(x.choices_protected, y.choices_protected);
    EXPECT_EQ(x.choices_non_protected, y.choices_non_protected);
  }
}

}  // namespace xfair

#endif  // XFAIR_TESTS_FACTS_TESTING_H_
