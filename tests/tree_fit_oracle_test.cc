// The presorted tree builders (DESIGN.md §5.4) against the sort-per-node
// oracles in tests/oracles/: GBM, CART, RandomForest and the global
// surrogate must produce the same node arrays bit for bit. Doubles are
// compared through their bit patterns, so -0.0 vs 0.0 is a difference.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "src/data/generators.h"
#include "src/explain/surrogate.h"
#include "src/model/decision_tree.h"
#include "src/model/gbm.h"
#include "src/model/logistic_regression.h"
#include "src/model/random_forest.h"
#include "src/util/rng.h"
#include "tests/oracles/tree_fit_oracle.h"

namespace xfair {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameNodes(const std::vector<GbmNode>& got,
                     const std::vector<GbmNode>& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t k = 0; k < got.size(); ++k) {
    SCOPED_TRACE(where + " node " + std::to_string(k));
    EXPECT_EQ(got[k].feature, want[k].feature);
    EXPECT_EQ(Bits(got[k].threshold), Bits(want[k].threshold));
    EXPECT_EQ(got[k].left, want[k].left);
    EXPECT_EQ(got[k].right, want[k].right);
    EXPECT_EQ(Bits(got[k].value), Bits(want[k].value));
    EXPECT_EQ(Bits(got[k].cover), Bits(want[k].cover));
  }
}

void ExpectSameNodes(const std::vector<TreeNode>& got,
                     const std::vector<TreeNode>& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t k = 0; k < got.size(); ++k) {
    SCOPED_TRACE(where + " node " + std::to_string(k));
    EXPECT_EQ(got[k].feature, want[k].feature);
    EXPECT_EQ(Bits(got[k].threshold), Bits(want[k].threshold));
    EXPECT_EQ(got[k].left, want[k].left);
    EXPECT_EQ(got[k].right, want[k].right);
    EXPECT_EQ(Bits(got[k].proba), Bits(want[k].proba));
    EXPECT_EQ(Bits(got[k].weight), Bits(want[k].weight));
  }
}

void ExpectGbmMatchesOracle(const Dataset& data, const GbmOptions& options,
                            const std::string& where) {
  GradientBoostedTrees gbm;
  ASSERT_TRUE(gbm.Fit(data, options).ok()) << where;
  const oracles::GbmFit want = oracles::FitGbmSortPerNode(data, options);
  EXPECT_EQ(Bits(gbm.bias()), Bits(want.bias)) << where;
  ASSERT_EQ(gbm.trees().size(), want.trees.size()) << where;
  for (size_t t = 0; t < want.trees.size(); ++t) {
    ExpectSameNodes(gbm.trees()[t], want.trees[t],
                    where + " tree " + std::to_string(t));
  }
}

void ExpectTreeMatchesOracle(const Dataset& data,
                             const DecisionTreeOptions& options,
                             const Vector& weights,
                             const std::string& where) {
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data, options, weights).ok()) << where;
  ExpectSameNodes(tree.nodes(),
                  oracles::FitTreeSortPerNode(data, options, weights), where);
}

/// The three generators: continuous (credit), integer counts with many
/// ties (recidivism), and categorical codes (income).
std::vector<std::pair<std::string, Dataset>> GeneratorData(size_t n,
                                                           uint64_t seed) {
  BiasConfig bias;
  bias.score_shift = 1.0;
  return {{"credit", CreditGen(bias).Generate(n, seed)},
          {"recidivism", RecidivismGen(bias).Generate(n, seed)},
          {"income", IncomeGen(bias).Generate(n, seed)}};
}

/// A dataset over numeric features f0, f1, ... from explicit rows.
Dataset Manual(const std::vector<Vector>& rows, std::vector<int> labels) {
  std::vector<FeatureSpec> specs(rows.front().size());
  for (size_t c = 0; c < specs.size(); ++c)
    specs[c].name = std::string("f").append(std::to_string(c));
  std::vector<int> groups(labels.size());
  for (size_t i = 0; i < groups.size(); ++i) groups[i] = i % 2;
  return Dataset(Schema(std::move(specs)), Matrix::FromRows(rows),
                 std::move(labels), std::move(groups));
}

/// Rows of `data` followed by the same rows again (every row duplicated).
Dataset Doubled(const Dataset& data) {
  std::vector<Vector> rows;
  std::vector<int> labels, groups;
  for (int copy = 0; copy < 2; ++copy) {
    for (size_t i = 0; i < data.size(); ++i) {
      rows.push_back(data.instance(i));
      labels.push_back(data.label(i));
      groups.push_back(data.group(i));
    }
  }
  return Dataset(data.schema(), Matrix::FromRows(rows), std::move(labels),
                 std::move(groups));
}

/// Edge columns: a constant, a -0.0/0.0 mix, small integers, noise.
Dataset EdgeColumns(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> rows;
  std::vector<int> labels;
  for (size_t i = 0; i < n; ++i) {
    const double sign = rng.Uniform() < 0.5 ? -0.0 : 0.0;
    const double zero_mix = rng.Uniform() < 0.6 ? sign : 1.0 - 2.0 * (i % 2);
    const double small = static_cast<double>(rng.Below(4));
    const double noise = rng.Normal(0.0, 1.0);
    rows.push_back({3.0, zero_mix, small, noise});
    const double score = 0.8 * zero_mix + 0.5 * small + noise;
    labels.push_back(score + rng.Normal(0.0, 0.5) > 0.7 ? 1 : 0);
  }
  return Manual(rows, std::move(labels));
}

TEST(TreeFitOracle, GbmMatchesOnGeneratorData) {
  GbmOptions deep;
  deep.num_rounds = 12;
  deep.max_depth = 5;
  deep.min_samples_leaf = 2;
  for (uint64_t seed : {1, 2}) {
    for (const auto& [name, data] : GeneratorData(600, seed)) {
      const std::string where = name + " seed " + std::to_string(seed);
      ExpectGbmMatchesOracle(data, {}, where);
      ExpectGbmMatchesOracle(data, deep, where + " deep");
    }
  }
}

TEST(TreeFitOracle, CartMatchesOnGeneratorData) {
  for (uint64_t seed : {1, 2}) {
    for (const auto& [name, data] : GeneratorData(800, seed)) {
      const std::string where = name + " seed " + std::to_string(seed);
      ExpectTreeMatchesOracle(data, {}, {}, where);
      DecisionTreeOptions deep;
      deep.max_depth = 12;
      deep.min_samples_leaf = 1;
      ExpectTreeMatchesOracle(data, deep, {}, where + " deep");
    }
  }
}

TEST(TreeFitOracle, CartMatchesWithFeatureSubsets) {
  const Dataset data = GeneratorData(500, 3)[0].second;
  for (size_t max_features : {1, 2, 3, 7}) {
    for (uint64_t feature_seed : {0, 11, 12345}) {
      DecisionTreeOptions options;
      options.max_depth = 8;
      options.min_samples_leaf = 2;
      options.max_features = max_features;
      options.feature_seed = feature_seed;
      ExpectTreeMatchesOracle(data, options, {},
                              "max_features " + std::to_string(max_features) +
                                  " seed " + std::to_string(feature_seed));
    }
  }
}

TEST(TreeFitOracle, CartMatchesWithFractionalAndZeroWeights) {
  for (const auto& [name, data] : GeneratorData(400, 4)) {
    Rng rng(99);
    Vector weights(data.size());
    for (double& w : weights) {
      const double u = rng.Uniform();
      w = u < 0.25 ? 0.0 : u < 0.5 ? 0.5 * u : u < 0.75 ? 1.0 : 1.0 + 3.0 * u;
    }
    DecisionTreeOptions options;
    options.max_depth = 7;
    options.min_samples_leaf = 3;
    ExpectTreeMatchesOracle(data, options, weights, name + " weighted");
    options.max_features = 2;
    options.feature_seed = 5;
    ExpectTreeMatchesOracle(data, options, weights,
                            name + " weighted subsets");
  }
}

TEST(TreeFitOracle, RandomForestTreesMatch) {
  RandomForestOptions options;
  options.num_trees = 5;
  for (const auto& [name, data] : GeneratorData(500, 5)) {
    RandomForest forest;
    ASSERT_TRUE(forest.Fit(data, options).ok());
    ASSERT_EQ(forest.trees().size(), options.num_trees);
    // Each tree's bootstrap weights and feature seed, as Fit draws them.
    const size_t n = data.size();
    const Rng root(options.seed);
    for (size_t t = 0; t < options.num_trees; ++t) {
      Rng tree_rng = root.Fork(t);
      Vector weights(n, 0.0);
      for (size_t i = 0; i < n; ++i) weights[tree_rng.Below(n)] += 1.0;
      DecisionTreeOptions tree_opts;
      tree_opts.max_depth = options.max_depth;
      tree_opts.min_samples_leaf = options.min_samples_leaf;
      tree_opts.max_features = std::max<size_t>(
          1, static_cast<size_t>(
                 std::sqrt(static_cast<double>(data.num_features()))));
      tree_opts.feature_seed = tree_rng.Next();
      ExpectSameNodes(forest.trees()[t].nodes(),
                      oracles::FitTreeSortPerNode(data, tree_opts, weights),
                      name + " tree " + std::to_string(t));
    }
  }
}

TEST(TreeFitOracle, GlobalSurrogateMatches) {
  for (const auto& [name, data] : GeneratorData(700, 6)) {
    LogisticRegression lr;
    ASSERT_TRUE(lr.Fit(data).ok());
    GbmOptions small;
    small.num_rounds = 10;
    GradientBoostedTrees gbm;
    ASSERT_TRUE(gbm.Fit(data, small).ok());
    for (const Model* model : {static_cast<const Model*>(&lr),
                               static_cast<const Model*>(&gbm)}) {
      for (size_t depth : {2, 4}) {
        const GlobalSurrogate surrogate =
            FitGlobalSurrogate(*model, data, depth);
        const Dataset distilled(data.schema(), data.x(),
                                model->PredictAll(data), data.groups());
        DecisionTreeOptions options;
        options.max_depth = depth;
        options.min_samples_leaf = 5;
        ExpectSameNodes(surrogate.tree.nodes(),
                        oracles::FitTreeSortPerNode(distilled, options),
                        name + " " + model->name() + " depth " +
                            std::to_string(depth));
      }
    }
  }
}

TEST(TreeFitOracle, EdgeColumnsAndDuplicatedRows) {
  const Dataset edge = EdgeColumns(300, 7);
  GbmOptions gbm;
  gbm.num_rounds = 15;
  gbm.max_depth = 4;
  gbm.min_samples_leaf = 1;
  DecisionTreeOptions cart;
  cart.max_depth = 10;
  cart.min_samples_leaf = 1;
  ExpectGbmMatchesOracle(edge, gbm, "edge columns");
  ExpectTreeMatchesOracle(edge, cart, {}, "edge columns");
  const Dataset doubled = Doubled(GeneratorData(250, 8)[1].second);
  ExpectGbmMatchesOracle(doubled, gbm, "duplicated rows");
  ExpectTreeMatchesOracle(doubled, cart, {}, "duplicated rows");
  ExpectGbmMatchesOracle(Doubled(edge), gbm, "duplicated edge rows");
}

// Adjacent doubles whose midpoint rounds onto the upper one: the cut
// between them sends the upper rows left as well, so the children must
// come from the x <= threshold predicate, not from the scan position.
TEST(TreeFitOracle, MidpointRoundingOntoUpperValue) {
  const double lo = 0x1.0000000000001p+0, hi = 0x1.0000000000002p+0;
  ASSERT_EQ(Bits(0.5 * (lo + hi)), Bits(hi));
  std::vector<Vector> rows;
  std::vector<int> labels;
  for (int i = 0; i < 30; ++i) {
    const double v = i < 12 ? lo : i < 20 ? hi : 2.0;
    rows.push_back({v, static_cast<double>(i % 3)});
    labels.push_back(i < 12 ? 0 : 1);
  }
  const Dataset data = Manual(rows, labels);
  DecisionTreeOptions cart;
  cart.min_samples_leaf = 2;
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data, cart).ok());
  ASSERT_EQ(tree.nodes()[0].feature, 0);
  EXPECT_EQ(Bits(tree.nodes()[0].threshold), Bits(hi));
  // All 20 lo and hi rows go left, although the scan cut after 12.
  EXPECT_EQ(tree.nodes()[static_cast<size_t>(tree.nodes()[0].left)].weight,
            20.0);
  ExpectTreeMatchesOracle(data, cart, {}, "midpoint");
  GbmOptions gbm;
  gbm.num_rounds = 5;
  gbm.min_samples_leaf = 2;
  ExpectGbmMatchesOracle(data, gbm, "midpoint");
}

TEST(TreeFitOracle, DegenerateFits) {
  const Dataset data = GeneratorData(200, 9)[0].second;
  // max_depth 0: a single leaf.
  DecisionTreeOptions stump;
  stump.max_depth = 0;
  ExpectTreeMatchesOracle(data, stump, {}, "cart depth 0");
  GbmOptions gbm_stump;
  gbm_stump.num_rounds = 3;
  gbm_stump.max_depth = 0;
  ExpectGbmMatchesOracle(data, gbm_stump, "gbm depth 0");

  // Fewer than 2 * min_samples_leaf rows.
  std::vector<Vector> rows;
  std::vector<int> labels;
  for (int i = 0; i < 7; ++i) {
    rows.push_back({static_cast<double>(i), static_cast<double>(i % 2)});
    labels.push_back(i % 2);
  }
  const Dataset tiny = Manual(rows, labels);
  ExpectTreeMatchesOracle(tiny, {}, {}, "cart tiny");
  GbmOptions gbm;
  gbm.num_rounds = 3;
  ExpectGbmMatchesOracle(tiny, gbm, "gbm tiny");

  // Pure labels.
  std::vector<int> ones(rows.size(), 1);
  const Dataset pure = Manual(rows, ones);
  DecisionTreeOptions loose;
  loose.min_samples_leaf = 1;
  ExpectTreeMatchesOracle(pure, loose, {}, "cart pure");
  gbm.min_samples_leaf = 1;
  ExpectGbmMatchesOracle(pure, gbm, "gbm pure");

  // One positive-weight row.
  Vector weights(rows.size(), 0.0);
  weights[3] = 0.25;
  ExpectTreeMatchesOracle(tiny, loose, weights, "cart one weighted row");
}

}  // namespace
}  // namespace xfair
