// Tests for the deterministic parallel runtime (src/util/parallel.h) and
// the guarantees built on it: exactly-once loop coverage, bit-for-bit
// reductions, thread-count-independent Shapley / Gopher / FACTS /
// forest / counterfactual results, and batched inference consistency.

#include "src/util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "src/core/registry.h"
#include "src/data/generators.h"
#include "src/explain/counterfactual.h"
#include "src/explain/shap.h"
#include "src/explain/tree_shap.h"
#include "src/mitigate/postprocess.h"
#include "src/model/calibration.h"
#include "src/model/decision_tree.h"
#include "src/model/gbm.h"
#include "src/model/knn.h"
#include "src/model/logistic_regression.h"
#include "src/model/packed_forest.h"
#include "src/model/random_forest.h"
#include "src/model/softmax_regression.h"
#include "src/obs/obs.h"
#include "src/unfair/burden.h"
#include "src/unfair/facts.h"
#include "src/unfair/fairness_shap.h"
#include "src/unfair/globece.h"
#include "src/unfair/gopher.h"
#include "src/unfair/precof.h"
#include "src/unfair/slice_search.h"
#include "src/util/kdtree.h"
#include "src/util/rng.h"
#include "tests/facts_testing.h"
#include "tests/oracles/subgroup_oracle.h"
#include "tests/oracles/tree_shap_oracle.h"
#include "tests/oracles/tree_walk_oracle.h"

namespace xfair {
namespace {

/// Restores the pool to its environment-default size when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { SetParallelThreads(0); }
};

/// Runs `fn` under each thread count and checks all results against the
/// first (serial) run with an exact-equality comparator.
template <typename T, typename Fn>
void ExpectSameAcrossThreadCounts(Fn fn,
                                  const std::function<void(const T&, const T&)>&
                                      expect_equal) {
  ThreadGuard guard;
  SetParallelThreads(1);
  const T serial = fn();
  for (size_t threads : {2, 8}) {
    SetParallelThreads(threads);
    const T parallel = fn();
    expect_equal(serial, parallel);
  }
}

TEST(DeterministicChunks, PartitionsRangeExactly) {
  for (size_t n : {0u, 1u, 5u, 64u, 65u, 1000u}) {
    const auto chunks = DeterministicChunks(10, 10 + n);
    size_t covered = 0;
    size_t expect_begin = 10;
    for (const auto& chunk : chunks) {
      EXPECT_EQ(chunk.begin, expect_begin);
      EXPECT_LT(chunk.begin, chunk.end);
      covered += chunk.end - chunk.begin;
      expect_begin = chunk.end;
    }
    EXPECT_EQ(covered, n);
    if (n > 0) {
      EXPECT_EQ(chunks.back().end, 10 + n);
    }
    EXPECT_LE(chunks.size(), kMaxChunks);
  }
}

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  ThreadGuard guard;
  for (size_t threads : {1u, 2u, 8u}) {
    SetParallelThreads(threads);
    for (size_t n : {0u, 1u, 7u, 64u, 513u}) {
      auto counts = std::make_unique<std::atomic<int>[]>(n);
      for (size_t i = 0; i < n; ++i) counts[i] = 0;
      ParallelFor(100, 100 + n, [&](size_t i) {
        ASSERT_GE(i, 100u);
        ASSERT_LT(i, 100 + n);
        counts[i - 100].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(counts[i].load(), 1) << "index " << i << " of " << n;
      }
    }
  }
}

TEST(ParallelReduce, MatchesSerialSumBitForBit) {
  auto term = [](size_t i) {
    return std::sin(static_cast<double>(i)) * 1e-3 + 1.0 / (1.0 + i);
  };
  ExpectSameAcrossThreadCounts<double>(
      [&] { return ParallelReduceSum(0, 3001, term); },
      [](const double& a, const double& b) { EXPECT_EQ(a, b); });
}

TEST(ParallelReduce, EmptyRangeIsZero) {
  EXPECT_EQ(ParallelReduceSum(5, 5, [](size_t) { return 1.0; }), 0.0);
}

TEST(RngFork, IsStableAndDoesNotAdvanceParent) {
  Rng a(42);
  Rng fork_early = a.Fork(3);
  const uint64_t next_after_fork = a.Next();
  Rng b(42);
  const uint64_t next_without_fork = b.Next();
  EXPECT_EQ(next_after_fork, next_without_fork)
      << "Fork must not advance the parent stream";
  Rng c(42);
  Rng fork_again = c.Fork(3);
  EXPECT_EQ(fork_early.Next(), fork_again.Next());
}

TEST(RngFork, DistinctStreamsDiffer) {
  Rng root(7);
  Rng s0 = root.Fork(0);
  Rng s1 = root.Fork(1);
  bool any_different = false;
  for (int i = 0; i < 8; ++i) any_different |= (s0.Next() != s1.Next());
  EXPECT_TRUE(any_different);
}

CoalitionValue RandomGame(Vector* table, size_t d, uint64_t seed) {
  Rng rng(seed);
  table->assign(size_t{1} << d, 0.0);
  for (double& v : *table) v = rng.Uniform(-1, 1);
  return [table, d](const std::vector<bool>& mask) {
    size_t s = 0;
    for (size_t i = 0; i < d; ++i)
      if (mask[i]) s |= (size_t{1} << i);
    return (*table)[s];
  };
}

TEST(ParallelShapley, ExactIsThreadCountInvariant) {
  Vector table;
  CoalitionValue v = RandomGame(&table, 9, 91);
  ExpectSameAcrossThreadCounts<Vector>(
      [&] { return ExactShapley(v, 9); },
      [](const Vector& a, const Vector& b) {
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
      });
}

TEST(ParallelShapley, SampledIsThreadCountInvariant) {
  Vector table;
  CoalitionValue v = RandomGame(&table, 12, 92);
  ExpectSameAcrossThreadCounts<Vector>(
      [&] {
        Rng rng(93);
        return SampledShapley(v, 12, 201, &rng);
      },
      [](const Vector& a, const Vector& b) {
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
      });
}

TEST(SampledShapley, OddPermutationBudgetIsExact) {
  // Regression: the antithetic pairing used to walk permutations in
  // strict pairs, overshooting an odd budget by one; the final pass must
  // be forward-only so the accounting matches the request.
  Vector table;
  CoalitionValue v = RandomGame(&table, 6, 94);
  for (size_t permutations : {1u, 2u, 7u, 8u, 201u}) {
    Rng rng(95);
    SampledShapleyInfo info;
    const Vector phi = SampledShapley(v, 6, permutations, &rng, &info);
    EXPECT_EQ(info.permutations_used, permutations);
    EXPECT_GT(info.unique_coalitions, 0u);
    // Efficiency holds exactly per walked permutation, so a correct
    // denominator makes the attributions sum to v(full) - v(empty).
    double sum = 0.0;
    for (double p : phi) sum += p;
    EXPECT_NEAR(sum, table[table.size() - 1] - table[0], 1e-9)
        << "permutations=" << permutations;
  }
}

TEST(CoalitionCache, NeverEvaluatesTwice) {
  size_t calls = 0;
  CoalitionValue counted = [&calls](const std::vector<bool>& mask) {
    ++calls;
    double acc = 0.0;
    for (size_t i = 0; i < mask.size(); ++i)
      if (mask[i]) acc += static_cast<double>(i + 1);
    return acc;
  };
  CoalitionCache cache(counted, 5);
  std::vector<bool> a{true, false, true, false, false};
  std::vector<bool> b{false, true, false, false, true};
  EXPECT_EQ(cache(a), 4.0);
  EXPECT_EQ(cache(a), 4.0);
  EXPECT_EQ(cache(b), 7.0);
  EXPECT_EQ(cache(a), 4.0);
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(cache.unique_coalitions(), 2u);
  EXPECT_EQ(cache.evaluations(), 2u);
}

TEST(ParallelUnfair, FairnessShapIsThreadCountInvariant) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data = CreditGen(cfg).Generate(400, 501);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  ExpectSameAcrossThreadCounts<FairnessShapReport>(
      [&] { return ExplainParityWithShapley(model, data, {}); },
      [](const FairnessShapReport& a, const FairnessShapReport& b) {
        ASSERT_EQ(a.contributions.size(), b.contributions.size());
        for (size_t i = 0; i < a.contributions.size(); ++i)
          EXPECT_EQ(a.contributions[i], b.contributions[i]);
        EXPECT_EQ(a.ranked_features, b.ranked_features);
        EXPECT_EQ(a.baseline_gap, b.baseline_gap);
        EXPECT_EQ(a.full_gap, b.full_gap);
      });
}

TEST(ParallelUnfair, GopherTopKIsThreadCountInvariant) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data = CreditGen(cfg).Generate(400, 502);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  GopherOptions opts;
  opts.top_k = 4;
  ExpectSameAcrossThreadCounts<GopherReport>(
      [&] {
        auto report = ExplainUnfairnessByPatterns(model, data, opts);
        XFAIR_CHECK(report.ok());
        return *report;
      },
      [](const GopherReport& a, const GopherReport& b) {
        ASSERT_EQ(a.patterns.size(), b.patterns.size());
        EXPECT_EQ(a.patterns_examined, b.patterns_examined);
        for (size_t i = 0; i < a.patterns.size(); ++i) {
          EXPECT_EQ(a.patterns[i].description, b.patterns[i].description);
          EXPECT_EQ(a.patterns[i].support, b.patterns[i].support);
          EXPECT_EQ(a.patterns[i].estimated_gap_change,
                    b.patterns[i].estimated_gap_change);
          EXPECT_EQ(a.patterns[i].verified, b.patterns[i].verified);
          EXPECT_EQ(a.patterns[i].verified_gap_change,
                    b.patterns[i].verified_gap_change);
        }
      });
}

TEST(ParallelUnfair, GopherDepth3LatticeEngineIsThreadCountInvariant) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data = CreditGen(cfg).Generate(400, 509);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  GopherOptions opts;  // Bitset engine + optimistic prune, both defaults.
  opts.max_conditions = 3;
  opts.top_k = 3;
  ExpectSameAcrossThreadCounts<GopherReport>(
      [&] {
        auto report = ExplainUnfairnessByPatterns(model, data, opts);
        XFAIR_CHECK(report.ok());
        return *report;
      },
      [](const GopherReport& a, const GopherReport& b) {
        ASSERT_EQ(a.patterns.size(), b.patterns.size());
        EXPECT_EQ(a.patterns_examined, b.patterns_examined);
        EXPECT_EQ(a.candidates_scored, b.candidates_scored);
        EXPECT_EQ(a.bound_pruned, b.bound_pruned);
        for (size_t i = 0; i < a.patterns.size(); ++i) {
          EXPECT_EQ(a.patterns[i].description, b.patterns[i].description);
          EXPECT_EQ(a.patterns[i].support, b.patterns[i].support);
          EXPECT_EQ(a.patterns[i].estimated_gap_change,
                    b.patterns[i].estimated_gap_change);
          EXPECT_EQ(a.patterns[i].verified_gap_change,
                    b.patterns[i].verified_gap_change);
        }
      });
}

TEST(ParallelUnfair, WorstSliceSearchIsThreadCountInvariant) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data = CreditGen(cfg).Generate(500, 510);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  // The lattice engine and the looped oracle, each against itself.
  for (const bool engine : {true, false}) {
    ExpectSameAcrossThreadCounts<WorstSliceReport>(
        [&] {
          return engine ? WorstSliceSearch(model, data, {})
                        : oracles::WorstSliceSearchLooped(model, data, {});
        },
        [](const WorstSliceReport& a, const WorstSliceReport& b) {
          EXPECT_EQ(a.overall_metric, b.overall_metric);
          EXPECT_EQ(a.slices_examined, b.slices_examined);
          EXPECT_EQ(a.lattice_candidates, b.lattice_candidates);
          ASSERT_EQ(a.slices.size(), b.slices.size());
          for (size_t i = 0; i < a.slices.size(); ++i) {
            EXPECT_EQ(a.slices[i].description, b.slices[i].description);
            EXPECT_EQ(a.slices[i].support, b.slices[i].support);
            EXPECT_EQ(a.slices[i].hits, b.slices[i].hits);
            EXPECT_EQ(a.slices[i].relevant, b.slices[i].relevant);
            EXPECT_EQ(a.slices[i].metric_value, b.slices[i].metric_value);
          }
        });
  }
}

TEST(ParallelUnfair, FactsIsThreadCountInvariant) {
  // Over a thousand denied rows: the (action, tile) scoring jobs and the
  // model's own batch loops spread over the pool.
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  const Dataset data = CreditGen(cfg).Generate(2500, 513);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(data).ok());
  GradientBoostedTrees gbm;
  GbmOptions gbm_opts;
  gbm_opts.num_rounds = 20;
  ASSERT_TRUE(gbm.Fit(data, gbm_opts).ok());
  FactsOptions opts;
  opts.max_itemset = 3;
  for (const Model* model : std::initializer_list<const Model*>{&lr, &gbm}) {
    ExpectSameAcrossThreadCounts<FactsReport>(
        [&] { return RunFacts(*model, data, opts); },
        [&](const FactsReport& a, const FactsReport& b) {
          ExpectSameFacts(a, b, data.schema());
        });
  }
}

TEST(ParallelUnfair, FairnessShapTreeFastPathIsThreadCountInvariant) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data = CreditGen(cfg).Generate(400, 507);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data).ok());
  ExpectSameAcrossThreadCounts<FairnessShapReport>(
      [&] { return ExplainParityWithShapley(tree, data, {}); },
      [](const FairnessShapReport& a, const FairnessShapReport& b) {
        ASSERT_EQ(a.contributions.size(), b.contributions.size());
        for (size_t i = 0; i < a.contributions.size(); ++i)
          EXPECT_EQ(a.contributions[i], b.contributions[i]);
        EXPECT_EQ(a.ranked_features, b.ranked_features);
        EXPECT_EQ(a.baseline_gap, b.baseline_gap);
        EXPECT_EQ(a.full_gap, b.full_gap);
      });
}

TEST(ParallelUnfair, FairnessShapBatchSliceIsThreadCountInvariant) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data = CreditGen(cfg).Generate(500, 512);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data).ok());
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(data).ok());
  std::vector<size_t> slice;
  for (size_t i = 0; i < data.size(); ++i)
    if (i % 5 != 2) slice.push_back(i);
  const auto compare = [](const FairnessShapReport& a,
                          const FairnessShapReport& b) {
    ASSERT_EQ(a.contributions.size(), b.contributions.size());
    for (size_t i = 0; i < a.contributions.size(); ++i)
      EXPECT_EQ(a.contributions[i], b.contributions[i]);
    EXPECT_EQ(a.ranked_features, b.ranked_features);
    EXPECT_EQ(a.baseline_gap, b.baseline_gap);
    EXPECT_EQ(a.full_gap, b.full_gap);
  };
  // Tree fast path: batched thresholded sweep over the slice.
  ExpectSameAcrossThreadCounts<FairnessShapReport>(
      [&] { return FairnessShapBatch(tree, data, slice, {}); }, compare);
  // Generic path: coalition-tiled mask-gap table.
  ExpectSameAcrossThreadCounts<FairnessShapReport>(
      [&] { return FairnessShapBatch(lr, data, slice, {}); }, compare);
}

TEST(ParallelExplain, ThresholdedSweepIsThreadCountInvariant) {
  Dataset data = CreditGen().Generate(600, 513);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data).ok());
  const size_t d = data.num_features();
  Vector z(d, 0.0);
  for (size_t i = 0; i < data.size(); ++i)
    for (size_t c = 0; c < d; ++c) z[c] += data.x().At(i, c);
  for (size_t c = 0; c < d; ++c) z[c] /= static_cast<double>(data.size());
  std::vector<size_t> rows(data.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Vector weights(rows.size());
  for (size_t i = 0; i < rows.size(); ++i)
    weights[i] = (data.group(i) == 0 ? 1.0 : -1.0) /
                 (1.0 + static_cast<double>(i % 5));
  ExpectSameAcrossThreadCounts<Vector>(
      [&] {
        Vector both = InterventionalTreeShapThresholded(
            tree, data.x(), rows, weights, z, tree.threshold());
        const Vector looped = oracles::InterventionalTreeShapThresholdedLooped(
            tree, data.x(), rows, weights, z, tree.threshold());
        both.insert(both.end(), looped.begin(), looped.end());
        return both;
      },
      [d](const Vector& a, const Vector& b) {
        ASSERT_EQ(a.size(), 2 * d);
        ASSERT_EQ(b.size(), 2 * d);
        for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
        // At every thread count the sweep matches the looped oracle.
        for (size_t i = 0; i < d; ++i) EXPECT_EQ(b[i], b[d + i]);
      });
}

TEST(ParallelExplain, TreeShapIsThreadCountInvariant) {
  Dataset data = CreditGen().Generate(300, 508);
  RandomForest forest;
  RandomForestOptions opts;
  opts.num_trees = 12;
  ASSERT_TRUE(forest.Fit(data, opts).ok());
  std::vector<size_t> keep;
  for (size_t i = 0; i < 40; ++i) keep.push_back(i);
  const Dataset background = data.Subset(keep);
  const Vector x = data.instance(120);
  ExpectSameAcrossThreadCounts<Vector>(
      [&] {
        // Dispatches to interventional TreeSHAP (reduction over
        // background rows) for tree models.
        Rng rng(509);
        return ShapExplainInstance(forest, background, x, 50, &rng);
      },
      [](const Vector& a, const Vector& b) {
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
      });
}

TEST(ParallelExplain, TreeShapOnDecisionTreeIsThreadCountInvariant) {
  // The DecisionTree overload runs the forest engine on its one-tree
  // model: the same background-chunk reduction, invariant per instance.
  Dataset data = CreditGen().Generate(300, 510);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data).ok());
  std::vector<size_t> keep;
  for (size_t i = 0; i < 40; ++i) keep.push_back(i);
  const Matrix background = data.Subset(keep).x();
  ExpectSameAcrossThreadCounts<Vector>(
      [&] {
        Vector out;
        for (size_t i : {120u, 121u, 205u}) {
          const TreeShapExplanation e =
              InterventionalTreeShap(tree, background, data.instance(i));
          out.insert(out.end(), e.phi.begin(), e.phi.end());
          out.push_back(e.base_value);
        }
        return out;
      },
      [](const Vector& a, const Vector& b) {
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
      });
}

/// Flattens a batch explanation so the invariance harness can compare it
/// with one EXPECT_EQ per scalar.
Vector FlattenBatch(const TreeShapBatchExplanation& e) {
  Vector out;
  out.reserve(e.phi.rows() * e.phi.cols() + e.base_values.size());
  for (size_t i = 0; i < e.phi.rows(); ++i)
    for (size_t c = 0; c < e.phi.cols(); ++c) out.push_back(e.phi.At(i, c));
  out.insert(out.end(), e.base_values.begin(), e.base_values.end());
  return out;
}

TEST(ParallelExplain, TreeShapBatchIsThreadCountInvariant) {
  Dataset data = CreditGen().Generate(350, 511);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(data).ok());
  RandomForest forest;
  RandomForestOptions fopts;
  fopts.num_trees = 10;
  ASSERT_TRUE(forest.Fit(data, fopts).ok());
  std::vector<size_t> keep;
  for (size_t i = 0; i < 25; ++i) keep.push_back(i);
  const Matrix background = data.Subset(keep).x();
  ExpectSameAcrossThreadCounts<Vector>(
      [&] {
        Vector out = FlattenBatch(
            InterventionalTreeShapBatch(tree, background, data.x()));
        const Vector iv = FlattenBatch(
            InterventionalTreeShapBatch(forest, background, data.x()));
        out.insert(out.end(), iv.begin(), iv.end());
        return out;
      },
      [](const Vector& a, const Vector& b) {
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
      });
}

TEST(ParallelExplain, ShapExplainBatchIsThreadCountInvariant) {
  Dataset data = CreditGen().Generate(120, 512);
  RandomForest forest;
  RandomForestOptions opts;
  opts.num_trees = 6;
  ASSERT_TRUE(forest.Fit(data, opts).ok());
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(data).ok());
  std::vector<size_t> keep;
  for (size_t i = 0; i < 15; ++i) keep.push_back(2 * i);
  const Dataset background = data.Subset(keep);
  ExpectSameAcrossThreadCounts<Vector>(
      [&] {
        // Tree route (batched interventional engine) and generic route
        // (per-row masking games on forked streams) in one pass.
        Rng rng(513);
        const Matrix trees =
            ShapExplainBatch(forest, background, data.x(), 40, &rng);
        const Matrix generic =
            ShapExplainBatch(lr, background, data.x(), 40, &rng);
        Vector out;
        for (size_t i = 0; i < trees.rows(); ++i)
          for (size_t c = 0; c < trees.cols(); ++c)
            out.push_back(trees.At(i, c));
        for (size_t i = 0; i < generic.rows(); ++i)
          for (size_t c = 0; c < generic.cols(); ++c)
            out.push_back(generic.At(i, c));
        return out;
      },
      [](const Vector& a, const Vector& b) {
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
      });
}

TEST(ParallelUnfair, FairnessShapDeepTreeFastPathIsThreadCountInvariant) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data = CreditGen(cfg).Generate(400, 514);
  DecisionTree tree;
  DecisionTreeOptions topts;
  topts.max_depth = 9;
  topts.min_samples_leaf = 2;
  ASSERT_TRUE(tree.Fit(data, topts).ok());
  FairnessShapOptions opts;  // kMask + tree fast path by default.
  ExpectSameAcrossThreadCounts<FairnessShapReport>(
      [&] { return ExplainParityWithShapley(tree, data, opts); },
      [](const FairnessShapReport& a, const FairnessShapReport& b) {
        ASSERT_EQ(a.contributions.size(), b.contributions.size());
        for (size_t i = 0; i < a.contributions.size(); ++i)
          EXPECT_EQ(a.contributions[i], b.contributions[i]);
        EXPECT_EQ(a.ranked_features, b.ranked_features);
        EXPECT_EQ(a.baseline_gap, b.baseline_gap);
        EXPECT_EQ(a.full_gap, b.full_gap);
      });
}

TEST(ParallelModel, KnnNeighborsAndBatchAreThreadCountInvariant) {
  Dataset data = CreditGen().Generate(300, 510);
  Dataset probe = CreditGen().Generate(60, 511);
  KnnClassifier knn(5);
  ASSERT_TRUE(knn.Fit(data).ok());
  using Out = std::pair<std::vector<size_t>, Vector>;
  ExpectSameAcrossThreadCounts<Out>(
      [&] {
        return Out{knn.Neighbors(probe.instance(0), 9),
                   knn.PredictProbaBatch(probe.x())};
      },
      [](const Out& a, const Out& b) {
        EXPECT_EQ(a.first, b.first);
        ASSERT_EQ(a.second.size(), b.second.size());
        for (size_t i = 0; i < a.second.size(); ++i)
          EXPECT_EQ(a.second[i], b.second[i]);
      });
}

TEST(ParallelModel, LogisticFitAndBatchAreThreadCountInvariant) {
  // The kernel-backed LR fit and its chunk-parallel PredictProbaBatch
  // must produce bit-identical weights and probabilities at 1/2/8
  // threads: every reduction runs in the pinned kernel order and chunk
  // boundaries only partition rows.
  Dataset data = CreditGen().Generate(300, 520);
  Dataset probe = CreditGen().Generate(64, 521);
  using Out = std::pair<Vector, Vector>;
  ExpectSameAcrossThreadCounts<Out>(
      [&] {
        LogisticRegression model;
        XFAIR_CHECK(model.Fit(data).ok());
        return Out{model.weights(), model.PredictProbaBatch(probe.x())};
      },
      [](const Out& a, const Out& b) {
        ASSERT_EQ(a.first.size(), b.first.size());
        for (size_t i = 0; i < a.first.size(); ++i)
          EXPECT_EQ(a.first[i], b.first[i]);
        ASSERT_EQ(a.second.size(), b.second.size());
        for (size_t i = 0; i < a.second.size(); ++i)
          EXPECT_EQ(a.second[i], b.second[i]);
      });
}

TEST(ParallelModel, SoftmaxFitAndBatchAreThreadCountInvariant) {
  Dataset data = CreditGen().Generate(250, 522);
  Dataset probe = CreditGen().Generate(40, 523);
  ExpectSameAcrossThreadCounts<Matrix>(
      [&] {
        SoftmaxRegression model;
        XFAIR_CHECK(model.Fit(data.x(), data.labels(), 2).ok());
        return model.PredictProbaBatch(probe.x());
      },
      [](const Matrix& a, const Matrix& b) {
        ASSERT_EQ(a.rows(), b.rows());
        ASSERT_EQ(a.cols(), b.cols());
        for (size_t r = 0; r < a.rows(); ++r)
          for (size_t c = 0; c < a.cols(); ++c)
            EXPECT_EQ(a.At(r, c), b.At(r, c));
      });
}

TEST(ParallelModel, ForestFitIsThreadCountInvariant) {
  Dataset data = CreditGen().Generate(300, 503);
  Dataset probe = CreditGen().Generate(50, 504);
  RandomForestOptions opts;
  opts.num_trees = 16;
  ExpectSameAcrossThreadCounts<Vector>(
      [&] {
        RandomForest forest;
        XFAIR_CHECK(forest.Fit(data, opts).ok());
        return forest.PredictProbaBatch(probe.x());
      },
      [](const Vector& a, const Vector& b) {
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
      });
}

TEST(ParallelModel, TreeScorerBatchesAreThreadCountInvariant) {
  // 773 rows: 64 chunks of 12 or 13 rows.
  Dataset data = CreditGen().Generate(300, 506);
  Dataset probe = CreditGen().Generate(773, 507);
  DecisionTree tree;
  RandomForest forest;
  RandomForestOptions fopts;
  fopts.num_trees = 10;
  GradientBoostedTrees gbm;
  GbmOptions gopts;
  gopts.num_rounds = 20;
  ASSERT_TRUE(tree.Fit(data).ok());
  ASSERT_TRUE(forest.Fit(data, fopts).ok());
  ASSERT_TRUE(gbm.Fit(data, gopts).ok());
  for (const Model* model : std::initializer_list<const Model*>{
           &tree, &forest, &gbm}) {
    SCOPED_TRACE(model->name());
    ExpectSameAcrossThreadCounts<Vector>(
        [&] { return model->PredictProbaBatch(probe.x()); },
        [](const Vector& a, const Vector& b) {
          ASSERT_EQ(a.size(), b.size());
          for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
        });
  }
}

TEST(ParallelExplain, CounterfactualsForRowsAreThreadCountInvariant) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data = CreditGen(cfg).Generate(120, 505);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  std::vector<size_t> rows;
  const std::vector<int> predictions = model.PredictAll(data);
  for (size_t i = 0; i < data.size(); ++i)
    if (predictions[i] == 0) rows.push_back(i);
  ASSERT_FALSE(rows.empty());
  ExpectSameAcrossThreadCounts<std::vector<Vector>>(
      [&] {
        Rng rng(506);
        std::vector<Vector> cfs;
        for (const auto& r :
             CounterfactualsForRows(model, data, rows, {}, &rng))
          cfs.push_back(r.counterfactual);
        return cfs;
      },
      [](const std::vector<Vector>& a, const std::vector<Vector>& b) {
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
      });
}

TEST(ParallelUnfair, CounterfactualMetricsAreThreadCountInvariant) {
  // Burden (both scopes), NAWB, PreCoF and GLOBE-CE all reduce over the
  // row-parallel counterfactual engine in row order.
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  cfg.proxy_strength = 0.6;
  Dataset data = CreditGen(cfg).Generate(200, 507);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  struct Out {
    BurdenReport all, fn;
    NawbReport nawb;
    PrecofReport precof;
    GlobeCeReport globe;
  };
  ExpectSameAcrossThreadCounts<Out>(
      [&] {
        Rng rng(508);
        Out o;
        o.all = ComputeBurden(model, data, BurdenScope::kAllNegatives, {},
                              &rng);
        o.fn = ComputeBurden(model, data, BurdenScope::kFalseNegatives, {},
                             &rng);
        o.nawb = ComputeNawb(model, data, {}, &rng);
        o.precof = PrecofImplicitBias(data, &rng);
        o.globe = FitGlobeCe(model, data, {}, &rng);
        return o;
      },
      [](const Out& a, const Out& b) {
        const auto same_burden = [](const BurdenReport& x,
                                    const BurdenReport& y) {
          EXPECT_EQ(x.burden_protected, y.burden_protected);
          EXPECT_EQ(x.burden_non_protected, y.burden_non_protected);
          EXPECT_EQ(x.counterfactuals_protected, y.counterfactuals_protected);
          EXPECT_EQ(x.counterfactuals_non_protected,
                    y.counterfactuals_non_protected);
          EXPECT_EQ(x.failures, y.failures);
        };
        same_burden(a.all, b.all);
        same_burden(a.fn, b.fn);
        EXPECT_EQ(a.nawb.nawb_protected, b.nawb.nawb_protected);
        EXPECT_EQ(a.nawb.nawb_non_protected, b.nawb.nawb_non_protected);
        EXPECT_EQ(a.precof.change_freq_protected,
                  b.precof.change_freq_protected);
        EXPECT_EQ(a.precof.change_freq_non_protected,
                  b.precof.change_freq_non_protected);
        EXPECT_EQ(a.precof.ranked_features, b.precof.ranked_features);
        EXPECT_EQ(a.globe.protected_group.direction,
                  b.globe.protected_group.direction);
        EXPECT_EQ(a.globe.protected_group.min_scales,
                  b.globe.protected_group.min_scales);
        EXPECT_EQ(a.globe.non_protected_group.direction,
                  b.globe.non_protected_group.direction);
        EXPECT_EQ(a.globe.non_protected_group.min_scales,
                  b.globe.non_protected_group.min_scales);
        EXPECT_EQ(a.globe.cost_gap, b.globe.cost_gap);
        EXPECT_EQ(a.globe.coverage_gap, b.globe.coverage_gap);
      });
}

// --- batched inference consistency -----------------------------------

class BatchConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override { data_ = CreditGen().Generate(200, 601); }

  void ExpectBatchMatchesRows(const Model& model) {
    const Vector batch = model.PredictProbaBatch(data_.x());
    ASSERT_EQ(batch.size(), data_.size());
    for (size_t i = 0; i < data_.size(); ++i) {
      EXPECT_EQ(batch[i], model.PredictProba(data_.instance(i)))
          << model.name() << " row " << i;
    }
    const std::vector<int> decisions = model.PredictBatch(data_.x());
    for (size_t i = 0; i < data_.size(); ++i) {
      EXPECT_EQ(decisions[i], model.Predict(data_.instance(i)))
          << model.name() << " row " << i;
    }
  }

  /// The data rows, then edge rows for every split of `trees`: a data
  /// row with the split's feature exactly at its threshold (goes left
  /// there), then for each feature a data row with it NaN (goes right),
  /// +inf and -inf, and a row of NaN only.
  template <typename Tree>
  Matrix EdgeRows(const std::vector<Tree>& trees) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double nan = std::nan("");
    std::vector<Vector> rows;
    for (size_t i = 0; i < data_.size(); ++i) {
      rows.push_back(data_.instance(i));
    }
    const auto base = [&] {
      return data_.instance(rows.size() % data_.size());
    };
    for (const Tree& tree : trees) {
      for (const auto& node : NodesOf(tree)) {
        if (node.feature < 0) continue;
        Vector row = base();
        row[static_cast<size_t>(node.feature)] = node.threshold;
        rows.push_back(row);
      }
    }
    for (size_t f = 0; f < data_.num_features(); ++f) {
      for (double v : {nan, kInf, -kInf}) {
        Vector row = base();
        row[f] = v;
        rows.push_back(row);
      }
    }
    rows.push_back(Vector(data_.num_features(), nan));
    return Matrix::FromRows(rows);
  }

  static const std::vector<TreeNode>& NodesOf(const DecisionTree& tree) {
    return tree.nodes();
  }
  static const std::vector<GbmNode>& NodesOf(
      const std::vector<GbmNode>& tree) {
    return tree;
  }

  /// PredictProba and PredictProbaBatch equal the pointer walk bit for
  /// bit on every row of `rows`, and on batches of 0, 1, 7, 8, 9 and 773
  /// of them (773: 64 chunks of 12 or 13 rows).
  template <typename TreeModel>
  void ExpectScoresMatchWalk(const TreeModel& model, const Matrix& rows) {
    const auto walk = [&](const Matrix& m, size_t i) {
      return oracles::WalkProba(model, m.RowPtr(i), m.cols());
    };
    for (size_t i = 0; i < rows.rows(); ++i) {
      EXPECT_EQ(model.PredictProba(rows.Row(i)), walk(rows, i))
          << model.name() << " row " << i;
    }
    for (size_t n : {0, 1, 7, 8, 9, 773}) {
      Matrix batch(n, rows.cols());
      for (size_t i = 0; i < n; ++i) batch.SetRow(i, rows.Row(i % rows.rows()));
      const Vector scores = model.PredictProbaBatch(batch);
      ASSERT_EQ(scores.size(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(scores[i], walk(batch, i))
            << model.name() << " batch of " << n << ", row " << i;
      }
    }
  }

  Dataset data_;
};

/// Longest root-to-leaf path of a fitted tree (0 for a lone leaf).
size_t TreeDepth(const std::vector<TreeNode>& nodes, int node = 0) {
  const TreeNode& n = nodes[static_cast<size_t>(node)];
  if (n.feature < 0) return 0;
  return 1 + std::max(TreeDepth(nodes, n.left), TreeDepth(nodes, n.right));
}

TEST_F(BatchConsistencyTest, LogisticRegression) {
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data_).ok());
  ExpectBatchMatchesRows(model);
}

TEST_F(BatchConsistencyTest, DecisionTree) {
  DecisionTree model;
  ASSERT_TRUE(model.Fit(data_).ok());
  ExpectBatchMatchesRows(model);
}

TEST_F(BatchConsistencyTest, RandomForest) {
  RandomForest model;
  RandomForestOptions opts;
  opts.num_trees = 10;
  ASSERT_TRUE(model.Fit(data_, opts).ok());
  ExpectBatchMatchesRows(model);
}

TEST_F(BatchConsistencyTest, GradientBoostedTrees) {
  GradientBoostedTrees model;
  GbmOptions opts;
  opts.num_rounds = 20;
  ASSERT_TRUE(model.Fit(data_, opts).ok());
  ExpectBatchMatchesRows(model);
}

TEST_F(BatchConsistencyTest, DecisionTreeMatchesPointerWalk) {
  DecisionTree model;
  ASSERT_TRUE(model.Fit(data_).ok());
  ExpectScoresMatchWalk(model, EdgeRows(std::vector<DecisionTree>{model}));
}

TEST_F(BatchConsistencyTest, RandomForestMatchesPointerWalk) {
  // 10 trees: one lockstep group of 8 trees per row, then 2 alone.
  RandomForest model;
  RandomForestOptions opts;
  opts.num_trees = 10;
  opts.seed = 5;  // Chosen so that the assertion below holds.
  ASSERT_TRUE(model.Fit(data_, opts).ok());
  std::vector<size_t> depths;
  for (const DecisionTree& tree : model.trees()) {
    depths.push_back(TreeDepth(tree.nodes()));
  }
  // The group's first tree is shallower than its deepest, so a group
  // walked for its first or its shallowest tree's depth stops short.
  const auto group_end = depths.begin() + PackedForest::kTile;
  ASSERT_LT(depths[0], *std::max_element(depths.begin(), group_end));
  ExpectScoresMatchWalk(model, EdgeRows(model.trees()));
}

TEST_F(BatchConsistencyTest, GradientBoostedTreesMatchesPointerWalk) {
  GradientBoostedTrees model;
  GbmOptions opts;
  opts.num_rounds = 20;
  ASSERT_TRUE(model.Fit(data_, opts).ok());
  ExpectScoresMatchWalk(model, EdgeRows(model.trees()));
}

TEST_F(BatchConsistencyTest, RootOnlyTreesMatchPointerWalk) {
  GradientBoostedTrees gbm;
  GbmOptions gopts;
  gopts.num_rounds = 11;
  gopts.max_depth = 0;
  ASSERT_TRUE(gbm.Fit(data_, gopts).ok());
  for (const std::vector<GbmNode>& tree : gbm.trees()) {
    ASSERT_EQ(tree.size(), 1u);
  }
  ExpectScoresMatchWalk(gbm, EdgeRows(gbm.trees()));

  DecisionTree tree;
  DecisionTreeOptions topts;
  // Every split would leave a side under min_samples_leaf rows.
  topts.min_samples_leaf = data_.size();
  ASSERT_TRUE(tree.Fit(data_, topts).ok());
  ASSERT_EQ(tree.nodes().size(), 1u);
  ExpectScoresMatchWalk(tree, EdgeRows(std::vector<DecisionTree>{tree}));
}

TEST_F(BatchConsistencyTest, Knn) {
  KnnClassifier model(5);
  ASSERT_TRUE(model.Fit(data_).ok());
  ExpectBatchMatchesRows(model);
}

TEST_F(BatchConsistencyTest, GroupThresholdModel) {
  // Per-group thresholds: the one Predict rule a score threshold cannot
  // express, so PredictBatch must override it identically.
  LogisticRegression base;
  ASSERT_TRUE(base.Fit(data_).ok());
  const int sens = data_.schema().sensitive_index();
  ASSERT_GE(sens, 0);
  GroupThresholdModel model(&base, static_cast<size_t>(sens), 0.35, 0.65);
  ExpectBatchMatchesRows(model);
}

TEST_F(BatchConsistencyTest, PlattCalibrator) {
  GradientBoostedTrees base;
  GbmOptions opts;
  opts.num_rounds = 20;
  ASSERT_TRUE(base.Fit(data_, opts).ok());
  PlattCalibrator model(&base);
  ASSERT_TRUE(model.Fit(data_).ok());
  ExpectBatchMatchesRows(model);
}

TEST_F(BatchConsistencyTest, SoftmaxRegression) {
  MulticlassCredit mc = GenerateMulticlassCredit(200, 0.8, 602);
  SoftmaxRegression model;
  ASSERT_TRUE(model.Fit(mc.x, mc.labels, 3).ok());
  const Matrix batch = model.PredictProbaBatch(mc.x);
  ASSERT_EQ(batch.rows(), mc.x.rows());
  for (size_t i = 0; i < mc.x.rows(); ++i) {
    const Vector row = model.PredictProba(mc.x.Row(i));
    ASSERT_EQ(batch.cols(), row.size());
    for (size_t k = 0; k < row.size(); ++k)
      EXPECT_EQ(batch.At(i, k), row[k]) << "row " << i << " class " << k;
  }
  const std::vector<int> decisions = model.PredictBatch(mc.x);
  for (size_t i = 0; i < mc.x.rows(); ++i)
    EXPECT_EQ(decisions[i], model.Predict(mc.x.Row(i)));
}


TEST(ParallelKdTree, DuplicateTieOrderIsThreadCountInvariant) {
  // Rows with many exact duplicates force (distance, row) ties; queries
  // fanned out over the pool must resolve them identically to the stable
  // brute-force scan for every thread count (including XFAIR_THREADS=4,
  // which reruns this whole binary).
  Matrix pts(64, 2);
  for (size_t r = 0; r < 64; ++r) {
    pts.At(r, 0) = static_cast<double>(r % 4);  // 16 copies of each point.
    pts.At(r, 1) = static_cast<double>(r % 2);
  }
  const KdTree kd(pts, /*leaf_size=*/4);
  ExpectSameAcrossThreadCounts<std::vector<std::vector<size_t>>>(
      [&] {
        std::vector<std::vector<size_t>> out(64);
        ParallelFor(0, size_t{64}, [&](size_t qi) {
          out[qi] = kd.KNearest(pts.RowPtr(qi), 10);
        });
        return out;
      },
      [&](const auto& serial, const auto& parallel) {
        EXPECT_EQ(serial, parallel);
      });
  // And the serial answer itself matches the stable brute force.
  for (size_t qi : {0u, 3u, 63u}) {
    std::vector<std::pair<double, size_t>> dist(64);
    for (size_t i = 0; i < 64; ++i) {
      double acc = 0.0;
      for (size_t c = 0; c < 2; ++c) {
        const double diff = pts.At(i, c) - pts.At(qi, c);
        acc += diff * diff;
      }
      dist[i] = {acc, i};
    }
    std::sort(dist.begin(), dist.end());
    std::vector<size_t> brute(10);
    for (size_t i = 0; i < 10; ++i) brute[i] = dist[i].second;
    EXPECT_EQ(kd.KNearest(pts.RowPtr(qi), 10), brute) << "query " << qi;
  }
}

TEST(ParallelRegistry, EveryRunnerIsThreadCountInvariant) {
  // Every method as the registry runs it (bench_table1's measured
  // column), the rec, graph and causal runners included, prints the same
  // summary at any pool size.
  const RunContext ctx = RunContext::Make(2024);
  const std::vector<ApproachDescriptor>& registry = ApproachRegistry();
  ASSERT_EQ(registry.size(), 26u);
  using Out = std::vector<std::string>;
  ExpectSameAcrossThreadCounts<Out>(
      [&] {
        Out out;
        for (const ApproachDescriptor& a : registry)
          out.push_back(a.runner(ctx));
        return out;
      },
      [&](const Out& a, const Out& b) {
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
          EXPECT_EQ(a[i], b[i]) << registry[i].citation;
      });
}

TEST(ParallelObs, SpansAndCountersFromWorkerThreadsAllLand) {
  // Spans are recorded into lock-free per-thread buffers; every body of a
  // ParallelFor must land exactly one span and one counter increment no
  // matter how the pool slices the range. Running this under the TSan
  // stage of scripts/verify.sh is what certifies the buffers race-free.
  ThreadGuard guard;
  obs::Counter& c = obs::GetCounter("parallel_test/span_bodies");
  for (size_t threads : {1u, 2u, 8u}) {
    SetParallelThreads(threads);
    obs::SetTracingEnabled(false);
    obs::FlushSpans();  // Drain anything earlier tests left behind.
    c.Reset();
    obs::SetTracingEnabled(true);
    ParallelFor(0, size_t{257}, [&](size_t) {
      XFAIR_SPAN("parallel_test/body");
      XFAIR_COUNTER_ADD("parallel_test/span_bodies", 1);
    });
    obs::SetTracingEnabled(false);
    const std::vector<obs::SpanRecord> spans = obs::FlushSpans();
    size_t bodies = 0;
    for (const obs::SpanRecord& s : spans) {
      if (s.name == std::string("parallel_test/body")) ++bodies;
    }
#ifdef XFAIR_OBS_DISABLED
    EXPECT_EQ(bodies, 0u);
    EXPECT_EQ(c.value(), 0u);
#else
    EXPECT_EQ(bodies, 257u) << "threads " << threads;
    EXPECT_EQ(c.value(), 257u);
#endif
  }
}

TEST(ParallelObs, MonitorIngestionIsThreadCountInvariant) {
  // FairnessMonitor ingestion uses the same lock-free per-thread buffer
  // design as the tracer; running this under the TSan stage of
  // scripts/verify.sh certifies it race-free. Events carry explicit
  // sequence numbers, so the drained processing order — and with it the
  // snapshot, including every drift alarm's seq — must be byte-identical
  // no matter how the pool splits the ingestion loop.
  ThreadGuard guard;
  const size_t n = 5000;
  std::string snapshots[3];
  size_t variant = 0;
  for (size_t threads : {1u, 2u, 8u}) {
    SetParallelThreads(threads);
    obs::MonitorOptions mopts;
    mopts.window = 256;
    obs::FairnessMonitor monitor("parallel_test/monitor", mopts);
    ParallelFor(0, n, [&](size_t i) {
      // A planted parity shift halfway through the sequence, so the
      // invariance check covers detector state and alarms too.
      const int group = static_cast<int>(i % 2);
      const bool biased = i >= n / 2 && group == 1;
      const double score = biased ? 0.2 : (i % 3 ? 0.8 : 0.3);
      monitor.Ingest({static_cast<uint64_t>(i), score, score >= 0.5,
                      static_cast<int>(i % 5 != 0), group});
    });
    monitor.Drain();
    snapshots[variant++] = monitor.SnapshotJson();
#ifndef XFAIR_OBS_DISABLED
    EXPECT_EQ(monitor.events_processed(), n);
    EXPECT_FALSE(monitor.alarms().empty());
#endif
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
}

TEST(ParallelObs, FlightRecorderCapturesEveryWorkerSpan) {
  // The flight recorder's per-thread rings use the same owner-appends /
  // release-publish discipline as the tracer buffers; running this under
  // the TSan stage of scripts/verify.sh certifies them race-free. Every
  // loop body must land exactly one retained span (no drops at default
  // capacity) no matter how the pool slices the range.
  ThreadGuard guard;
  for (size_t threads : {1u, 2u, 8u}) {
    SetParallelThreads(threads);
    obs::ResetRecorder();
    obs::SetRecorderEnabled(true);
    ParallelFor(0, size_t{257}, [&](size_t) {
      XFAIR_SPAN("parallel_test/flight_body");
    });
    obs::SetRecorderEnabled(false);
    size_t bodies = 0;
    for (const obs::SpanRecord& s : obs::SnapshotFlightSpans()) {
      if (s.name == std::string("parallel_test/flight_body")) ++bodies;
    }
#ifdef XFAIR_OBS_DISABLED
    EXPECT_EQ(bodies, 0u);
#else
    EXPECT_EQ(bodies, 257u) << "threads " << threads;
    EXPECT_EQ(obs::FlightSpansDropped(), 0u);
#endif
  }
  obs::ResetRecorder();
}

TEST(ParallelObs, EventLogBytesAreThreadCountInvariant) {
  // Events are emitted only at API boundaries on the caller thread, so
  // the rendered JSONL — sequence numbers, field values, everything —
  // must be byte-identical at any pool size.
  ThreadGuard guard;
  const Dataset data = CreditGen().Generate(300, 23);
  std::vector<size_t> all(data.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::string logs[3];
  size_t variant = 0;
  for (size_t threads : {1u, 2u, 8u}) {
    SetParallelThreads(threads);
    obs::ResetEventLog();
    obs::SetEventLogEnabled(true);
    LogisticRegression model;
    ASSERT_TRUE(model.Fit(data).ok());
    (void)FairnessShapBatch(model, data, all, {});
    SliceSearchOptions sopts;
    sopts.max_conditions = 2;
    (void)WorstSliceSearch(model, data, sopts);
    obs::SetEventLogEnabled(false);
    logs[variant++] = obs::EventsToJsonl(obs::DrainEvents());
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(logs[0], logs[2]);
#ifndef XFAIR_OBS_DISABLED
  EXPECT_NE(logs[0].find("\"event\":\"fit\""), std::string::npos);
  EXPECT_NE(logs[0].find("\"event\":\"batch\""), std::string::npos);
  EXPECT_NE(logs[0].find("worst_slice_done"), std::string::npos);
#endif
}

TEST(ParallelObs, FlightSpanNameMultisetIsThreadCountInvariant) {
  // The flight window's span *placement* depends on which worker ran
  // which chunk, but DeterministicChunks splits ranges identically at
  // any pool size — so the multiset of recorded span names is invariant
  // even though the per-ring distribution is not.
  ThreadGuard guard;
  const Dataset data = CreditGen().Generate(400, 29);
  DecisionTree tree;
  DecisionTreeOptions topts;
  topts.max_depth = 6;
  ASSERT_TRUE(tree.Fit(data, topts).ok());
  SliceSearchOptions sopts;
  sopts.max_conditions = 2;
  std::vector<std::string> names[3];
  size_t variant = 0;
  for (size_t threads : {1u, 2u, 8u}) {
    SetParallelThreads(threads);
    obs::ResetRecorder();
    obs::SetRecorderEnabled(true);
    (void)WorstSliceSearch(tree, data, sopts);
    obs::SetRecorderEnabled(false);
    std::vector<std::string>& v = names[variant++];
    for (const obs::SpanRecord& s : obs::SnapshotFlightSpans()) {
      v.push_back(s.name);
    }
    std::sort(v.begin(), v.end());
  }
  EXPECT_EQ(names[0], names[1]);
  EXPECT_EQ(names[0], names[2]);
#ifndef XFAIR_OBS_DISABLED
  ASSERT_FALSE(names[0].empty());
  EXPECT_TRUE(std::binary_search(names[0].begin(), names[0].end(),
                                 std::string("slice_search/level_score")));
  EXPECT_TRUE(std::binary_search(names[0].begin(), names[0].end(),
                                 std::string("slice_search/worst_slice")));
#endif
  obs::ResetRecorder();
}

TEST(ParallelObs, PerThreadLogKeepsEveryWorkerAppend) {
  // The log under all three sinks, appended to directly from pool
  // workers: the TSan stage of scripts/verify.sh certifies the template
  // itself race-free. Every append lands once in the growing log; the
  // fixed log keeps at most its capacity per shard and counts the rest.
  ThreadGuard guard;
  const size_t n = 5000;
  for (size_t threads : {1u, 2u, 8u}) {
    SetParallelThreads(threads);
    obs::PerThreadLog<uint64_t> growing;
    obs::PerThreadLog<uint64_t> ring(64);
    ParallelFor(0, n, [&](size_t i) {
      growing.Append(i);
      ring.Append(i);
    });
    std::vector<uint64_t> all;
    growing.Drain(&all);
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), n) << "threads " << threads;
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(all[i], i);
    const std::vector<uint64_t> kept = ring.Snapshot();
    EXPECT_LE(kept.size(), 64 * ring.shard_count());
    EXPECT_EQ(kept.size() + ring.Dropped(), n) << "threads " << threads;
    EXPECT_LE(growing.shard_count(), threads);
  }
}

TEST(ParallelObs, LogsFreeTheShardsOfExitedThreads) {
  // Pool resizes retire worker threads. Their spans stay until flushed
  // (tracer) or reset (recorder), and their monitor events until drained;
  // after that no log holds more shards than there are live threads.
  // 64 bodies a round keep even the caller's ring (it may run every
  // body) below the flight capacity.
  ThreadGuard guard;
  const size_t bodies = 64;
  obs::SetTracingEnabled(false);
  obs::FlushSpans();
  obs::ResetRecorder();
  obs::SetTracingEnabled(true);
  obs::SetRecorderEnabled(true);
  for (size_t round = 0; round < 20; ++round) {
    SetParallelThreads(round % 2 == 0 ? 4 : 3);
    ParallelFor(0, bodies, [&](size_t) {
      XFAIR_SPAN("parallel_test/resize_body");
    });
  }
  obs::SetTracingEnabled(false);
  obs::SetRecorderEnabled(false);
#ifndef XFAIR_OBS_DISABLED
  const auto count_bodies = [](const std::vector<obs::SpanRecord>& spans) {
    return static_cast<size_t>(
        std::count_if(spans.begin(), spans.end(), [](const auto& s) {
          return s.name == std::string("parallel_test/resize_body");
        }));
  };
  // Retired workers' trailing spans are still in the flight log.
  EXPECT_EQ(obs::FlightSpansDropped(), 0u);
  EXPECT_EQ(count_bodies(obs::SnapshotFlightSpans()), 20 * bodies);
  EXPECT_EQ(count_bodies(obs::FlushSpans()), 20 * bodies);
#endif
  obs::ResetRecorder();
  EXPECT_LE(obs::detail::TraceLogShards(), ParallelThreads());
  EXPECT_LE(obs::detail::FlightLogShards(), ParallelThreads());

  for (size_t round = 0; round < 20; ++round) {
    SetParallelThreads(4);
    obs::FairnessMonitor monitor("parallel_test/leak");
    ParallelFor(0, size_t{1024}, [&](size_t i) {
      monitor.Ingest({i, 0.5, 1, -1, static_cast<int>(i % 2)});
    });
    SetParallelThreads(2);
    monitor.Drain();
#ifndef XFAIR_OBS_DISABLED
    EXPECT_EQ(monitor.events_processed(), 1024u);
#endif
    EXPECT_LE(monitor.log_shards(), ParallelThreads());
  }
}

}  // namespace
}  // namespace xfair
