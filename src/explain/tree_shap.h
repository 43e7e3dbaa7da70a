// Polynomial-time SHAP for tree models (Lundberg et al.'s TreeSHAP family,
// derived here from the subset-polynomial form).
//
// The exponential Shapley engines in shap.h enumerate (or sample) 2^d
// coalitions and re-evaluate the model for each. For trees the coalition
// game factors over root-to-leaf paths, which admits two exact
// polynomial-time algorithms:
//
// - **Path-dependent** (`PathDependentTreeShap`): absent features are
//   marginalized with the training covers stored in the nodes — the
//   EXPVALUE game. Per leaf, the game restricted to the path's unique
//   features is a product of factors (zero_f + one_f * t), where one_f
//   indicates x satisfies the merged split interval of f and zero_f is the
//   product of f's cover ratios along the path. Convolving the factors and
//   deconvolving one feature at a time yields every Shapley weight in
//   O(leaves * depth^2) — no model evaluations at all.
// - **Interventional** (`InterventionalTreeShap`): absent features come
//   from explicit background rows — *exactly* the masking game
//   ShapExplainInstance evaluates, so its results are interchangeable with
//   ExactShapley over that game (up to float roundoff). Per background row
//   and leaf, only the features where x and the background row disagree on
//   the merged interval matter (p features only x passes, q features only
//   the background passes), and the Shapley weight has the closed form
//   (p-1)! q! / (p+q)! — O(background * paths * depth) total.
//
// Both run on the deterministic parallel runtime: background rows (or
// trees) fan out over DeterministicChunks and partial attributions merge
// in a fixed pairwise tree, so attributions are bit-identical for every
// XFAIR_THREADS setting.
//
// **Batched engine** (`TreeShapBatch` / `InterventionalTreeShapBatch`):
// explains a whole Matrix of instances in one call. The batch sweeps every
// tree once per instance tile with the instances laid out
// structure-of-arrays (contiguous per-feature columns), memoizes the
// per-leaf Shapley deltas by coalition mask, parallelizes over instance
// chunks, and keeps all scratch in reusable per-thread arenas so the
// steady state allocates nothing. Results are bit-identical (0 ulp) to
// looping the matching per-instance entry point over the rows, at any
// thread count and with SIMD on or off — both paths share the same leaf
// arithmetic and replicate the same chunked pairwise reductions. See
// DESIGN.md §9 for the layout, the arena contract, and the determinism
// argument.
//
// GBMs are additive in *margin* space only — sigmoid(sum of trees) does
// not factor — so the GBM entry point explains the margin; probability-
// space attributions for GBMs stay on the generic engines.
//
// The `PathDependentGame` helpers expose the EXPVALUE coalition game so
// tests and benches can pit these algorithms against ExactShapley as the
// reference oracle.

#ifndef XFAIR_EXPLAIN_TREE_SHAP_H_
#define XFAIR_EXPLAIN_TREE_SHAP_H_

#include <vector>

#include "src/explain/shap.h"
#include "src/model/decision_tree.h"
#include "src/model/gbm.h"
#include "src/model/random_forest.h"

namespace xfair {

/// Attributions plus the value the attributions are measured against:
/// phi sums to f(x) - base_value (efficiency).
struct TreeShapExplanation {
  Vector phi;               ///< One attribution per feature.
  double base_value = 0.0;  ///< E[f] under the algorithm's background.
};

/// Path-dependent TreeSHAP: exact Shapley values of the cover-weighted
/// EXPVALUE game. base_value is the cover-weighted mean prediction.
/// O(leaves * depth^2); requires every split-path to touch <= 64 distinct
/// features.
TreeShapExplanation PathDependentTreeShap(const DecisionTree& tree,
                                          const Vector& x);
/// Forest variant: attributions of the tree-mean output (trees reduce in
/// a fixed pairwise order — thread-count invariant).
TreeShapExplanation PathDependentTreeShap(const RandomForest& forest,
                                          const Vector& x);
/// GBM variant in margin space: phi explains bias + lr * sum_t tree_t(x).
TreeShapExplanation PathDependentTreeShapMargin(
    const GradientBoostedTrees& gbm, const Vector& x);

/// Interventional TreeSHAP: exact Shapley values of the masking game over
/// `background` rows — the same game ShapExplainInstance uses, evaluated
/// in closed form instead of by coalition enumeration. base_value is the
/// mean background prediction.
TreeShapExplanation InterventionalTreeShap(const DecisionTree& tree,
                                           const Matrix& background,
                                           const Vector& x);
TreeShapExplanation InterventionalTreeShap(const RandomForest& forest,
                                           const Matrix& background,
                                           const Vector& x);

/// Fairness fast path (fairness_shap kMask mode): exact Shapley values of
/// the game sum_i weights[i] * [tree(r_i with coalition features kept,
/// others masked to z) >= tau], where r_i is row rows[i] of xs. By
/// linearity this is the weighted sum of per-row interventional SHAP on
/// the {0,1}-thresholded tree. Returns the attribution vector (the game's
/// empty-coalition value is weights-weighted [tree(z) >= tau], which the
/// caller already tracks as its baseline gap).
///
/// Runs as one SoA tile sweep per thresholded tree (DESIGN §10):
/// incremental coalition masks, per-mask leaf-delta memoization, and
/// grow-only arenas, bit-identical (0 ulp) at any thread count and SIMD
/// setting to one independent interventional walk per row with the same
/// tiling and cross-tile combine (the looped reference in
/// tests/oracles/tree_shap_oracle.h).
Vector InterventionalTreeShapThresholded(const DecisionTree& tree,
                                         const Matrix& xs,
                                         const std::vector<size_t>& rows,
                                         const Vector& weights,
                                         const Vector& z, double tau);

/// A batch of explanations: row i of `phi` explains instance i.
struct TreeShapBatchExplanation {
  Matrix phi;          ///< rows x features attribution matrix.
  Vector base_values;  ///< One base value per row.
};

/// Batched path-dependent TreeSHAP: one SHAP vector per row of `xs`,
/// bit-identical (0 ulp) to calling the per-instance overload on every
/// row, at any thread count. Instances fan out over DeterministicChunks;
/// within a chunk the engine walks each tree once per SoA instance tile
/// and memoizes leaf deltas by coalition mask. The `Into` forms reuse the
/// caller's buffers (resized only when the shape changes); per-thread
/// scratch arenas make repeated same-shape calls allocation-free.
void TreeShapBatchInto(const DecisionTree& tree, const Matrix& xs,
                       Matrix* phi, Vector* base_values);
void TreeShapBatchInto(const RandomForest& forest, const Matrix& xs,
                       Matrix* phi, Vector* base_values);
/// GBM batch in margin space (see PathDependentTreeShapMargin).
void TreeShapBatchMarginInto(const GradientBoostedTrees& gbm,
                             const Matrix& xs, Matrix* phi,
                             Vector* base_values);

TreeShapBatchExplanation TreeShapBatch(const DecisionTree& tree,
                                       const Matrix& xs);
TreeShapBatchExplanation TreeShapBatch(const RandomForest& forest,
                                       const Matrix& xs);
TreeShapBatchExplanation TreeShapBatchMargin(const GradientBoostedTrees& gbm,
                                             const Matrix& xs);

/// Batched interventional TreeSHAP: per row of `xs`, bit-identical to the
/// per-instance overload with the same `background`. Parallel over
/// instances (each instance replays the per-instance background-chunk
/// reduction exactly), with node conversion cached and path scratch
/// arena-backed.
void InterventionalTreeShapBatchInto(const DecisionTree& tree,
                                     const Matrix& background,
                                     const Matrix& xs, Matrix* phi,
                                     Vector* base_values);
void InterventionalTreeShapBatchInto(const RandomForest& forest,
                                     const Matrix& background,
                                     const Matrix& xs, Matrix* phi,
                                     Vector* base_values);
TreeShapBatchExplanation InterventionalTreeShapBatch(const DecisionTree& tree,
                                                     const Matrix& background,
                                                     const Matrix& xs);
TreeShapBatchExplanation InterventionalTreeShapBatch(
    const RandomForest& forest, const Matrix& background, const Matrix& xs);

/// The EXPVALUE coalition game (exponential reference for the
/// path-dependent algorithm): v(S) descends x's branch for features in S
/// and cover-averages both children otherwise. Captures copies of the
/// model's nodes and of x; safe to call concurrently.
CoalitionValue PathDependentGame(const DecisionTree& tree, const Vector& x);
CoalitionValue PathDependentGame(const RandomForest& forest, const Vector& x);
/// Margin-space game for GBMs: bias + lr * sum_t EXPVALUE_t(S).
CoalitionValue PathDependentGameMargin(const GradientBoostedTrees& gbm,
                                       const Vector& x);

}  // namespace xfair

#endif  // XFAIR_EXPLAIN_TREE_SHAP_H_
