// Polynomial-time SHAP for tree models (Lundberg et al.'s interventional
// TreeSHAP, derived here in closed form).
//
// The exponential Shapley engines in shap.h enumerate (or sample) 2^d
// coalitions and re-evaluate the model for each. For trees the coalition
// game factors over root-to-leaf paths. Interventional TreeSHAP
// (`InterventionalTreeShap`) takes absent features from explicit
// background rows — *exactly* the masking game ShapExplainInstance
// evaluates, so its results are interchangeable with ExactShapley over
// that game (up to float roundoff). Per background row and leaf, only the
// features where x and the background row disagree on the merged interval
// matter (p features only x passes, q features only the background
// passes), and the Shapley weight has the closed form
// (p-1)! q! / (p+q)! — O(background * paths * depth) total.
//
// Every entry point runs on the deterministic parallel runtime and is
// bit-identical for every XFAIR_THREADS setting:
//
// - per instance, background rows fan out over DeterministicChunks and
//   partial attributions merge in a fixed pairwise tree; a DecisionTree
//   is the one-tree case of the forest engine;
// - the batch (`InterventionalTreeShapBatch`, what ShapExplainBatch
//   serves) runs rows in parallel and replays the per-instance
//   background reduction for each row, so it matches the per-instance
//   call at 0 ulp (DESIGN.md §9);
// - the thresholded sweep (`InterventionalTreeShapThresholded`, the
//   fairness-SHAP fast path) walks SoA instance tiles through the
//   {0,1}-thresholded tree with memoized leaf deltas (DESIGN.md §10).
//
// Scratch lives in grow-only per-thread arenas, so repeated same-shape
// calls allocate nothing. GBMs are additive in margin space only —
// sigmoid(sum of trees) does not factor — so their attributions stay on
// the generic engines in shap.h.

#ifndef XFAIR_EXPLAIN_TREE_SHAP_H_
#define XFAIR_EXPLAIN_TREE_SHAP_H_

#include <vector>

#include "src/explain/shap.h"
#include "src/model/decision_tree.h"
#include "src/model/random_forest.h"

namespace xfair {

/// Attributions plus the value the attributions are measured against:
/// phi sums to f(x) - base_value (efficiency).
struct TreeShapExplanation {
  Vector phi;               ///< One attribution per feature.
  double base_value = 0.0;  ///< E[f] under the algorithm's background.
};

/// Interventional TreeSHAP: exact Shapley values of the masking game over
/// `background` rows — the same game ShapExplainInstance uses, evaluated
/// in closed form instead of by coalition enumeration. base_value is the
/// mean background prediction. Requires every split-path to touch <= 64
/// distinct features.
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

/// Batched interventional TreeSHAP: per row of `xs`, bit-identical to the
/// per-instance overload with the same `background`. Parallel over
/// instances (each instance replays the per-instance background-chunk
/// reduction exactly), with node conversion cached and path scratch
/// arena-backed. The `Into` forms reuse the caller's buffers (resized
/// only when the shape changes).
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

}  // namespace xfair

#endif  // XFAIR_EXPLAIN_TREE_SHAP_H_
