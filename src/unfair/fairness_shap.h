// Fairness Shapley decomposition [81] (paper §IV-B): the Shapley engine of
// src/explain/shap.h applied to a *fairness* value function — v(S) is the
// model disparity attributable to the coalition S of features, so phi_i is
// feature i's contribution to the parity gap rather than to accuracy.
//
// Two value functions are provided, mirroring the two practical regimes:
//  - retraining (faithful but slow): v(S) = parity gap of a fresh logistic
//    model trained on feature subset S;
//  - masking (fast, model-agnostic): v(S) = parity gap of the fixed model
//    with features outside S marginalized to group-agnostic background
//    values.
//
// In masking mode a DecisionTree model skips coalition enumeration: the
// masked parity gap is a weighted sum of per-row masking games on the
// hard-thresholded tree, which exact polynomial TreeSHAP solves in one
// batched sweep (src/explain/tree_shap.h, DESIGN §10). Its attributions
// agree with the generic engine, exactly where that engine is itself
// exact (d <= 10). Every other Model, a tree behind a wrapper that only
// forwards the Model interface included, takes the generic engine.

#ifndef XFAIR_UNFAIR_FAIRNESS_SHAP_H_
#define XFAIR_UNFAIR_FAIRNESS_SHAP_H_

#include <string>

#include "src/explain/shap.h"

namespace xfair {

/// How coalitions are evaluated.
enum class FairnessShapMode {
  kRetrain,  ///< Train a logistic model per coalition.
  kMask,     ///< Marginalize absent features on the fixed model.
};

/// Per-feature contributions to the statistical parity difference.
struct FairnessShapReport {
  std::vector<std::string> feature_names;
  Vector contributions;  ///< Sum to (full-model gap) - (baseline gap).
  double full_gap = 0.0;      ///< Parity gap with all features.
  double baseline_gap = 0.0;  ///< Parity gap with no features.
  std::vector<size_t> ranked_features;  ///< By descending contribution.
};

/// Options for ExplainParityWithShapley.
struct FairnessShapOptions {
  FairnessShapMode mode = FairnessShapMode::kMask;
  /// Background rows used by the masking mode (sampled from data).
  size_t background_size = 30;
  uint64_t seed = 17;
};

/// Decomposes the statistical parity difference of `model` on `data` into
/// per-feature Shapley contributions. In kRetrain mode `model` is ignored
/// (each coalition trains its own) and the decomposition explains the
/// disparity of the model *family*; in kMask mode it explains the given
/// model.
FairnessShapReport ExplainParityWithShapley(
    const Model& model, const Dataset& data,
    const FairnessShapOptions& options);

/// Slice-scale audit: decomposes the parity gap of the rows named by
/// `slice` (indices into `data`) in one call, without materializing a
/// sub-dataset. Bit-identical at every thread count to
/// ExplainParityWithShapley(model, data.Subset(slice), options): the
/// background means, row sampling, and engine dispatch all see the slice
/// rows in slice order. kMask mode reads the slice in place (tree models
/// take the batched thresholded sweep, other models the coalition-tiled
/// generic path); kRetrain mode materializes the subset, since coalition
/// models are fitted on it. Slices whose sampled rows all land in one
/// group get the PR 3 sentinel treatment: a zero-contribution report
/// (both gaps 0) instead of an inf-weighted game.
FairnessShapReport FairnessShapBatch(const Model& model, const Dataset& data,
                                     const std::vector<size_t>& slice,
                                     const FairnessShapOptions& options);

}  // namespace xfair

#endif  // XFAIR_UNFAIR_FAIRNESS_SHAP_H_
