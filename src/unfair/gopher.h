// Gopher-style data-based explanations [63], [83] (paper §IV-B): explain
// unfairness by the *training data* — find interpretable patterns
// (conjunctions of bounds on feature values) whose removal or relabeling
// from the training set most reduces the model's parity gap. Candidate
// patterns are scored cheaply with influence functions on the
// vertical-bitset lattice engine (src/unfair/slice_search.h): extents are
// word-wise ANDs of single bitvectors, supports are popcounts and
// estimates are kernels::MaskedSumU64 sweeps. The top ones are then
// verified by actual retraining. tests/oracles/subgroup_oracle.h keeps a
// looped per-candidate scan the engine is pinned against at 0 ulp.

#ifndef XFAIR_UNFAIR_GOPHER_H_
#define XFAIR_UNFAIR_GOPHER_H_

#include <string>

#include "src/model/logistic_regression.h"
#include "src/unfair/actions.h"

namespace xfair {

/// One pattern and its estimated/verified effect on the parity gap.
struct GopherPattern {
  /// Conjunction of (feature, bin) conditions over the training data.
  std::vector<std::pair<size_t, size_t>> conditions;
  std::string description;
  size_t support = 0;  ///< Matching training instances.
  /// Influence-function estimate of the parity-gap change when the
  /// matching subset is removed (negative = removal reduces the gap).
  double estimated_gap_change = 0.0;
  /// Gap change measured by actually retraining without the subset
  /// (filled only for the verified top-k).
  double verified_gap_change = 0.0;
  bool verified = false;
  /// |estimated change| / support: unfairness concentration, the Gopher
  /// interestingness score.
  double interestingness = 0.0;
};

/// Largest pattern support Gopher scores, as a fraction of the training
/// set: patterns larger than this explain nothing.
inline constexpr double kGopherMaxSupport = 0.5;

/// Options for ExplainUnfairnessByPatterns.
struct GopherOptions {
  size_t bins = 3;
  size_t max_conditions = 2;
  double min_support = 0.02;  ///< Of the training set.
  size_t top_k = 5;           ///< Patterns to verify by retraining.
  /// Skip extending subgroups whose total negative influence mass cannot
  /// beat the current top-k (an optimistic bound: any sub-slice's
  /// estimate is a subset sum, so it is at least the parent extent's
  /// negative mass). Never changes the reported top-k patterns; it only
  /// shrinks patterns_examined. Needs top_k > 0.
  bool optimistic_prune = true;
};

/// Gopher report: patterns sorted by descending estimated gap reduction.
struct GopherReport {
  std::vector<GopherPattern> patterns;  ///< Top-k, verified.
  double original_gap = 0.0;            ///< Parity gap of the input model.
  size_t patterns_examined = 0;  ///< In-support-band patterns scored.
  size_t candidates_scored = 0;  ///< Lattice candidates materialized.
  size_t bound_pruned = 0;  ///< Extensions cut by the optimistic bound.
};

/// `model` must be a logistic regression fitted on `train` (influence
/// functions need its Hessian). Returns kFailedPrecondition if the
/// Hessian is singular.
Result<GopherReport> ExplainUnfairnessByPatterns(
    const LogisticRegression& model, const Dataset& train,
    const GopherOptions& options);

}  // namespace xfair

#endif  // XFAIR_UNFAIR_GOPHER_H_
