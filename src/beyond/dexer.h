// Dexer [88] (paper §IV-C): detect and explain biased representation in
// ranking. Given tuples ranked by a score over attributes and a group
// under-represented in the top-k, Shapley values over *attributes* tell
// which attributes drive the disparity; the report also carries the value
// distributions Dexer visualizes (group vs top-k quantiles).

#ifndef XFAIR_BEYOND_DEXER_H_
#define XFAIR_BEYOND_DEXER_H_

#include <array>
#include <functional>
#include <string>

#include "src/data/dataset.h"
#include "src/util/rng.h"

namespace xfair {

/// A ranking task: score tuples of `data` by `scorer` (higher = better).
using TupleScorer = std::function<double(const Vector&)>;

/// Representation audit of the protected group in the top-k.
struct DexerDetection {
  double topk_share = 0.0;     ///< Protected share of the top-k.
  double overall_share = 0.0;  ///< Protected share of all tuples.
  /// overall - topk: positive = protected group under-represented.
  double representation_gap = 0.0;
};

/// Per-attribute Shapley explanation of the representation gap.
struct DexerReport {
  DexerDetection detection;
  std::vector<std::string> attribute_names;
  /// Shapley contribution of each attribute to the representation gap
  /// (attributes outside the coalition are neutralized to their mean).
  Vector attributions;
  std::vector<size_t> ranked_attributes;  ///< By descending contribution.
  /// Quantiles (25/50/75%) of each attribute within the protected group
  /// and within the top-k, for the Dexer-style distribution comparison.
  std::vector<std::array<double, 3>> group_quantiles;
  std::vector<std::array<double, 3>> topk_quantiles;
};

/// Options for ExplainRankingRepresentation.
struct DexerOptions {
  size_t top_k = 50;
  uint64_t seed = 23;
};

/// Detects and explains the protected group's representation in the
/// top-k of the ranking induced by `scorer` over `data`.
DexerReport ExplainRankingRepresentation(const Dataset& data,
                                         const TupleScorer& scorer,
                                         const DexerOptions& options);

}  // namespace xfair

#endif  // XFAIR_BEYOND_DEXER_H_
