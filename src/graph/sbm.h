// Stochastic-block-model generator with planted group homophily — the
// "topologically biased structure" of paper §II: nodes of the same
// protected group link preferentially, so message passing leaks group
// membership into predictions even when features are mildly informative.

#ifndef XFAIR_GRAPH_SBM_H_
#define XFAIR_GRAPH_SBM_H_

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace xfair {

/// Knobs for the biased SBM.
struct SbmConfig {
  size_t num_nodes = 300;
  /// Edge probability within a group.
  double p_intra = 0.08;
  /// Edge probability across groups; homophily bias = p_intra - p_inter.
  double p_inter = 0.01;
  /// How strongly node features carry the label signal.
  double feature_signal = 1.0;
  /// Additive shift of label propensity against the protected group.
  double label_shift = 0.8;
};

/// Samples a GraphData with planted homophily and label bias.
GraphData GenerateSbm(const SbmConfig& config, uint64_t seed);

}  // namespace xfair

#endif  // XFAIR_GRAPH_SBM_H_
