// Structural explanation of bias in GNNs [89] (paper §IV-C): for a target
// node, identify the edge sets in its computational graph that maximally
// account for the exhibited bias and maximally contribute to fairness.
// Operationalized on the SGC model: each candidate edge's removal is
// scored by its effect on the model's parity gap; edges whose removal
// shrinks the gap form the bias-accounting set, edges whose removal widens
// it form the fairness-contributing set.

#ifndef XFAIR_BEYOND_STRUCTURAL_BIAS_H_
#define XFAIR_BEYOND_STRUCTURAL_BIAS_H_

#include "src/graph/sgc.h"

namespace xfair {

/// One edge's attribution.
struct EdgeAttribution {
  std::pair<size_t, size_t> edge;
  /// parity_gap(without edge) - parity_gap(with edge): negative = the edge
  /// contributes to bias (removing it helps).
  double gap_change = 0.0;
  /// Change in the target node's own favorable score when removed.
  double node_score_change = 0.0;
};

/// Explanation of one node's bias in terms of its local edges.
struct StructuralBiasReport {
  size_t node = 0;
  /// Edges in the node's `hops`-hop computation graph, most
  /// bias-accounting first (ascending gap_change).
  std::vector<EdgeAttribution> attributions;
  /// Top edges whose removal reduces the global parity gap.
  std::vector<std::pair<size_t, size_t>> bias_edge_set;
  /// Top edges whose removal increases the gap (they were helping).
  std::vector<std::pair<size_t, size_t>> fairness_edge_set;
};

/// Options for ExplainNodeBias.
struct StructuralBiasOptions {
  size_t max_set_size = 5;
};

/// Scores every edge in `node`'s computation graph (all edges within
/// `model.hops()` hops) by leave-one-edge-out re-evaluation.
StructuralBiasReport ExplainNodeBias(const SgcModel& model,
                                     const GraphData& data, size_t node,
                                     const StructuralBiasOptions& options);

}  // namespace xfair

#endif  // XFAIR_BEYOND_STRUCTURAL_BIAS_H_
