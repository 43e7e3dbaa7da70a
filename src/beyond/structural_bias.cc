#include "src/beyond/structural_bias.h"

#include <algorithm>

namespace xfair {

namespace {

/// Only edges with |gap_change| above this enter the sets.
constexpr double kMinEffect = 1e-6;

}  // namespace

StructuralBiasReport ExplainNodeBias(const SgcModel& model,
                                     const GraphData& data, size_t node,
                                     const StructuralBiasOptions& options) {
  XFAIR_CHECK(node < data.graph.num_nodes());
  StructuralBiasReport report;
  report.node = node;

  // Collect nodes within hops of the target (the computation graph).
  std::vector<bool> in_scope(data.graph.num_nodes(), false);
  std::vector<size_t> frontier = {node};
  in_scope[node] = true;
  for (size_t hop = 0; hop < model.hops(); ++hop) {
    std::vector<size_t> next;
    for (size_t u : frontier) {
      for (size_t v : data.graph.Neighbors(u)) {
        if (!in_scope[v]) {
          in_scope[v] = true;
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }

  const double base_gap =
      model.ParityGapOnGraph(data.graph, data.features, data.groups);
  const double base_score =
      model.ScoreOnGraph(data.graph, data.features, node);

  // Leave-one-edge-out over in-scope edges.
  Graph perturbed = data.graph;
  for (const auto& [u, v] : data.graph.Edges()) {
    if (!in_scope[u] || !in_scope[v]) continue;
    perturbed.RemoveEdge(u, v);
    EdgeAttribution attr;
    attr.edge = {u, v};
    attr.gap_change =
        model.ParityGapOnGraph(perturbed, data.features, data.groups) -
        base_gap;
    attr.node_score_change =
        model.ScoreOnGraph(perturbed, data.features, node) - base_score;
    report.attributions.push_back(attr);
    perturbed.AddEdge(u, v);
  }

  std::sort(report.attributions.begin(), report.attributions.end(),
            [](const EdgeAttribution& a, const EdgeAttribution& b) {
              return a.gap_change < b.gap_change;
            });
  for (const auto& attr : report.attributions) {
    if (attr.gap_change < -kMinEffect &&
        report.bias_edge_set.size() < options.max_set_size) {
      report.bias_edge_set.push_back(attr.edge);
    }
  }
  for (auto it = report.attributions.rbegin();
       it != report.attributions.rend(); ++it) {
    if (it->gap_change > kMinEffect &&
        report.fairness_edge_set.size() < options.max_set_size) {
      report.fairness_edge_set.push_back(it->edge);
    }
  }
  return report;
}

}  // namespace xfair
