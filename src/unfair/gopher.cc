#include "src/unfair/gopher.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "src/explain/influence.h"
#include "src/fairness/group_metrics.h"
#include "src/obs/obs.h"
#include "src/unfair/slice_search.h"
#include "src/util/kernels.h"
#include "src/util/parallel.h"

namespace xfair {

Result<GopherReport> ExplainUnfairnessByPatterns(
    const LogisticRegression& model, const Dataset& train,
    const GopherOptions& options) {
  XFAIR_SPAN("gopher/explain");
  GopherReport report;
  report.original_gap = StatisticalParityDifference(model, train);

  auto analyzer_result = InfluenceAnalyzer::Create(model, train);
  if (!analyzer_result.ok()) return analyzer_result.status();
  const InfluenceAnalyzer& analyzer = *analyzer_result;
  // Per-instance first-order effect on the gap of removing the instance.
  const Vector influence = analyzer.InfluenceOnParityGap(train);

  const Discretizer disc(train, options.bins);
  const size_t n = train.size();
  const size_t min_count = std::max<size_t>(
      1, static_cast<size_t>(options.min_support * static_cast<double>(n)));
  const size_t max_count = static_cast<size_t>(
      kGopherMaxSupport * static_cast<double>(n));

  // Vertical-bitset lattice engine (DESIGN.md §11): extents by word-wise
  // AND, supports by popcount, estimates by a masked influence sweep.
  std::vector<GopherPattern> scored;
  {
    XFAIR_SPAN("gopher/lattice_engine");
    const SliceExtentIndex index(disc, train);
    // Optimistic bound: a sub-slice's estimate is a subset sum of its
    // ancestor's extent, so it can never fall below the extent's total
    // negative influence mass. Once the top-k heap is full, extents whose
    // negative mass cannot beat the k-th best estimate stop extending.
    const bool prune = options.optimistic_prune && options.top_k > 0;
    Vector neg_influence;
    if (prune) {
      neg_influence.resize(n);
      for (size_t i = 0; i < n; ++i)
        neg_influence[i] = std::min(influence[i], 0.0);
    }
    std::priority_queue<double> top_estimates;  // k smallest seen so far.
    size_t bound_pruned = 0;
    Vector estimates, bounds;
    const auto stats = LatticeWalk(
        index, min_count, options.max_conditions,
        /*begin_level=*/
        [&](size_t count) {
          estimates.assign(count, 0.0);
          if (prune) bounds.assign(count, 0.0);
        },
        /*score=*/
        [&](size_t ci, const LatticeNode& node) {
          estimates[ci] =
              kernels::MaskedSumU64(influence.data(), node.extent, n);
          if (prune) {
            bounds[ci] =
                kernels::MaskedSumU64(neg_influence.data(), node.extent, n);
          }
        },
        /*admit=*/
        [&](size_t ci, const LatticeNode& node) {
          if (node.support >= min_count && node.support <= max_count) {
            GopherPattern p;
            p.conditions.resize(node.depth);
            for (size_t k = 0; k < node.depth; ++k)
              p.conditions[k] = index.condition(node.sids[k]);
            p.description = disc.Describe(train.schema(), p.conditions);
            p.support = node.support;
            p.estimated_gap_change = estimates[ci];
            p.interestingness = std::fabs(estimates[ci]) /
                                static_cast<double>(node.support);
            scored.push_back(std::move(p));
            if (prune) {
              top_estimates.push(estimates[ci]);
              if (top_estimates.size() > options.top_k) top_estimates.pop();
            }
          }
          if (prune && top_estimates.size() == options.top_k) {
            // Strict-with-slack comparison: the slack absorbs the masked
            // sum's rounding, so a descendant whose true estimate ties the
            // k-th best is never cut and the reported top-k stays exact.
            const double bound =
                bounds[ci] - 1e-9 * (1.0 + std::fabs(bounds[ci]));
            if (bound > top_estimates.top()) {
              ++bound_pruned;
              return false;
            }
          }
          return true;
        });
    report.candidates_scored = stats.candidates;
    report.bound_pruned = bound_pruned;
    XFAIR_COUNTER_ADD("gopher/candidates_scored", stats.candidates);
    XFAIR_COUNTER_ADD("gopher/singles_pruned", stats.singles_zero_support);
    XFAIR_COUNTER_ADD("gopher/bound_pruned", bound_pruned);
  }
  report.patterns_examined = scored.size();
  XFAIR_COUNTER_ADD("gopher/patterns_examined", scored.size());

  // Most gap-reducing removals first (most negative estimated change).
  // Ties resolve by lexicographic conditions — a total order, so the
  // ranking is identical across thread counts and to the looped oracle.
  std::sort(scored.begin(), scored.end(),
            [](const GopherPattern& a, const GopherPattern& b) {
              if (a.estimated_gap_change != b.estimated_gap_change)
                return a.estimated_gap_change < b.estimated_gap_change;
              return a.conditions < b.conditions;
            });
  if (scored.size() > options.top_k) scored.resize(options.top_k);

  // Verify by actual retraining without the pattern's subset. Each
  // retrain is independent; fan them out.
  ParallelFor(0, scored.size(), [&](size_t pi) {
    GopherPattern& p = scored[pi];
    std::vector<size_t> keep;
    for (size_t i = 0; i < n; ++i) {
      const bool matches = std::all_of(
          p.conditions.begin(), p.conditions.end(), [&](const auto& c) {
            return disc.BinOf(c.first, train.x().At(i, c.first)) == c.second;
          });
      if (!matches) keep.push_back(i);
    }
    if (keep.size() < train.num_features() + 2) return;
    Dataset reduced = train.Subset(keep);
    LogisticRegression retrained;
    if (!retrained.Fit(reduced).ok()) return;
    p.verified_gap_change =
        StatisticalParityDifference(retrained, train) - report.original_gap;
    p.verified = true;
  });
  report.patterns = std::move(scored);
  return report;
}

}  // namespace xfair
