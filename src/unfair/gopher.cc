#include "src/unfair/gopher.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>

#include "src/explain/influence.h"
#include "src/fairness/group_metrics.h"
#include "src/obs/obs.h"
#include "src/unfair/slice_search.h"
#include "src/util/kernels.h"
#include "src/util/parallel.h"

namespace xfair {
namespace {

/// Instance-major table of discretized bins, computed once so the apriori
/// scan does array compares instead of re-binning every (row, condition)
/// pair.
class BinTable {
 public:
  BinTable(const Discretizer& disc, const Dataset& data)
      : n_(data.size()), d_(data.num_features()), bins_(n_ * d_) {
    ParallelFor(0, n_, [&](size_t i) {
      for (size_t f = 0; f < d_; ++f) {
        bins_[i * d_ + f] =
            static_cast<uint16_t>(disc.BinOf(f, data.x().At(i, f)));
      }
    });
  }

  bool Matches(size_t i, const Conditions& conditions) const {
    for (const auto& [f, b] : conditions) {
      if (bins_[i * d_ + f] != b) return false;
    }
    return true;
  }

  uint16_t bin(size_t i, size_t f) const { return bins_[i * d_ + f]; }

 private:
  size_t n_, d_;
  std::vector<uint16_t> bins_;
};

}  // namespace

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

  Discretizer disc(train, options.bins);
  const BinTable bins(disc, train);
  const size_t n = train.size();
  const size_t min_count = std::max<size_t>(
      1, static_cast<size_t>(options.min_support * static_cast<double>(n)));
  const size_t max_count = static_cast<size_t>(
      options.max_support * static_cast<double>(n));

  std::vector<GopherPattern> scored;
  const auto collect = [&](const Conditions& cand, size_t support,
                           double estimate) {
    GopherPattern p;
    p.conditions = cand;
    p.description = disc.Describe(train.schema(), cand);
    p.support = support;
    p.estimated_gap_change = estimate;
    p.interestingness = std::fabs(estimate) / static_cast<double>(support);
    scored.push_back(std::move(p));
  };

  if (options.use_bitset_engine) {
    // Vertical-bitset lattice engine (DESIGN.md §11): extents by word-wise
    // AND, supports by popcount, estimates by a masked influence sweep.
    // Every depth takes this path — no dense pair table, no per-candidate
    // row scan, no num_sids cap.
    XFAIR_SPAN("gopher/lattice_engine");
    SliceExtentIndex index(disc, train);
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
            Conditions cand(node.depth);
            for (size_t k = 0; k < node.depth; ++k)
              cand[k] = index.condition(node.sids[k]);
            collect(cand, node.support, estimates[ci]);
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
  } else {
    // Looped golden oracle: level-wise apriori with one BinTable::Matches
    // row scan per candidate. Each candidate's mask is built bit by bit
    // and reduced with the scalar reference masked sum, so its estimate is
    // bit-identical to the engine's (the kernel contract pins dispatched
    // == scalar at 0 ulp) and the engine tests can demand EXPECT_EQ.
    std::vector<Conditions> singles;
    for (size_t f = 0; f < train.num_features(); ++f) {
      for (size_t b = 0; b < disc.NumBins(f); ++b) singles.push_back({{f, b}});
    }
    const size_t words = (n + 63) / 64;
    std::vector<Conditions> current = singles;
    for (size_t depth = 1; depth <= options.max_conditions && !current.empty();
         ++depth) {
      XFAIR_SPAN("gopher/apriori_depth");
      XFAIR_COUNTER_ADD("gopher/candidates_scored", current.size());
      report.candidates_scored += current.size();
      std::vector<size_t> supports(current.size(), 0);
      Vector estimates(current.size(), 0.0);
      ParallelFor(0, current.size(), [&](size_t ci) {
        const Conditions& cand = current[ci];
        std::vector<uint64_t> mask(words, 0);
        size_t support = 0;
        for (size_t i = 0; i < n; ++i) {
          if (!bins.Matches(i, cand)) continue;
          mask[i >> 6] |= uint64_t{1} << (i & 63);
          ++support;
        }
        supports[ci] = support;
        estimates[ci] =
            kernels::detail::MaskedSumU64Scalar(influence.data(), mask.data(), n);
      });
      // Collect the frequent and scored patterns in candidate order.
      std::vector<Conditions> next;
      for (size_t ci = 0; ci < current.size(); ++ci) {
        if (supports[ci] < min_count) continue;
        next.push_back(current[ci]);  // Frequent: extendable next depth.
        if (supports[ci] > max_count) continue;
        collect(current[ci], supports[ci], estimates[ci]);
      }
      if (depth == options.max_conditions) break;
      // Extend frequent patterns by one canonical-order condition.
      std::vector<Conditions> extended;
      for (const auto& base : next) {
        if (base.size() != depth) continue;
        for (const auto& ext : singles) {
          if (ext[0].first <= base.back().first) continue;
          Conditions grown = base;
          grown.push_back(ext[0]);
          extended.push_back(std::move(grown));
        }
      }
      current = std::move(extended);
    }
  }
  report.patterns_examined = scored.size();
  XFAIR_COUNTER_ADD("gopher/patterns_examined", scored.size());

  // Most gap-reducing removals first (most negative estimated change).
  // Ties resolve by lexicographic conditions — a total order, so the
  // ranking is identical across engine/oracle paths and thread counts.
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
    for (size_t i = 0; i < n; ++i)
      if (!bins.Matches(i, p.conditions)) keep.push_back(i);
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
