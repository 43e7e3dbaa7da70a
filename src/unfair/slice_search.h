// Vertical-bitset slice-discovery engine (paper §IV-B subgroup search;
// ROADMAP "intersectional and k-group fairness" direction). The
// intersectional lattice (race×gender×age…) is searched level by level:
// every (column, bin) single condition owns an n-row bitvector built
// once, a depth-k candidate's extent is the word-wise AND of k single
// bitvectors, its support is a popcount sweep, and per-row reductions
// (influence mass, hit/relevant counts) are masked sweeps over the
// extent. Gopher's pattern scoring (src/unfair/gopher.cc) and the
// WorstSliceSearch audit below both run on this engine; see DESIGN.md
// §11 for the layout and the determinism argument.

#ifndef XFAIR_UNFAIR_SLICE_SEARCH_H_
#define XFAIR_UNFAIR_SLICE_SEARCH_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/model/model.h"
#include "src/unfair/actions.h"

namespace xfair {

/// Vertical (transposed) bitset index over discretized rows: each
/// indexed (column, bin) single owns an n-row bitvector (uint64 words,
/// bit i of word i/64 = row i; bits past row n-1 in the last word are
/// zero). Built once per search with Discretizer::BinOf, so extents
/// agree bit for bit with any per-row binning loop over the same data.
class SliceExtentIndex {
 public:
  /// Indexes `columns` of `data` (empty = every feature, ascending).
  /// Columns are indexed in the given order; canonical lattice extension
  /// appends singles of strictly later columns, so pass them sorted.
  SliceExtentIndex(const Discretizer& disc, const Dataset& data,
                   const std::vector<size_t>& columns = {});

  size_t rows() const { return n_; }
  /// uint64 words per extent bitvector.
  size_t words() const { return words_; }
  /// Total singles (one per indexed (column, bin) pair), in column-major
  /// sid order: sids of one column are contiguous, bins ascending.
  size_t num_singles() const { return conditions_.size(); }

  const uint64_t* extent(size_t sid) const {
    return bits_.data() + sid * words_;
  }
  size_t support(size_t sid) const { return supports_[sid]; }
  /// The (dataset column, bin) condition of single `sid`.
  const std::pair<size_t, size_t>& condition(size_t sid) const {
    return conditions_[sid];
  }
  /// Rank of the column owning `sid` in the indexed-column order.
  size_t column_rank(size_t sid) const { return column_rank_[sid]; }

 private:
  size_t n_ = 0, words_ = 0;
  std::vector<uint64_t> bits_;
  std::vector<size_t> supports_;
  std::vector<std::pair<size_t, size_t>> conditions_;
  std::vector<size_t> column_rank_;
};

/// One candidate conjunction viewed during a lattice walk.
struct LatticeNode {
  /// The node's single ids (into SliceExtentIndex), `depth` of them,
  /// with strictly ascending column ranks.
  const uint32_t* sids = nullptr;
  size_t depth = 0;
  /// Extent bitvector (index.words() words): rows matching every single.
  const uint64_t* extent = nullptr;
  size_t support = 0;  ///< Popcount of `extent`.
};

/// What the walk pruned and materialized, for observability counters.
struct LatticeWalkStats {
  size_t singles_zero_support = 0;  ///< Dead (empty-bin) singles dropped.
  size_t singles_infrequent = 0;    ///< Singles with 0 < support < min_count.
  size_t candidates = 0;            ///< Nodes materialized over all depths.
};

/// Level-wise pruned walk of the conjunction lattice over the index's
/// singles. Depth-1 candidates are the frequent singles (support >=
/// min_count; zero-support and infrequent singles are dropped up front —
/// any child of an infrequent single is itself infrequent, so dropping
/// them cannot change what a caller reports). Each deeper candidate's
/// extent is its parent's extent ANDed with one frequent single of a
/// strictly later column (canonical order, no rescan of rows).
///
/// Per level the walk calls `begin_level(count)` once, then `score(ci,
/// node)` for every level candidate from a ParallelFor (ci is the
/// level-local index; candidates are independent, so any thread count
/// produces the same values), then `admit(ci, node)` sequentially in
/// canonical candidate order. A node is extended iff its support
/// reaches min_count and admit returned true — admit is where callers
/// collect results and apply bound-based cutoffs.
LatticeWalkStats LatticeWalk(
    const SliceExtentIndex& index, size_t min_count, size_t max_depth,
    const std::function<void(size_t)>& begin_level,
    const std::function<void(size_t, const LatticeNode&)>& score,
    const std::function<bool(size_t, const LatticeNode&)>& admit);

/// Per-slice group metric a worst-slice audit ranks by. Rates where
/// lower is worse for the slice's members, except kFalsePositiveRate
/// where higher is worse (e.g. recidivism-style harms).
enum class SliceMetricKind {
  kSelectionRate,      ///< P(yhat = 1 | slice): base-rate favorability.
  kAccuracy,           ///< P(yhat = y | slice).
  kTruePositiveRate,   ///< P(yhat = 1 | slice, y = 1): equal opportunity.
  kFalsePositiveRate,  ///< P(yhat = 1 | slice, y = 0): higher = worse.
};

/// Minimum slice support of WorstSliceSearch, as a fraction of the
/// dataset: the apriori frequency floor.
inline constexpr double kSliceMinSupport = 0.02;

/// Options for WorstSliceSearch.
struct SliceSearchOptions {
  /// Dataset columns to slice over (sorted + deduped internally).
  /// Empty = all features, which includes the sensitive column — the
  /// intersectional audit the paper's subgroup methods assume.
  std::vector<size_t> columns;
  size_t bins = 3;           ///< Discretizer quantile bins per column.
  size_t max_conditions = 3; ///< Lattice depth (intersection arity).
  size_t top_k = 5;          ///< Worst slices to return.
  SliceMetricKind metric = SliceMetricKind::kSelectionRate;
};

/// One audited subgroup and its metric.
struct SliceStat {
  /// Conjunction of (dataset column, bin) conditions defining the slice.
  std::vector<std::pair<size_t, size_t>> conditions;
  std::string description;
  size_t support = 0;   ///< Rows matching the conjunction.
  size_t relevant = 0;  ///< Metric-denominator rows within the slice.
  size_t hits = 0;      ///< Metric-numerator rows within the slice.
  double metric_value = 0.0;     ///< hits / relevant.
  double gap_to_overall = 0.0;   ///< metric_value - overall_metric.
};

/// Worst-off subgroups, worst first.
struct WorstSliceReport {
  std::vector<SliceStat> slices;  ///< Top-k by badness (total order).
  double overall_metric = 0.0;    ///< Same metric over the whole dataset.
  size_t slices_examined = 0;     ///< Qualifying slices ranked.
  size_t lattice_candidates = 0;  ///< Candidates materialized/scored.
};

/// Finds the top-k worst-off intersectional subgroups of `data` under
/// `model` by the chosen metric, searching conjunctions of up to
/// max_conditions discretized conditions over the chosen columns.
/// Slices below kSliceMinSupport or with an empty metric denominator are
/// skipped. Ranking is a total order (badness, then larger support,
/// then lexicographic conditions), so results are deterministic at any
/// thread count and identical to the looped per-row oracle in
/// tests/oracles/subgroup_oracle.h.
WorstSliceReport WorstSliceSearch(const Model& model, const Dataset& data,
                                  const SliceSearchOptions& options);

}  // namespace xfair

#endif  // XFAIR_UNFAIR_SLICE_SEARCH_H_
