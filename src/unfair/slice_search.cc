#include "src/unfair/slice_search.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/obs/obs.h"
#include "src/util/check.h"
#include "src/util/kernels.h"
#include "src/util/parallel.h"

namespace xfair {
namespace {

/// Per-row numerator/denominator indicators for a slice metric: the
/// slice's metric is |extent ∩ hit| / |extent ∩ relevant|.
void MetricIndicators(SliceMetricKind metric, int yhat, int y, bool* hit,
                      bool* relevant) {
  const bool pos = yhat == 1;
  switch (metric) {
    case SliceMetricKind::kSelectionRate:
      *relevant = true;
      *hit = pos;
      break;
    case SliceMetricKind::kAccuracy:
      *relevant = true;
      *hit = pos == (y == 1);
      break;
    case SliceMetricKind::kTruePositiveRate:
      *relevant = y == 1;
      *hit = *relevant && pos;
      break;
    case SliceMetricKind::kFalsePositiveRate:
      *relevant = y == 0;
      *hit = *relevant && pos;
      break;
  }
}

}  // namespace

SliceExtentIndex::SliceExtentIndex(const Discretizer& disc,
                                   const Dataset& data,
                                   const std::vector<size_t>& columns)
    : n_(data.size()), words_((data.size() + 63) / 64) {
  std::vector<size_t> cols = columns;
  if (cols.empty()) {
    cols.resize(data.num_features());
    std::iota(cols.begin(), cols.end(), size_t{0});
  }
  std::vector<size_t> offset(cols.size() + 1, 0);
  for (size_t c = 0; c < cols.size(); ++c) {
    XFAIR_CHECK(cols[c] < data.num_features());
    offset[c + 1] = offset[c] + disc.NumBins(cols[c]);
  }
  const size_t num_sids = offset.back();
  bits_.assign(num_sids * words_, 0);
  supports_.assign(num_sids, 0);
  conditions_.resize(num_sids);
  column_rank_.resize(num_sids);
  for (size_t c = 0; c < cols.size(); ++c) {
    for (size_t b = 0; offset[c] + b < offset[c + 1]; ++b) {
      conditions_[offset[c] + b] = {cols[c], b};
      column_rank_[offset[c] + b] = c;
    }
  }
  // Each column owns a disjoint sid range, so the per-column fills never
  // touch the same words and the result is thread-count independent.
  ParallelFor(0, cols.size(), [&](size_t c) {
    const size_t f = cols[c];
    uint64_t* base = bits_.data() + offset[c] * words_;
    for (size_t i = 0; i < n_; ++i) {
      const size_t b = disc.BinOf(f, data.x().At(i, f));
      base[b * words_ + (i >> 6)] |= uint64_t{1} << (i & 63);
    }
    for (size_t sid = offset[c]; sid < offset[c + 1]; ++sid) {
      supports_[sid] = kernels::PopcountU64(extent(sid), words_);
    }
  });
}

LatticeWalkStats LatticeWalk(
    const SliceExtentIndex& index, size_t min_count, size_t max_depth,
    const std::function<void(size_t)>& begin_level,
    const std::function<void(size_t, const LatticeNode&)>& score,
    const std::function<bool(size_t, const LatticeNode&)>& admit) {
  XFAIR_SPAN("slice_search/lattice_walk");
  XFAIR_LATENCY_NS("latency/lattice_walk_ns");
  LatticeWalkStats stats;
  const size_t words = index.words();

  // Frequent singles in sid order — the depth-1 candidates and the only
  // viable extension set (a child of an infrequent single is infrequent).
  std::vector<uint32_t> frequent;
  for (size_t sid = 0; sid < index.num_singles(); ++sid) {
    if (index.support(sid) == 0) {
      ++stats.singles_zero_support;
    } else if (index.support(sid) < min_count) {
      ++stats.singles_infrequent;
    } else {
      frequent.push_back(static_cast<uint32_t>(sid));
    }
  }

  // Level state: flat sid tuples (depth entries per candidate) plus an
  // extent arena. Depth-1 extents alias the index; deeper levels own
  // theirs.
  std::vector<uint32_t> sids;
  std::vector<uint64_t> arena;
  std::vector<size_t> supports;
  size_t count = frequent.size();
  sids = frequent;
  supports.reserve(count);
  for (uint32_t s : frequent) supports.push_back(index.support(s));

  const auto node_at = [&](size_t ci, size_t depth) {
    LatticeNode node;
    node.sids = sids.data() + ci * depth;
    node.depth = depth;
    node.extent = depth == 1 ? index.extent(sids[ci])
                             : arena.data() + ci * words;
    node.support = supports[ci];
    return node;
  };

  for (size_t depth = 1; depth <= max_depth && count > 0; ++depth) {
    stats.candidates += count;
    XFAIR_COUNTER_ADD("slice_search/level_candidates", count);
    begin_level(count);
    {
      XFAIR_SPAN("slice_search/level_score");
      ParallelFor(0, count,
                  [&](size_t ci) { score(ci, node_at(ci, depth)); });
    }
    // Sequential admit in canonical order; collect the extendable nodes.
    std::vector<size_t> extend;
    {
      XFAIR_SPAN("slice_search/level_admit");
      for (size_t ci = 0; ci < count; ++ci) {
        const LatticeNode node = node_at(ci, depth);
        const bool grow = admit(ci, node);
        if (depth < max_depth && grow && node.support >= min_count) {
          extend.push_back(ci);
        }
      }
    }
    if (depth == max_depth || extend.empty()) break;
    XFAIR_SPAN("slice_search/level_extend");

    // Materialize the children: each extendable node crossed with every
    // frequent single of a strictly later column, in canonical order.
    std::vector<uint32_t> child_sids;
    std::vector<std::pair<size_t, uint32_t>> child_from;  // (parent ci, ext)
    for (size_t pi : extend) {
      const uint32_t last = sids[pi * depth + depth - 1];
      const size_t last_rank = index.column_rank(last);
      for (uint32_t ext : frequent) {
        if (index.column_rank(ext) <= last_rank) continue;
        child_sids.insert(child_sids.end(), sids.begin() + pi * depth,
                          sids.begin() + (pi + 1) * depth);
        child_sids.push_back(ext);
        child_from.emplace_back(pi, ext);
      }
    }
    const size_t child_count = child_from.size();
    std::vector<uint64_t> child_arena(child_count * words);
    std::vector<size_t> child_supports(child_count);
    ParallelFor(0, child_count, [&](size_t ci) {
      const auto& [pi, ext] = child_from[ci];
      const uint64_t* parent = depth == 1 ? index.extent(sids[pi])
                                          : arena.data() + pi * words;
      child_supports[ci] = kernels::AndPopcountU64(
          parent, index.extent(ext), child_arena.data() + ci * words, words);
    });
    sids = std::move(child_sids);
    arena = std::move(child_arena);
    supports = std::move(child_supports);
    count = child_count;
  }
  return stats;
}

WorstSliceReport WorstSliceSearch(const Model& model, const Dataset& data,
                                  const SliceSearchOptions& options) {
  XFAIR_SPAN("slice_search/worst_slice");
  XFAIR_LATENCY_NS("latency/slice_search_ns");
  WorstSliceReport report;
  const size_t n = data.size();
  if (n == 0) return report;

  std::vector<size_t> cols = options.columns;
  if (cols.empty()) {
    cols.resize(data.num_features());
    std::iota(cols.begin(), cols.end(), size_t{0});
  } else {
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    XFAIR_CHECK(cols.back() < data.num_features());
  }
  const Discretizer disc(data, options.bins);

  // Metric numerator/denominator indicators per row, packed once.
  const std::vector<int> yhat = model.PredictBatch(data.x());
  const size_t words = (n + 63) / 64;
  std::vector<uint64_t> hit_bits(words, 0), rel_bits(words, 0);
  {
    XFAIR_SPAN("slice_search/pack_indicators");
    for (size_t i = 0; i < n; ++i) {
      bool hit = false, relevant = false;
      MetricIndicators(options.metric, yhat[i], data.label(i), &hit,
                       &relevant);
      if (hit) hit_bits[i >> 6] |= uint64_t{1} << (i & 63);
      if (relevant) rel_bits[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
  const size_t total_rel = kernels::PopcountU64(rel_bits.data(), words);
  const size_t total_hit = kernels::PopcountU64(hit_bits.data(), words);
  report.overall_metric =
      total_rel == 0
          ? 0.0
          : static_cast<double>(total_hit) / static_cast<double>(total_rel);

  const size_t min_count = std::max<size_t>(
      1, static_cast<size_t>(kSliceMinSupport * static_cast<double>(n)));

  struct Qualifying {
    Conditions conditions;
    size_t support, hits, relevant;
  };
  std::vector<Qualifying> qualifying;

  const SliceExtentIndex index(disc, data, cols);
  std::vector<size_t> hits, rels;
  const auto stats = LatticeWalk(
      index, min_count, options.max_conditions,
      /*begin_level=*/
      [&](size_t count) {
        hits.assign(count, 0);
        rels.assign(count, 0);
      },
      /*score=*/
      [&](size_t ci, const LatticeNode& node) {
        hits[ci] =
            kernels::AndPopcountU64(node.extent, hit_bits.data(), words);
        rels[ci] =
            kernels::AndPopcountU64(node.extent, rel_bits.data(), words);
      },
      /*admit=*/
      [&](size_t ci, const LatticeNode& node) {
        if (node.support >= min_count && rels[ci] > 0) {
          Conditions conds(node.depth);
          for (size_t k = 0; k < node.depth; ++k) {
            conds[k] = index.condition(node.sids[k]);
          }
          qualifying.push_back(
              {std::move(conds), node.support, hits[ci], rels[ci]});
        }
        return true;
      });
  report.lattice_candidates = stats.candidates;
  XFAIR_COUNTER_ADD("slice_search/singles_pruned",
                    stats.singles_zero_support);

  report.slices_examined = qualifying.size();
  XFAIR_COUNTER_ADD("slice_search/slices_examined", qualifying.size());
  XFAIR_SPAN("slice_search/rank");
  XFAIR_EVENT(kInfo, "slice_search", "worst_slice_done",
              {{"candidates", std::to_string(report.lattice_candidates)},
               {"qualifying", std::to_string(qualifying.size())},
               {"rows", std::to_string(n)}});

  // Worst first under a total order (badness, then larger support, then
  // lexicographic conditions): deterministic at any thread count and
  // identical to the looped oracle.
  const bool higher_is_worse =
      options.metric == SliceMetricKind::kFalsePositiveRate;
  const auto badness = [&](const Qualifying& q) {
    const double value =
        static_cast<double>(q.hits) / static_cast<double>(q.relevant);
    return higher_is_worse ? -value : value;
  };
  std::sort(qualifying.begin(), qualifying.end(),
            [&](const Qualifying& a, const Qualifying& b) {
              const double ba = badness(a), bb = badness(b);
              if (ba != bb) return ba < bb;
              if (a.support != b.support) return a.support > b.support;
              return a.conditions < b.conditions;
            });
  if (qualifying.size() > options.top_k) qualifying.resize(options.top_k);

  report.slices.reserve(qualifying.size());
  for (auto& q : qualifying) {
    SliceStat s;
    s.description = disc.Describe(data.schema(), q.conditions);
    s.conditions = std::move(q.conditions);
    s.support = q.support;
    s.relevant = q.relevant;
    s.hits = q.hits;
    s.metric_value =
        static_cast<double>(q.hits) / static_cast<double>(q.relevant);
    s.gap_to_overall = s.metric_value - report.overall_metric;
    report.slices.push_back(std::move(s));
  }
  return report;
}

}  // namespace xfair
