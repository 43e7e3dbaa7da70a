#include "tests/oracles/subgroup_oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>

#include "src/explain/influence.h"
#include "src/fairness/group_metrics.h"
#include "src/util/kernels.h"
#include "src/util/parallel.h"

namespace xfair::oracles {
namespace {

/// Level-wise apriori over the singles of `columns` (ascending): a
/// frequent depth-k candidate grows by every single of a strictly later
/// column, the canonical order LatticeWalk admits in. Per level,
/// `begin_level(count)` runs once, `score(ci, cand)` runs from a
/// ParallelFor and returns the candidate's support, and `admit(ci, cand,
/// support)` then runs in candidate order for every candidate whose
/// support reaches min_count. Returns the number of candidates scored.
size_t LoopedApriori(
    const Discretizer& disc, const std::vector<size_t>& columns,
    size_t min_count, size_t max_depth,
    const std::function<void(size_t)>& begin_level,
    const std::function<size_t(size_t, const Conditions&)>& score,
    const std::function<void(size_t, const Conditions&, size_t)>& admit) {
  std::vector<Conditions> singles;
  for (size_t f : columns) {
    for (size_t b = 0; b < disc.NumBins(f); ++b) singles.push_back({{f, b}});
  }
  size_t candidates = 0;
  std::vector<Conditions> current = singles;
  for (size_t depth = 1; depth <= max_depth && !current.empty(); ++depth) {
    candidates += current.size();
    begin_level(current.size());
    std::vector<size_t> supports(current.size());
    ParallelFor(0, current.size(),
                [&](size_t ci) { supports[ci] = score(ci, current[ci]); });
    std::vector<Conditions> frequent;
    for (size_t ci = 0; ci < current.size(); ++ci) {
      if (supports[ci] < min_count) continue;
      admit(ci, current[ci], supports[ci]);
      frequent.push_back(current[ci]);
    }
    if (depth == max_depth) break;
    std::vector<Conditions> extended;
    for (const Conditions& base : frequent) {
      for (const Conditions& ext : singles) {
        if (ext[0].first <= base.back().first) continue;
        Conditions grown = base;
        grown.push_back(ext[0]);
        extended.push_back(std::move(grown));
      }
    }
    current = std::move(extended);
  }
  return candidates;
}

/// Per-row numerator/denominator indicators for a slice metric.
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

Result<GopherReport> ExplainUnfairnessByPatternsLooped(
    const LogisticRegression& model, const Dataset& train,
    const GopherOptions& options) {
  GopherReport report;
  report.original_gap = StatisticalParityDifference(model, train);
  auto analyzer = InfluenceAnalyzer::Create(model, train);
  if (!analyzer.ok()) return analyzer.status();
  const Vector influence = analyzer->InfluenceOnParityGap(train);

  const Discretizer disc(train, options.bins);
  const size_t n = train.size();
  const size_t d = train.num_features();
  // Instance-major bin table, computed once so the scans compare integers
  // instead of re-binning every (row, condition) pair.
  std::vector<uint16_t> bins(n * d);
  ParallelFor(0, n, [&](size_t i) {
    for (size_t f = 0; f < d; ++f) {
      bins[i * d + f] =
          static_cast<uint16_t>(disc.BinOf(f, train.x().At(i, f)));
    }
  });
  const auto matches = [&](size_t i, const Conditions& cand) {
    for (const auto& [f, b] : cand) {
      if (bins[i * d + f] != b) return false;
    }
    return true;
  };
  const size_t min_count = std::max<size_t>(
      1, static_cast<size_t>(options.min_support * static_cast<double>(n)));
  const size_t max_count = static_cast<size_t>(
      kGopherMaxSupport * static_cast<double>(n));

  std::vector<size_t> columns(d);
  std::iota(columns.begin(), columns.end(), size_t{0});
  const size_t words = (n + 63) / 64;
  std::vector<GopherPattern> scored;
  Vector estimates;
  report.candidates_scored = LoopedApriori(
      disc, columns, min_count, options.max_conditions,
      [&](size_t count) { estimates.assign(count, 0.0); },
      [&](size_t ci, const Conditions& cand) {
        std::vector<uint64_t> mask(words, 0);
        size_t support = 0;
        for (size_t i = 0; i < n; ++i) {
          if (!matches(i, cand)) continue;
          mask[i >> 6] |= uint64_t{1} << (i & 63);
          ++support;
        }
        estimates[ci] = kernels::detail::MaskedSumU64Scalar(
            influence.data(), mask.data(), n);
        return support;
      },
      [&](size_t ci, const Conditions& cand, size_t support) {
        if (support > max_count) return;
        GopherPattern p;
        p.conditions = cand;
        p.description = disc.Describe(train.schema(), cand);
        p.support = support;
        p.estimated_gap_change = estimates[ci];
        p.interestingness =
            std::fabs(estimates[ci]) / static_cast<double>(support);
        scored.push_back(std::move(p));
      });
  report.patterns_examined = scored.size();

  std::sort(scored.begin(), scored.end(),
            [](const GopherPattern& a, const GopherPattern& b) {
              if (a.estimated_gap_change != b.estimated_gap_change)
                return a.estimated_gap_change < b.estimated_gap_change;
              return a.conditions < b.conditions;
            });
  if (scored.size() > options.top_k) scored.resize(options.top_k);

  ParallelFor(0, scored.size(), [&](size_t pi) {
    GopherPattern& p = scored[pi];
    std::vector<size_t> keep;
    for (size_t i = 0; i < n; ++i)
      if (!matches(i, p.conditions)) keep.push_back(i);
    if (keep.size() < d + 2) return;
    LogisticRegression retrained;
    if (!retrained.Fit(train.Subset(keep)).ok()) return;
    p.verified_gap_change =
        StatisticalParityDifference(retrained, train) - report.original_gap;
    p.verified = true;
  });
  report.patterns = std::move(scored);
  return report;
}

WorstSliceReport WorstSliceSearchLooped(const Model& model,
                                        const Dataset& data,
                                        const SliceSearchOptions& options) {
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
  }
  const Discretizer disc(data, options.bins);
  const std::vector<int> yhat = model.PredictBatch(data.x());
  size_t total_hit = 0, total_rel = 0;
  for (size_t i = 0; i < n; ++i) {
    bool hit = false, relevant = false;
    MetricIndicators(options.metric, yhat[i], data.label(i), &hit, &relevant);
    total_hit += hit;
    total_rel += relevant;
  }
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
  std::vector<size_t> hits, rels;
  report.lattice_candidates = LoopedApriori(
      disc, cols, min_count, options.max_conditions,
      [&](size_t count) {
        hits.assign(count, 0);
        rels.assign(count, 0);
      },
      [&](size_t ci, const Conditions& cand) {
        size_t support = 0;
        for (size_t i = 0; i < n; ++i) {
          bool match = true;
          for (const auto& [f, b] : cand) {
            if (disc.BinOf(f, data.x().At(i, f)) != b) {
              match = false;
              break;
            }
          }
          if (!match) continue;
          ++support;
          bool hit = false, relevant = false;
          MetricIndicators(options.metric, yhat[i], data.label(i), &hit,
                           &relevant);
          hits[ci] += hit;
          rels[ci] += relevant;
        }
        return support;
      },
      [&](size_t ci, const Conditions& cand, size_t support) {
        if (rels[ci] > 0)
          qualifying.push_back({cand, support, hits[ci], rels[ci]});
      });
  report.slices_examined = qualifying.size();

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
  for (const Qualifying& q : qualifying) {
    SliceStat s;
    s.conditions = q.conditions;
    s.description = disc.Describe(data.schema(), q.conditions);
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

}  // namespace xfair::oracles
