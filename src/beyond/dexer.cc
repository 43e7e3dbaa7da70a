#include "src/beyond/dexer.h"

#include <algorithm>

#include "src/explain/shap.h"
#include "src/util/stats.h"

namespace xfair {
namespace {

/// Permutations of the sampled Shapley engine (d > 10).
constexpr size_t kPermutations = 40;

/// Protected share of the top-k under a masked scorer: attributes outside
/// the coalition are frozen to their column means for every tuple, so
/// they cannot differentiate the ranking.
double TopkProtectedShare(const Dataset& data, const TupleScorer& scorer,
                          const std::vector<bool>& mask,
                          const Vector& means, size_t k) {
  std::vector<std::pair<double, size_t>> scored(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    Vector x = data.instance(i);
    for (size_t c = 0; c < x.size(); ++c)
      if (!mask[c]) x[c] = means[c];
    scored[i] = {-scorer(x), i};  // Ascending sort => descending score.
  }
  std::sort(scored.begin(), scored.end());
  const size_t kk = std::min(k, scored.size());
  if (kk == 0) return 0.0;
  size_t protected_count = 0;
  for (size_t r = 0; r < kk; ++r)
    protected_count += static_cast<size_t>(data.group(scored[r].second) == 1);
  return static_cast<double>(protected_count) / static_cast<double>(kk);
}

std::array<double, 3> Quantiles(Vector v) {
  if (v.empty()) return {0.0, 0.0, 0.0};
  return {Quantile(v, 0.25), Quantile(v, 0.5), Quantile(v, 0.75)};
}

}  // namespace

DexerReport ExplainRankingRepresentation(const Dataset& data,
                                         const TupleScorer& scorer,
                                         const DexerOptions& options) {
  const size_t d = data.num_features();
  XFAIR_CHECK(d > 0 && data.size() > 0);
  DexerReport report;
  Vector means(d);
  for (size_t c = 0; c < d; ++c) {
    double acc = 0.0;
    for (size_t i = 0; i < data.size(); ++i) acc += data.x().At(i, c);
    means[c] = acc / static_cast<double>(data.size());
  }

  // Detection.
  std::vector<bool> all(d, true);
  report.detection.topk_share =
      TopkProtectedShare(data, scorer, all, means, options.top_k);
  size_t protected_total = 0;
  for (size_t i = 0; i < data.size(); ++i)
    protected_total += static_cast<size_t>(data.group(i) == 1);
  report.detection.overall_share =
      static_cast<double>(protected_total) /
      static_cast<double>(data.size());
  report.detection.representation_gap =
      report.detection.overall_share - report.detection.topk_share;

  // Shapley over attributes: v(S) = representation gap with only S active.
  CoalitionValue value = [&](const std::vector<bool>& mask) {
    return report.detection.overall_share -
           TopkProtectedShare(data, scorer, mask, means, options.top_k);
  };
  Rng rng(options.seed);
  report.attributions = d <= 10
                            ? ExactShapley(value, d)
                            : SampledShapley(value, d,
                                             kPermutations, &rng);

  report.attribute_names.reserve(d);
  for (size_t c = 0; c < d; ++c)
    report.attribute_names.push_back(data.schema().feature(c).name);
  report.ranked_attributes.resize(d);
  for (size_t c = 0; c < d; ++c) report.ranked_attributes[c] = c;
  std::sort(report.ranked_attributes.begin(),
            report.ranked_attributes.end(), [&](size_t a, size_t b) {
              return report.attributions[a] > report.attributions[b];
            });

  // Distribution comparison for the visualization: protected group vs
  // actual top-k.
  std::vector<std::pair<double, size_t>> scored(data.size());
  for (size_t i = 0; i < data.size(); ++i)
    scored[i] = {-scorer(data.instance(i)), i};
  std::sort(scored.begin(), scored.end());
  const size_t kk = std::min(options.top_k, scored.size());
  for (size_t c = 0; c < d; ++c) {
    Vector group_vals, topk_vals;
    for (size_t i = 0; i < data.size(); ++i)
      if (data.group(i) == 1) group_vals.push_back(data.x().At(i, c));
    for (size_t r = 0; r < kk; ++r)
      topk_vals.push_back(data.x().At(scored[r].second, c));
    report.group_quantiles.push_back(Quantiles(std::move(group_vals)));
    report.topk_quantiles.push_back(Quantiles(std::move(topk_vals)));
  }
  return report;
}

}  // namespace xfair
