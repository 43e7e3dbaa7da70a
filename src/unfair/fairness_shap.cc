#include "src/unfair/fairness_shap.h"

#include <algorithm>
#include <cstdint>

#include "src/explain/tree_shap.h"
#include "src/fairness/group_metrics.h"
#include "src/model/logistic_regression.h"
#include "src/obs/obs.h"
#include "src/util/kernels.h"
#include "src/util/parallel.h"

namespace xfair {
namespace {

/// Dataset restricted to the features in `mask`.
Dataset SelectFeatures(const Dataset& data, const std::vector<bool>& mask) {
  std::vector<size_t> kept;
  for (size_t c = 0; c < mask.size(); ++c)
    if (mask[c]) kept.push_back(c);
  Matrix x(data.size(), kept.size());
  for (size_t r = 0; r < data.size(); ++r)
    for (size_t k = 0; k < kept.size(); ++k)
      x.At(r, k) = data.x().At(r, kept[k]);
  std::vector<FeatureSpec> specs;
  for (size_t c : kept) specs.push_back(data.schema().feature(c));
  // Sensitive index bookkeeping is irrelevant for gap evaluation.
  Schema schema(std::move(specs), -1);
  return Dataset(std::move(schema), std::move(x), data.labels(),
                 data.groups());
}

/// Per-worker scratch for the masked coalition games: the widened byte
/// mask and the blended-instance matrix are reused across coalitions
/// instead of reallocated per evaluation. Value functions run
/// concurrently on pool threads, so the scratch is thread-local — the
/// same idiom as the tree engine's arenas, and workers are long-lived so
/// the steady state allocates nothing.
struct BlendScratch {
  std::vector<uint8_t> keep;
  Matrix z;
};

BlendScratch& LocalBlendScratch() {
  static thread_local BlendScratch scratch;
  return scratch;
}

/// Blends each sampled row with the background means under the byte mask
/// `keep` into the row-major block at `z` (rows.size() x d).
void BlendRows(const Dataset& data, const std::vector<size_t>& rows,
               const Vector& background, const uint8_t* keep, size_t d,
               double* z) {
  for (size_t r = 0; r < rows.size(); ++r) {
    kernels::MaskedBlend(data.x().RowPtr(rows[r]), background.data(), keep,
                         z + r * d, d);
  }
}

/// Parity gap of thresholded predictions over the sampled rows, with the
/// generic engine's sentinel semantics (a missing group's rate is 0).
double GapFromPreds(const int* pred, const Dataset& data,
                    const std::vector<size_t>& rows, const size_t count[2]) {
  double pos[2] = {0.0, 0.0};
  for (size_t r = 0; r < rows.size(); ++r)
    pos[data.group(rows[r])] += static_cast<double>(pred[r]);
  const double rate0 = count[0] ? pos[0] / static_cast<double>(count[0]) : 0.0;
  const double rate1 = count[1] ? pos[1] / static_cast<double>(count[1]) : 0.0;
  return rate0 - rate1;
}

/// Permutations for the sampled engine when num_features > 10.
constexpr size_t kPermutations = 60;

/// Rows per coalition-tile dispatch: coalition x row blended instances are
/// stacked until a PredictBatch call covers roughly this many rows, so the
/// per-dispatch overhead (virtual call, thread fan-out, output vector) is
/// amortized across many coalitions.
constexpr size_t kCoalitionTileRows = 4096;

/// Pre-evaluates the masked parity gap for every coalition of d features.
/// Each coalition's value is computed from the same blended rows and the
/// same ascending-row reduction as a one-coalition-at-a-time evaluation —
/// and PredictBatch scores rows independently for every model — so the
/// table is bit-identical to the lazy path at any thread count.
Vector MaskGapTable(const Model& model, const Dataset& data,
                    const std::vector<size_t>& rows, const Vector& background,
                    size_t d, const size_t count[2]) {
  XFAIR_SPAN("fairness_shap/mask_table");
  const size_t n = rows.size();
  const size_t num_masks = size_t{1} << d;
  const size_t per_block =
      std::max<size_t>(1, kCoalitionTileRows / std::max<size_t>(n, 1));
  const size_t nblocks = (num_masks + per_block - 1) / per_block;
  Vector table(num_masks, 0.0);
  ParallelForChunks(0, nblocks, [&](const ChunkRange& chunk) {
    XFAIR_SPAN("fairness_shap/coalition_tile");
    BlendScratch& scratch = LocalBlendScratch();
    if (scratch.keep.size() < d) scratch.keep.resize(d);
    for (size_t blk = chunk.begin; blk < chunk.end; ++blk) {
      const size_t m0 = blk * per_block;
      const size_t m1 = std::min(num_masks, m0 + per_block);
      const size_t stacked = (m1 - m0) * n;
      if (scratch.z.rows() != stacked || scratch.z.cols() != d) {
        scratch.z = Matrix(stacked, d);
      }
      for (size_t m = m0; m < m1; ++m) {
        for (size_t c = 0; c < d; ++c)
          scratch.keep[c] = static_cast<uint8_t>((m >> c) & 1);
        BlendRows(data, rows, background, scratch.keep.data(), d,
                  scratch.z.RowPtr((m - m0) * n));
      }
      const std::vector<int> pred = model.PredictBatch(scratch.z);
      XFAIR_COUNTER_ADD("fairness_shap/coalitions", m1 - m0);
      for (size_t m = m0; m < m1; ++m) {
        table[m] =
            GapFromPreds(pred.data() + (m - m0) * n, data, rows, count);
      }
    }
  });
  return table;
}

/// Assembles the report: names, endpoint gaps, descending-contribution
/// feature ranking.
FairnessShapReport MakeReport(const Dataset& data, size_t d,
                              Vector contributions, double full_gap,
                              double baseline_gap) {
  FairnessShapReport report;
  report.feature_names.reserve(d);
  for (size_t c = 0; c < d; ++c)
    report.feature_names.push_back(data.schema().feature(c).name);
  report.contributions = std::move(contributions);
  report.full_gap = full_gap;
  report.baseline_gap = baseline_gap;
  report.ranked_features.resize(d);
  for (size_t c = 0; c < d; ++c) report.ranked_features[c] = c;
  std::sort(report.ranked_features.begin(), report.ranked_features.end(),
            [&](size_t a, size_t b) {
              return report.contributions[a] > report.contributions[b];
            });
  return report;
}

/// kMask decomposition over a row view (`slice` == nullptr means every
/// row). Shared by ExplainParityWithShapley and FairnessShapBatch, which
/// is what makes the two bit-identical: both resolve the view to the same
/// row indices before any arithmetic happens.
FairnessShapReport ExplainParityMask(const Model& model, const Dataset& data,
                                     const std::vector<size_t>* slice,
                                     const FairnessShapOptions& options) {
  const size_t d = data.num_features();
  const size_t n = slice ? slice->size() : data.size();
  XFAIR_CHECK(n > 0);
  Rng rng(options.seed);

  // Masking mode: marginalize absent features to the slice mean,
  // accumulated row-major (per-column sums keep ascending row order).
  Vector background(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const size_t r = slice ? (*slice)[i] : i;
    kernels::Axpy(1.0, data.x().RowPtr(r), background.data(), d);
  }
  for (size_t c = 0; c < d; ++c)
    background[c] /= static_cast<double>(n);
  const size_t sample = std::min<size_t>(
      n, std::max<size_t>(options.background_size * 10, 200));
  std::vector<size_t> rows = rng.SampleWithoutReplacement(n, sample);
  if (slice) {
    for (size_t& r : rows) r = (*slice)[r];
  }
  size_t count[2] = {0, 0};
  for (size_t r : rows) ++count[data.group(r)];

  // Single-group slice: the parity gap is identically zero under the
  // sentinel semantics (the missing group's rate is 0 in every
  // coalition's game... and so is the present group's weight-normalized
  // complement), so there is nothing to decompose. Returning the zero
  // report here keeps the tree fast path's per-row weights finite — the
  // former 1/count[g] would have produced an inf-weighted game.
  if (count[0] == 0 || count[1] == 0) {
    return MakeReport(data, d, Vector(d, 0.0), 0.0, 0.0);
  }

  // Decision trees: the masked parity gap is, by linearity of Shapley
  // values, the weighted sum over sampled rows of per-row masking games
  // on the hard-thresholded tree — which interventional TreeSHAP solves
  // exactly in polynomial time. No coalition is ever evaluated.
  const auto* tree = dynamic_cast<const DecisionTree*>(&model);
  if (tree != nullptr) {
    Vector weights(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      const int g = data.group(rows[i]);
      weights[i] = g == 0 ? 1.0 / static_cast<double>(count[0])
                          : -1.0 / static_cast<double>(count[1]);
    }
    Vector contributions = InterventionalTreeShapThresholded(
        *tree, data.x(), rows, weights, background, model.threshold());
    // Endpoint gaps come from direct evaluation: full = original rows,
    // baseline = every feature masked to the background means.
    const double full_gap = [&] {
      BlendScratch& scratch = LocalBlendScratch();
      if (scratch.keep.size() < d) scratch.keep.resize(d);
      std::fill(scratch.keep.begin(), scratch.keep.begin() + d,
                static_cast<uint8_t>(1));
      if (scratch.z.rows() != rows.size() || scratch.z.cols() != d) {
        scratch.z = Matrix(rows.size(), d);
      }
      BlendRows(data, rows, background, scratch.keep.data(), d,
                scratch.z.RowPtr(0));
      const std::vector<int> pred = model.PredictBatch(scratch.z);
      return GapFromPreds(pred.data(), data, rows, count);
    }();
    // With every feature masked, each blended row is bit-for-bit the
    // background vector, so one prediction serves every sampled row.
    // Summing count[g] copies of an integer-valued 0/1 prediction is
    // exact in double, so the rate arithmetic below reproduces
    // GapFromPreds on the constant prediction vector bit for bit.
    const double baseline_gap = [&] {
      const double p = static_cast<double>(model.Predict(background));
      const double rate0 = static_cast<double>(count[0]) * p /
                           static_cast<double>(count[0]);
      const double rate1 = static_cast<double>(count[1]) * p /
                           static_cast<double>(count[1]);
      return rate0 - rate1;
    }();
    return MakeReport(data, d, std::move(contributions), full_gap,
                      baseline_gap);
  }

  if (d <= 10) {
    // Exact engine: every coalition is needed anyway, so evaluate them all
    // up front through the coalition-tiled batch path and hand the engine
    // a table lookup.
    Vector table = MaskGapTable(model, data, rows, background, d, count);
    const CoalitionValue value = [&table](const std::vector<bool>& mask) {
      size_t m = 0;
      for (size_t c = 0; c < mask.size(); ++c)
        if (mask[c]) m |= size_t{1} << c;
      return table[m];
    };
    Vector contributions = ExactShapley(value, d);
    return MakeReport(data, d, std::move(contributions),
                      table[table.size() - 1], table[0]);
  }

  // Sampled engine (d > 10): coalitions arrive one at a time from the
  // permutation walks, so each evaluation is one blended PredictBatch
  // over the sampled rows, served from per-worker scratch.
  CoalitionValue value = [&model, &data, &background, &rows,
                          &count](const std::vector<bool>& mask) {
    XFAIR_SPAN("fairness_shap/coalition_mask");
    XFAIR_COUNTER_ADD("fairness_shap/coalitions", 1);
    const size_t dim = mask.size();
    BlendScratch& scratch = LocalBlendScratch();
    if (scratch.keep.size() < dim) scratch.keep.resize(dim);
    for (size_t c = 0; c < dim; ++c)
      scratch.keep[c] = mask[c] ? 1 : 0;
    if (scratch.z.rows() != rows.size() || scratch.z.cols() != dim) {
      scratch.z = Matrix(rows.size(), dim);
    }
    BlendRows(data, rows, background, scratch.keep.data(), dim,
              scratch.z.RowPtr(0));
    const std::vector<int> pred = model.PredictBatch(scratch.z);
    return GapFromPreds(pred.data(), data, rows, count);
  };
  // Shared memoization: the engine's coalition evaluations land in the
  // cache, so the baseline/full gap queries below are free hits.
  CoalitionCache cache(std::move(value), d);
  Vector contributions =
      SampledShapley(cache.AsValue(), d, kPermutations, &rng);
  std::vector<bool> none(d, false), all(d, true);
  const double baseline_gap = cache(none);
  const double full_gap = cache(all);
  return MakeReport(data, d, std::move(contributions), full_gap,
                    baseline_gap);
}

}  // namespace

FairnessShapReport ExplainParityWithShapley(
    const Model& model, const Dataset& data,
    const FairnessShapOptions& options) {
  const size_t d = data.num_features();
  XFAIR_CHECK(d > 0);
  XFAIR_SPAN("fairness_shap/explain");

  if (options.mode == FairnessShapMode::kMask) {
    return ExplainParityMask(model, data, /*slice=*/nullptr, options);
  }

  Rng rng(options.seed);
  const CoalitionValue value = [&data](const std::vector<bool>& mask) {
    XFAIR_SPAN("fairness_shap/coalition_retrain");
    XFAIR_COUNTER_ADD("fairness_shap/coalitions", 1);
    bool any = false;
    for (bool m : mask) any |= m;
    if (!any) return 0.0;  // Featureless model treats groups equally.
    Dataset sub = SelectFeatures(data, mask);
    LogisticRegression lr;
    if (!lr.Fit(sub).ok()) return 0.0;
    return StatisticalParityDifference(lr, sub);
  };
  // Shared memoization: the engine's coalition evaluations land in the
  // cache, so the baseline/full gap queries below are free hits.
  CoalitionCache cache(value, d);
  Vector contributions =
      d <= 10 ? ExactShapley(cache.AsValue(), d)
              : SampledShapley(cache.AsValue(), d, kPermutations, &rng);
  std::vector<bool> none(d, false), all(d, true);
  const double baseline_gap = cache(none);
  const double full_gap = cache(all);
  return MakeReport(data, d, std::move(contributions), full_gap,
                    baseline_gap);
}

FairnessShapReport FairnessShapBatch(const Model& model, const Dataset& data,
                                     const std::vector<size_t>& slice,
                                     const FairnessShapOptions& options) {
  const size_t d = data.num_features();
  XFAIR_CHECK(d > 0);
  XFAIR_CHECK(!slice.empty());
  for (size_t r : slice) XFAIR_CHECK(r < data.size());
  XFAIR_SPAN("fairness_shap/batch");
  XFAIR_LATENCY_NS("latency/fairness_shap_batch_ns");
  XFAIR_COUNTER_ADD("fairness_shap/batch_calls", 1);
  XFAIR_COUNTER_ADD("fairness_shap/batch_rows", slice.size());
  XFAIR_EVENT(kInfo, "fairness_shap", "batch",
              {{"features", std::to_string(d)},
               {"rows", std::to_string(slice.size())}});
  if (options.mode == FairnessShapMode::kRetrain) {
    // Retraining fits each coalition's model on the slice itself, so the
    // sub-dataset must be materialized; the mask path below never copies.
    return ExplainParityWithShapley(model, data.Subset(slice), options);
  }
  return ExplainParityMask(model, data, &slice, options);
}

}  // namespace xfair
