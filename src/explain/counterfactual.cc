#include "src/explain/counterfactual.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/model/logistic_regression.h"
#include "src/obs/obs.h"
#include "src/util/hash.h"
#include "src/util/kernels.h"
#include "src/util/parallel.h"

namespace xfair {
namespace {

/// Wachter: gradient step size.
constexpr double kStepSize = 0.25;

/// LinearFlipRadius's relative slack (DESIGN.md §5.6). It covers the
/// rounding of kernels::Dot on a candidate, of the candidate's step and of
/// the bound's own sums, each at most a few d * eps of the magnitudes it
/// multiplies, with room for d up to ~10^6 features.
constexpr double kFlipSlack = 1e-9;

/// Per-feature ranges hoisted out of the per-candidate loops.
Vector FeatureRanges(const Schema& schema) {
  Vector ranges(schema.num_features());
  for (size_t c = 0; c < ranges.size(); ++c)
    ranges[c] = FeatureRange(schema.feature(c));
  return ranges;
}

/// Greedy sparsification: resets changed coordinates to their factual
/// value (smallest normalized change first) while the prediction stays at
/// the target class.
void Sparsify(const Model& model, const Schema& schema, const Vector& x,
              int target, Vector* cf) {
  std::vector<std::pair<double, size_t>> changes;
  for (size_t c = 0; c < x.size(); ++c) {
    const double delta =
        std::fabs((*cf)[c] - x[c]) / FeatureRange(schema.feature(c));
    if (delta > 1e-12) changes.emplace_back(delta, c);
  }
  std::sort(changes.begin(), changes.end());
  for (const auto& [delta, c] : changes) {
    const double saved = (*cf)[c];
    (*cf)[c] = x[c];
    if (model.Predict(*cf) != target) (*cf)[c] = saved;
  }
}

CounterfactualResult Finish(const Model& model, const Schema& schema,
                            const Vector& x, Vector cf, int target,
                            size_t iterations) {
  CounterfactualResult r;
  Sparsify(model, schema, x, target, &cf);
  r.valid = model.Predict(cf) == target;
  r.distance = NormalizedDistance(schema, x, cf);
  r.sparsity = NonZeroCount(Sub(cf, x), 1e-12);
  r.counterfactual = std::move(cf);
  r.iterations = iterations;
  return r;
}

CounterfactualResult Invalid(const Vector& x, size_t iterations) {
  CounterfactualResult r;
  r.counterfactual = x;
  r.valid = false;
  r.iterations = iterations;
  return r;
}

}  // namespace

void ProjectToFeasible(const Schema& schema, const Vector& x,
                       bool respect_actionability, Vector* candidate) {
  XFAIR_CHECK(candidate->size() == x.size() &&
              x.size() == schema.num_features());
  for (size_t c = 0; c < candidate->size(); ++c) {
    const FeatureSpec& spec = schema.feature(c);
    double v = (*candidate)[c];
    if (respect_actionability) {
      switch (spec.actionability) {
        case Actionability::kImmutable:
          v = x[c];
          break;
        case Actionability::kIncreaseOnly:
          v = std::max(v, x[c]);
          break;
        case Actionability::kDecreaseOnly:
          v = std::min(v, x[c]);
          break;
        case Actionability::kAny:
          break;
      }
    }
    v = std::min(std::max(v, spec.lower), spec.upper);
    if (spec.kind == FeatureKind::kBinary) {
      v = v >= 0.5 ? 1.0 : 0.0;
    } else if (spec.kind == FeatureKind::kCategorical) {
      v = std::round(v);
      v = std::min(std::max(v, 0.0), static_cast<double>(spec.arity - 1));
    }
    (*candidate)[c] = v;
  }
}

double LinearFlipRadius(const LogisticRegression& model, const Schema& schema,
                        const Vector& x, bool respect_actionability) {
  const Vector& w = model.weights();
  XFAIR_CHECK(x.size() == schema.num_features() && w.size() == x.size());
  const double t = model.threshold();
  if (!(t > 0.0 && t < 1.0)) return 0.0;
  const double logit_t = std::log(t / (1.0 - t));
  // Sums of the bound: discrete and continuous best gains g_c, ||a||^2 and
  // sum |w_c| range_c over continuous c. `scale` and `cap_scale` bound
  // |b| + sum |w_c x'_c| over candidates x' (continuous coordinates at x
  // and in the box, respectively), the size the rounding is relative to.
  double discrete_gain = 0.0, continuous_gain = 0.0;
  double a2 = 0.0, continuous_scale = 0.0;
  double scale = 1.0 + std::fabs(logit_t) + std::fabs(model.bias());
  double cap_scale = scale;
  for (size_t c = 0; c < x.size(); ++c) {
    const FeatureSpec& spec = schema.feature(c);
    const double xc = x[c];
    if (!(xc >= spec.lower && xc <= spec.upper)) return 0.0;
    // [lo, hi]: every value ProjectToFeasible can give coordinate c.
    double lo = spec.lower, hi = spec.upper;
    if (spec.kind != FeatureKind::kNumeric) {
      hi = spec.kind == FeatureKind::kBinary
               ? 1.0
               : static_cast<double>(spec.arity - 1);
      if (!(xc >= 0.0 && xc <= hi && xc == std::round(xc))) return 0.0;
      lo = 0.0;
    }
    if (respect_actionability) {
      switch (spec.actionability) {
        case Actionability::kImmutable:
          lo = hi = xc;
          break;
        case Actionability::kIncreaseOnly:
          lo = xc;
          break;
        case Actionability::kDecreaseOnly:
          hi = xc;
          break;
        case Actionability::kAny:
          break;
      }
    }
    if (w[c] == 0.0) continue;
    const double gain = std::max(w[c] * (hi - xc), w[c] * (lo - xc));
    const double reach =
        std::fabs(w[c]) * std::max(std::fabs(lo), std::fabs(hi));
    cap_scale += reach;
    if (spec.kind != FeatureKind::kNumeric) {
      discrete_gain += gain;
      scale += reach;
      continue;
    }
    // A continuous coordinate moves no further than the step, so it
    // gains at most |w_c| range_c |s_c|, and nothing when g_c is 0.
    const double a = std::fabs(w[c]) * FeatureRange(spec);
    continuous_gain += gain;
    continuous_scale += a;
    scale += std::fabs(w[c] * xc);
    if (gain > 0.0) a2 += a * a;
  }
  const double sigmoid_slack =
      16.0 * std::numeric_limits<double>::epsilon() / std::min(t, 1.0 - t);
  const double margin = model.Margin(x);
  // The box cap: no feasible point reaches the threshold.
  if (margin + discrete_gain + continuous_gain + kFlipSlack * cap_scale +
          sigmoid_slack <
      logit_t) {
    return std::numeric_limits<double>::infinity();
  }
  // Smallest rho with min(C, (1 + eta) rho ||a||) + eta rho sum |w_c|
  // range_c >= need: on the line, or past C / ((1 + eta) ||a||), where only
  // the slack still grows.
  const double need = logit_t - sigmoid_slack - margin - discrete_gain -
                      kFlipSlack * scale;
  if (!(need > 0.0)) return 0.0;
  const double line = (1.0 + kFlipSlack) * std::sqrt(a2);
  double rho = need / (line + kFlipSlack * continuous_scale);
  if (rho * line > continuous_gain)
    rho = (need - continuous_gain) / (kFlipSlack * continuous_scale);
  return rho;
}

double NormalizedDistance(const Schema& schema, const Vector& a,
                          const Vector& b) {
  XFAIR_CHECK(a.size() == b.size());
  XFAIR_CHECK(a.size() == schema.num_features());
  Vector inv(a.size());
  for (size_t c = 0; c < a.size(); ++c)
    inv[c] = 1.0 / FeatureRange(schema.feature(c));
  return std::sqrt(
      kernels::WeightedSquaredDistance(a.data(), b.data(), inv.data(),
                                       a.size()));
}

CounterfactualResult WachterCounterfactual(
    const GradientModel& model, const Schema& schema, const Vector& x,
    const CounterfactualConfig& config) {
  XFAIR_CHECK(x.size() == schema.num_features());
  XFAIR_SPAN("cf/wachter");
  const int target = kCounterfactualTargetClass;
  if (model.Predict(x) == target) {
    CounterfactualResult r;
    r.counterfactual = x;
    r.valid = true;
    return r;
  }
  const double direction = target == 1 ? 1.0 : -1.0;
  Vector cf = x;
  size_t iter = 0;
  for (; iter < config.max_iterations; ++iter) {
    if (model.Predict(cf) == target) break;
    Vector grad = model.ProbaGradient(cf);
    // Range-scale the step so features in large units move proportionally.
    double norm = 0.0;
    for (size_t c = 0; c < grad.size(); ++c) {
      grad[c] *= FeatureRange(schema.feature(c));
      norm = std::max(norm, std::fabs(grad[c]));
    }
    if (norm < 1e-12) return Invalid(x, iter);  // Flat region: stuck.
    for (size_t c = 0; c < cf.size(); ++c) {
      cf[c] += direction * kStepSize *
               FeatureRange(schema.feature(c)) * grad[c] / norm;
    }
    ProjectToFeasible(schema, x, config.respect_actionability, &cf);
  }
  if (model.Predict(cf) != target) return Invalid(x, iter);

  // Shrink along the segment [x, cf]: binary search for the closest
  // feasible flip.
  double lo = 0.0, hi = 1.0;
  for (int step = 0; step < 20; ++step) {
    const double mid = 0.5 * (lo + hi);
    Vector cand(x.size());
    for (size_t c = 0; c < x.size(); ++c)
      cand[c] = x[c] + mid * (cf[c] - x[c]);
    ProjectToFeasible(schema, x, config.respect_actionability, &cand);
    if (model.Predict(cand) == target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  Vector best(x.size());
  for (size_t c = 0; c < x.size(); ++c)
    best[c] = x[c] + hi * (cf[c] - x[c]);
  ProjectToFeasible(schema, x, config.respect_actionability, &best);
  if (model.Predict(best) != target) best = cf;  // Rounding broke it: keep cf.
  return Finish(model, schema, x, std::move(best), target, iter);
}

CounterfactualResult GrowingSpheresCounterfactual(
    const Model& model, const Schema& schema, const Vector& x,
    const CounterfactualConfig& config, Rng* rng) {
  XFAIR_CHECK(rng != nullptr);
  XFAIR_CHECK(x.size() == schema.num_features());
  XFAIR_SPAN("cf/growing_spheres");
  const int target = kCounterfactualTargetClass;
  if (model.Predict(x) == target) {
    CounterfactualResult r;
    r.counterfactual = x;
    r.valid = true;
    return r;
  }
  // Every candidate draws from its own stream forked off one root; the
  // winner is the first sample at the minimum distance.
  const Rng root = rng->Split();
  // Range scaling hoisted out of the sampling loops: one schema walk per
  // search instead of one virtual-ish accessor per sample per feature.
  const Vector ranges = FeatureRanges(schema);
  Vector inv_ranges(ranges.size());
  for (size_t c = 0; c < ranges.size(); ++c)
    inv_ranges[c] = 1.0 / ranges[c];
  const size_t samples = config.samples_per_sphere;
  Vector dir(x.size()), cand, best;
  double radius = config.initial_radius;
  size_t iter = 0;
  // Shells a logistic model's linear score proves empty are grown past
  // undrawn: the shells drawn keep their radii and streams, so the result
  // is the unskipped search's. Every other model gets radius 0.
  const auto* linear = dynamic_cast<const LogisticRegression*>(&model);
  const double flip_radius =
      linear == nullptr ? 0.0
                        : LinearFlipRadius(*linear, schema, x,
                                           config.respect_actionability);
  for (; iter < config.max_iterations && radius < flip_radius; ++iter)
    radius *= config.radius_growth;
  [[maybe_unused]] const size_t skipped = iter;
  for (; iter < config.max_iterations; ++iter) {
    double best_dist = 0.0;
    for (size_t s = 0; s < samples; ++s) {
      Rng sample_rng = root.Fork(iter * samples + s);
      // Random direction on the unit sphere, scaled per-feature by
      // range: cand = x + (r / |dir|) * (range ⊙ dir).
      cand = x;
      for (size_t c = 0; c < dir.size(); ++c) dir[c] = sample_rng.Normal();
      const double norm = std::sqrt(
          std::max(kernels::Dot(dir.data(), dir.data(), dir.size()), 1e-12));
      const double r = radius * (0.7 + 0.3 * sample_rng.Uniform());
      kernels::ScaledAxpy(r / norm, ranges.data(), dir.data(), cand.data(),
                          cand.size());
      ProjectToFeasible(schema, x, config.respect_actionability, &cand);
      if (model.Predict(cand) != target) continue;
      const double dist = std::sqrt(kernels::WeightedSquaredDistance(
          x.data(), cand.data(), inv_ranges.data(), x.size()));
      if (best.empty() || dist < best_dist) {
        best = cand;
        best_dist = dist;
      }
    }
    if (!best.empty()) {
      XFAIR_COUNTER_ADD("cf/samples_evaluated",
                        (iter + 1 - skipped) * samples);
      XFAIR_COUNTER_ADD("cf/shells_skipped", skipped);
      XFAIR_HISTOGRAM_OBSERVE("cf/search_iterations", iter + 1);
      return Finish(model, schema, x, std::move(best), target, iter);
    }
    radius *= config.radius_growth;
  }
  XFAIR_COUNTER_ADD("cf/samples_evaluated",
                    (config.max_iterations - skipped) * samples);
  XFAIR_COUNTER_ADD("cf/shells_skipped", skipped);
  XFAIR_HISTOGRAM_OBSERVE("cf/search_iterations", config.max_iterations);
  XFAIR_COUNTER_ADD("cf/search_failures", 1);
  return Invalid(x, iter);
}

std::vector<CounterfactualResult> CounterfactualsForRows(
    const Model& model, const Dataset& data, const std::vector<size_t>& rows,
    const CounterfactualConfig& config, Rng* rng) {
  XFAIR_CHECK(rng != nullptr);
  XFAIR_SPAN("cf/rows");
  const Rng root = rng->Split();
  std::vector<CounterfactualResult> out(rows.size());
  ParallelFor(0, rows.size(), [&](size_t k) {
    const Vector x = data.instance(rows[k]);
    Rng row_rng =
        root.Fork(Fnv1a(kFnv1aBasis, x.data(), x.size() * sizeof(double)));
    out[k] = GrowingSpheresCounterfactual(model, data.schema(), x, config,
                                          &row_rng);
  });
  return out;
}

}  // namespace xfair
