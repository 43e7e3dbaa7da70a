#include "src/explain/counterfactual.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <tuple>

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

/// Box-Muller angles fall in one of kArcs equal arcs, 16 per quadrant, on
/// each of which cos and sin are monotone.
constexpr size_t kArcs = 64;

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

LinearCandidateBound::LinearCandidateBound(const LogisticRegression& model,
                                           const Schema& schema,
                                           const Vector& x,
                                           bool respect_actionability) {
  const Vector& w = model.weights();
  XFAIR_CHECK(x.size() == schema.num_features() && w.size() == x.size());
  const size_t d = x.size();
  // Rounding of ||dir||'s Dot, of cos^2 + sin^2 and of this bound's sqrt.
  norm_factor_ =
      1.0 - 4.0 * static_cast<double>(d + 8) *
                std::numeric_limits<double>::epsilon();
  full_pairs_ = d / 2;
  pair_weights_.assign(d + d % 2, 0.0);
  const double t = model.threshold();
  if (!(t > 0.0 && t < 1.0)) return;
  const double logit_t = std::log(t / (1.0 - t));
  // Sums of the bound: discrete and continuous best gains g_c, ||a||^2 and
  // sum |w_c| range_c over continuous c. `scale_` and `cap_scale_` bound
  // |b| + sum |w_c x'_c| over candidates x' (continuous coordinates at x
  // and in the box, respectively), the size the rounding is relative to.
  double a2 = 0.0;
  scale_ = 1.0 + std::fabs(logit_t) + std::fabs(model.bias());
  cap_scale_ = scale_;
  for (size_t c = 0; c < d; ++c) {
    const FeatureSpec& spec = schema.feature(c);
    const double xc = x[c];
    if (!(xc >= spec.lower && xc <= spec.upper)) return;
    // [lo, hi]: every value ProjectToFeasible can give coordinate c.
    double lo = spec.lower, hi = spec.upper;
    if (spec.kind != FeatureKind::kNumeric) {
      hi = spec.kind == FeatureKind::kBinary
               ? 1.0
               : static_cast<double>(spec.arity - 1);
      if (!(xc >= 0.0 && xc <= hi && xc == std::round(xc))) return;
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
    cap_scale_ += reach;
    if (spec.kind != FeatureKind::kNumeric) {
      // A code changes only once its raw step reaches 1/2, less the
      // rounding of the step and of x_c + step.
      discrete_gain_ += gain;
      scale_ += reach;
      if (gain > 0.0) {
        discrete_.push_back(
            {c, (0.5 - kFlipSlack * (1.0 + xc)) / FeatureRange(spec), gain});
      }
      continue;
    }
    // A continuous coordinate moves no further than the step, so it
    // gains at most |w_c| range_c |s_c|, and nothing when g_c is 0.
    const double a = std::fabs(w[c]) * FeatureRange(spec);
    continuous_gain_ += gain;
    continuous_scale_ += a;
    scale_ += std::fabs(w[c] * xc);
    if (gain > 0.0) {
      a2 += a * a;
      pair_weights_[c] = w[c] * FeatureRange(spec);
    }
  }
  std::sort(discrete_.begin(), discrete_.end(),
            [](const DiscreteStep& a, const DiscreteStep& b) {
              return a.radius < b.radius;
            });
  line_ = (1.0 + kFlipSlack) * std::sqrt(a2);
  sigmoid_slack_ =
      16.0 * std::numeric_limits<double>::epsilon() / std::min(t, 1.0 - t);
  margin_ = model.Margin(x);
  logit_t_ = logit_t;
}

double LinearCandidateBound::LineRadius(double need) const {
  // Smallest rho with min(C, (1 + eta) rho ||a||) + eta rho sum |w_c|
  // range_c >= need: on the line, or past C / ((1 + eta) ||a||), where only
  // the slack still grows.
  if (!(need > 0.0)) return 0.0;
  double rho = need / (line_ + kFlipSlack * continuous_scale_);
  if (rho * line_ > continuous_gain_)
    rho = (need - continuous_gain_) / (kFlipSlack * continuous_scale_);
  return rho;
}

double LinearCandidateBound::FlipRadius() const {
  // The box cap: no feasible point reaches the threshold.
  if (margin_ + discrete_gain_ + continuous_gain_ + kFlipSlack * cap_scale_ +
          sigmoid_slack_ <
      logit_t_) {
    return std::numeric_limits<double>::infinity();
  }
  // Piece by piece between the discrete features' rounding radii, each
  // credited its gain from its radius on.
  double need = logit_t_ - sigmoid_slack_ - margin_ - kFlipSlack * scale_;
  double rho = LineRadius(need);
  for (const DiscreteStep& step : discrete_) {
    if (rho < step.radius) return rho;
    need -= step.gain;
    rho = std::max(step.radius, LineRadius(need));
  }
  return rho;
}

bool LinearCandidateBound::Rejects(const Rng::Polar* polar, double r) const {
  // The step is s (range ⊙ dir), s = r / ||dir||, with dir_{2k} = rho_k
  // cos theta_k and dir_{2k+1} = rho_k sin theta_k: each continuous c
  // gains at most max(0, s a_c dir_c), bounded over theta_k's arc.
  const size_t pairs = pair_weights_.size() / 2;
  double norm2 = 0.0, line = 0.0;
  for (size_t k = 0; k < pairs; ++k) {
    const detail::TrigArc& arc = detail::BoxMullerArc(polar[k].u2);
    const double a = pair_weights_[2 * k], b = pair_weights_[2 * k + 1];
    line += polar[k].rho * (std::max({0.0, a * arc.cos_lo, a * arc.cos_hi}) +
                            std::max({0.0, b * arc.sin_lo, b * arc.sin_hi}));
    // An odd d's last draw gives dir only its cos, which ||dir|| may lack.
    if (k < full_pairs_) norm2 += polar[k].rho * polar[k].rho;
  }
  const double s = r / (std::sqrt(norm2) * norm_factor_);
  double discrete_gain = 0.0;
  for (const DiscreteStep& step : discrete_) {
    const Rng::Polar& p = polar[step.feature / 2];
    const detail::TrigArc& arc = detail::BoxMullerArc(p.u2);
    const double trig = step.feature % 2 == 0
                            ? std::max(-arc.cos_lo, arc.cos_hi)
                            : std::max(-arc.sin_lo, arc.sin_hi);
    if (s * p.rho * trig >= step.radius) discrete_gain += step.gain;
  }
  return margin_ + discrete_gain +
             std::min(continuous_gain_, (1.0 + kFlipSlack) * s * line) +
             kFlipSlack * (scale_ + r * continuous_scale_) + sigmoid_slack_ <
         logit_t_;
}

const detail::TrigArc& detail::BoxMullerArc(double u2) {
  XFAIR_DCHECK(u2 >= 0.0 && u2 < 1.0);
  // An arc's ends come from Rng::NormalPair, as a candidate's trig does,
  // and rounding 2 pi u2 is monotone in u2: every angle of the arc lies
  // between them. cos and sin are monotone there, but for flat tops ~1e-16
  // wide at the quadrant boundaries, and libm is within an ulp; 4 eps
  // covers both.
  static const std::array<TrigArc, kArcs> arcs = [] {
    constexpr double widen = 4.0 * std::numeric_limits<double>::epsilon();
    std::array<TrigArc, kArcs> out;
    for (size_t j = 0; j < kArcs; ++j) {
      const auto [cos0, sin0] = Rng::NormalPair(
          {1.0, static_cast<double>(j) / static_cast<double>(kArcs)});
      const auto [cos1, sin1] = Rng::NormalPair(
          {1.0, static_cast<double>(j + 1) / static_cast<double>(kArcs)});
      out[j] = {std::min(cos0, cos1) - widen, std::max(cos0, cos1) + widen,
                std::min(sin0, sin1) - widen, std::max(sin0, sin1) + widen};
    }
    return out;
  }();
  return arcs[static_cast<size_t>(u2 * static_cast<double>(kArcs))];
}

double LinearFlipRadius(const LogisticRegression& model, const Schema& schema,
                        const Vector& x, bool respect_actionability) {
  return LinearCandidateBound(model, schema, x, respect_actionability)
      .FlipRadius();
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
  // A direction takes ceil(d / 2) Box-Muller draws; an odd d's last sin
  // pads `dir`.
  std::vector<Rng::Polar> polar((x.size() + 1) / 2);
  Vector dir(2 * polar.size()), cand, best;
  double radius = config.initial_radius;
  size_t iter = 0;
  // Shells a logistic model's linear score proves empty are grown past
  // undrawn, and candidates it proves cannot flip are drawn but never
  // finished: the shells drawn keep their radii and streams, so the result
  // is the unbounded search's. Every other model gets radius 0 and
  // finishes every candidate.
  const auto* linear = dynamic_cast<const LogisticRegression*>(&model);
  std::optional<LinearCandidateBound> bound;
  if (linear != nullptr)
    bound.emplace(*linear, schema, x, config.respect_actionability);
  const double flip_radius = bound ? bound->FlipRadius() : 0.0;
  for (; iter < config.max_iterations && radius < flip_radius; ++iter)
    radius *= config.radius_growth;
  [[maybe_unused]] const size_t skipped = iter;
  [[maybe_unused]] size_t rejected = 0;
  for (; iter < config.max_iterations; ++iter) {
    double best_dist = 0.0;
    for (size_t s = 0; s < samples; ++s) {
      Rng sample_rng = root.Fork(iter * samples + s);
      // Random direction on the unit sphere, scaled per-feature by
      // range: cand = x + (r / |dir|) * (range ⊙ dir). Every draw comes
      // before the trig, in Normal()'s order.
      for (Rng::Polar& p : polar) p = sample_rng.NormalPolar();
      const double r = radius * (0.7 + 0.3 * sample_rng.Uniform());
      if (bound && bound->Rejects(polar.data(), r)) {
        ++rejected;
        continue;
      }
      for (size_t k = 0; k < polar.size(); ++k)
        std::tie(dir[2 * k], dir[2 * k + 1]) = Rng::NormalPair(polar[k]);
      const double norm = std::sqrt(
          std::max(kernels::Dot(dir.data(), dir.data(), x.size()), 1e-12));
      cand = x;
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
      XFAIR_COUNTER_ADD("cf/candidates_rejected", rejected);
      XFAIR_HISTOGRAM_OBSERVE("cf/search_iterations", iter + 1);
      return Finish(model, schema, x, std::move(best), target, iter);
    }
    radius *= config.radius_growth;
  }
  XFAIR_COUNTER_ADD("cf/samples_evaluated",
                    (config.max_iterations - skipped) * samples);
  XFAIR_COUNTER_ADD("cf/shells_skipped", skipped);
  XFAIR_COUNTER_ADD("cf/candidates_rejected", rejected);
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
