// Counterfactual explanation generation (paper §III, example-based; the
// engine behind most of §IV).
//
// Two generators matching the taxonomy's access tiers:
//  - WachterCounterfactual: gradient access; minimizes
//    (f(x') - target)^2 + lambda * ||x' - x||^2 with lambda annealed until
//    the class flips (Wachter et al. [15]).
//  - GrowingSpheresCounterfactual: black-box; samples on spheres of
//    growing radius until the class flips, then greedily sparsifies. On a
//    LogisticRegression it skips, undrawn, the spheres LinearFlipRadius
//    proves hold no flip, and rejects, before their trig, the candidates
//    LinearCandidateBound proves cannot flip.
// Both respect Schema actionability (immutable features never move;
// directional features move one way) and value bounds, so the output is a
// *feasible* counterfactual in the sense of actionable recourse [78].

#ifndef XFAIR_EXPLAIN_COUNTERFACTUAL_H_
#define XFAIR_EXPLAIN_COUNTERFACTUAL_H_

#include <limits>
#include <vector>

#include "src/data/schema.h"
#include "src/model/model.h"
#include "src/util/rng.h"

namespace xfair {

class LogisticRegression;

/// Outcome of a counterfactual search.
struct CounterfactualResult {
  Vector counterfactual;  ///< The found point (== input when !valid).
  bool valid = false;     ///< True iff the predicted class flipped.
  double distance = 0.0;  ///< L2 distance from the factual input.
  size_t sparsity = 0;    ///< Number of features changed.
  size_t iterations = 0;  ///< Search iterations consumed.
};

/// Desired predicted class of every counterfactual: the favorable class 1
/// for an explainee mapped to 0.
inline constexpr int kCounterfactualTargetClass = 1;

/// Shared knobs for counterfactual generators.
struct CounterfactualConfig {
  /// Enforce Schema actionability and bounds. When false only bounds
  /// apply (plain Wachter CFEs, not recourse).
  bool respect_actionability = true;
  size_t max_iterations = 300;
  /// Growing spheres: initial radius and growth factor.
  double initial_radius = 0.1;
  double radius_growth = 1.3;
  /// Growing spheres: candidate points sampled per sphere.
  size_t samples_per_sphere = 40;
};

/// Projects `candidate` onto the feasible set around the factual `x`: with
/// `respect_actionability`, immutable features are reset to x and
/// directional ones kept on their side of it; then every value is clamped
/// to its schema bounds, binary features are rounded to 0/1 and
/// categorical ones to the nearest code in [0, arity).
void ProjectToFeasible(const Schema& schema, const Vector& x,
                       bool respect_actionability, Vector* candidate);

/// A radius below which no growing-spheres candidate around `x` flips
/// `model` (DESIGN.md §5.6): every candidate ProjectToFeasible makes from a
/// step of range-normalized length under it scores below the model's
/// threshold, so it is also a lower bound on the NormalizedDistance of any
/// feasible point that flips. Infinity when no feasible point flips at
/// all (the box cap). 0, certifying nothing, when some x_c lies outside
/// its bounds, a binary or categorical x_c is not a valid code, or the
/// threshold is outside (0, 1).
double LinearFlipRadius(const LogisticRegression& model, const Schema& schema,
                        const Vector& x, bool respect_actionability);

/// A logistic model's margin bounded over the growing-spheres candidates
/// around one factual (DESIGN.md §5.6), from one O(d) pass over the
/// features: the sums both of its tests read.
class LinearCandidateBound {
 public:
  LinearCandidateBound(const LogisticRegression& model, const Schema& schema,
                       const Vector& x, bool respect_actionability);

  /// LinearFlipRadius(model, schema, x, respect_actionability).
  double FlipRadius() const;

  /// True when the candidate growing spheres finishes from `polar`, the
  /// ceil(d / 2) Box-Muller draws of its direction in draw order, and its
  /// jittered radius `r` cannot flip the model: the search may skip its
  /// trig, step, projection and prediction and still return its result.
  /// False, certifying nothing, wherever LinearFlipRadius is 0 for its
  /// fallbacks.
  bool Rejects(const Rng::Polar* polar, double r) const;

 private:
  /// A binary or categorical feature with a positive best gain.
  struct DiscreteStep {
    size_t feature = 0;
    double radius = 0.0;  ///< Range-normalized step that can round it.
    double gain = 0.0;
  };

  /// Smallest radius whose continuous bound and slack reach `need`.
  double LineRadius(double need) const;

  /// -infinity while the bound certifies nothing: no margin is below it.
  double logit_t_ = -std::numeric_limits<double>::infinity();
  double margin_ = 0.0, sigmoid_slack_ = 0.0;
  double discrete_gain_ = 0.0, continuous_gain_ = 0.0;
  double scale_ = 0.0, cap_scale_ = 0.0, continuous_scale_ = 0.0;
  double line_ = 0.0;         ///< (1 + eta) ||a||.
  double norm_factor_ = 1.0;  ///< 1 - a few d eps, on ||dir||.
  size_t full_pairs_ = 0;     ///< Draws whose sin is a feature's too.
  /// w_c range_c for continuous c with a positive gain, else 0; padded
  /// to an even length.
  Vector pair_weights_;
  std::vector<DiscreteStep> discrete_;  ///< In ascending radius.
};

namespace detail {

/// The ranges of cos and sin over one of the 64 equal arcs, 16 per
/// quadrant, that Box-Muller's angle 2 pi u2 falls in, widened outward
/// past the rounding of the angle and of libm.
struct TrigArc {
  double cos_lo = 0.0, cos_hi = 0.0, sin_lo = 0.0, sin_hi = 0.0;
};

/// The arc of u2, in [0, 1). The table is built once.
const TrigArc& BoxMullerArc(double u2);

}  // namespace detail

/// Range-normalized L2 distance: each coordinate is divided by its schema
/// range (upper - lower, or 1 when unbounded) so "distance" is comparable
/// across features of different units. All CounterfactualResult distances
/// and the burden metrics use this.
double NormalizedDistance(const Schema& schema, const Vector& a,
                          const Vector& b);

/// Gradient-based counterfactual (needs the gradient tier).
CounterfactualResult WachterCounterfactual(const GradientModel& model,
                                           const Schema& schema,
                                           const Vector& x,
                                           const CounterfactualConfig& config);

/// Black-box counterfactual via growing spheres + greedy sparsification.
/// Each sphere sample draws from its own stream forked off one split of
/// `rng`; the winner is the first sample at the minimum distance. A
/// LogisticRegression's shells below its LinearFlipRadius are skipped
/// without drawing, and the candidates its LinearCandidateBound rejects
/// are drawn but not finished; the drawn shells keep their radii and
/// streams, so the result is the one the unbounded search returns.
CounterfactualResult GrowingSpheresCounterfactual(
    const Model& model, const Schema& schema, const Vector& x,
    const CounterfactualConfig& config, Rng* rng);

/// The growing-spheres search for each of `rows` (indices into `data`),
/// one result per row in the order given: the one way to search a set of
/// rows. Rows run in parallel. Each draws from a stream forked off one
/// split of `rng` and keyed on an FNV-1a hash of the row's feature bytes,
/// so a row's counterfactual depends on its content alone: not on its
/// position, on the other rows searched, or on the thread count.
std::vector<CounterfactualResult> CounterfactualsForRows(
    const Model& model, const Dataset& data, const std::vector<size_t>& rows,
    const CounterfactualConfig& config, Rng* rng);

}  // namespace xfair

#endif  // XFAIR_EXPLAIN_COUNTERFACTUAL_H_
