// Shared vocabulary for group-counterfactual methods (FACTS [77], CE trees
// [76], AReS [74]): quantile discretization of features, candidate "set
// feature to value" actions, and action effectiveness/cost over instance
// sets.

#ifndef XFAIR_UNFAIR_ACTIONS_H_
#define XFAIR_UNFAIR_ACTIONS_H_

#include <cstdint>
#include <string>

#include "src/model/model.h"

namespace xfair {

/// A conjunction of (feature, bin) conditions.
using Conditions = std::vector<std::pair<size_t, size_t>>;

/// Quantile-based per-feature binning learned from a dataset.
class Discretizer {
 public:
  /// Learns up to `bins` quantile bins per feature (fewer if the feature
  /// has few distinct values; binary/categorical features get one bin per
  /// value).
  Discretizer(const Dataset& data, size_t bins);

  size_t num_features() const { return representatives_.size(); }
  size_t NumBins(size_t feature) const;
  /// Bin index of a value.
  size_t BinOf(size_t feature, double value) const;
  /// Representative (median-ish) value of a bin.
  double Representative(size_t feature, size_t bin) const;
  /// Human-readable bin description, e.g. "income in (3.10, 5.20]";
  /// `bin` must be below NumBins(feature).
  std::string BinLabel(const Schema& schema, size_t feature,
                       size_t bin) const;
  /// The conditions' bin labels joined by " AND ".
  std::string Describe(const Schema& schema,
                       const Conditions& conditions) const;

 private:
  // edges_[f] = sorted inner edges; bin i is (edge[i-1], edge[i]].
  std::vector<Vector> edges_;
  std::vector<Vector> representatives_;
};

/// An atomic recourse action: set one feature to a target value.
struct Action {
  size_t feature;
  double target_value;

  /// Whether the action is feasible for instance x under the schema
  /// (direction and immutability).
  bool ApplicableTo(const Schema& schema, const Vector& x) const;
  /// x with the action applied (caller must have checked applicability).
  Vector ApplyTo(const Vector& x) const;
  /// Range-normalized magnitude of the change for x.
  double Cost(const Schema& schema, const Vector& x) const;
  std::string ToString(const Schema& schema) const;
};

/// A conjunction of atomic actions (applied together).
struct CompositeAction {
  std::vector<Action> actions;

  bool ApplicableTo(const Schema& schema, const Vector& x) const;
  Vector ApplyTo(const Vector& x) const;
  double Cost(const Schema& schema, const Vector& x) const;
  std::string ToString(const Schema& schema) const;
};

/// Enumerates candidate atomic actions: for every actionable feature, one
/// action per discretizer bin representative (skipping bins identical to
/// the current value at evaluation time).
std::vector<Action> EnumerateActions(const Schema& schema,
                                     const Discretizer& disc);

/// Rows per PredictBatch tile in ScoreActions; a multiple of 64, so each
/// tile owns whole words of the flip bitvectors.
inline constexpr size_t kActionTileRows = 1024;

/// Which listed rows each action turns to the target class.
struct ActionFlips {
  /// bits[a]: bit k of word k/64 is set iff actions[a] applies to rows[k]
  /// and the model then predicts the target class. Padding bits are 0.
  std::vector<std::vector<uint64_t>> bits;
  size_t rows_scored = 0;  ///< Applicable rows sent to PredictBatch.
};

/// Applies each action to the rows it applies to and scores them in
/// PredictBatch tiles. Every (action, tile) pair writes its own words, so
/// the bits are thread-count invariant.
ActionFlips ScoreActions(const Model& model, const Dataset& data,
                         const std::vector<size_t>& rows,
                         const std::vector<CompositeAction>& actions,
                         int target_class);

/// eff(a, G): fraction of the given instances that are applicable and
/// whose prediction flips to `target_class` under the action (the
/// popcount of ScoreActions over them).
double ActionEffectiveness(const Model& model, const Dataset& data,
                           const std::vector<size_t>& instances,
                           const CompositeAction& action, int target_class);

/// Mean cost of the action over the instances it applies to (0 if none).
double ActionMeanCost(const Dataset& data,
                      const std::vector<size_t>& instances,
                      const CompositeAction& action);

}  // namespace xfair

#endif  // XFAIR_UNFAIR_ACTIONS_H_
