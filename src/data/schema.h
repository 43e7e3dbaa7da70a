// Feature schema for tabular datasets.
//
// The schema carries the semantic metadata that fairness-aware explainers
// need beyond raw values: which features are immutable (race, age at
// offense), which are actionable and in which direction (income may go up,
// past convictions cannot go down), category arity, and value bounds.

#ifndef XFAIR_DATA_SCHEMA_H_
#define XFAIR_DATA_SCHEMA_H_

#include <string>
#include <vector>

#include "src/util/status.h"

namespace xfair {

/// Value domain of a feature. All values are stored as double; categorical
/// features are coded 0..arity-1.
enum class FeatureKind { kNumeric, kBinary, kCategorical };

/// Direction in which a recourse action may move a feature.
enum class Actionability {
  kAny,           ///< May increase or decrease.
  kIncreaseOnly,  ///< May only increase (e.g. education years).
  kDecreaseOnly,  ///< May only decrease (e.g. debt).
  kImmutable,     ///< May never change (e.g. protected attributes).
};

/// Metadata for one feature column.
struct FeatureSpec {
  std::string name;
  FeatureKind kind = FeatureKind::kNumeric;
  /// Number of categories for kCategorical (>= 2); ignored otherwise.
  int arity = 0;
  Actionability actionability = Actionability::kAny;
  /// Inclusive value bounds used by counterfactual search. For categorical
  /// features these are implied by arity and ignored.
  double lower = -1e30;
  double upper = 1e30;
};

/// upper - lower: the scale of range-normalized distances and action
/// costs; 1 when the bounds are unset or degenerate.
double FeatureRange(const FeatureSpec& spec);

/// Ordered collection of FeatureSpecs plus the index of the sensitive
/// (protected) attribute, if it is included as a column.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<FeatureSpec> features,
                  int sensitive_index = -1);

  size_t num_features() const { return features_.size(); }
  const FeatureSpec& feature(size_t i) const;
  const std::vector<FeatureSpec>& features() const { return features_; }

  /// Index of the sensitive column, or -1 if the sensitive attribute is
  /// tracked outside the feature matrix.
  int sensitive_index() const { return sensitive_index_; }

  /// Index of the feature with the given name.
  Result<size_t> IndexOf(const std::string& name) const;

  /// Copy of this schema with feature `i` removed (sensitive_index is
  /// remapped, or set to -1 if `i` was the sensitive column).
  Schema WithoutFeature(size_t i) const;

  /// True if a recourse action may move feature `i` by `delta`.
  bool MoveAllowed(size_t i, double delta) const;

 private:
  std::vector<FeatureSpec> features_;
  int sensitive_index_ = -1;
};

}  // namespace xfair

#endif  // XFAIR_DATA_SCHEMA_H_
