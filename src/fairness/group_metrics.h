// Group fairness metrics (paper §II, Figure 1 "group level").
//
// All metrics compare the protected group G+ (group == 1) against the
// non-protected group G- (group == 0). Signed differences are reported as
// (G- value) - (G+ value) for rates where higher is better for the
// individual, so a positive value always reads "the protected group is
// worse off".
//
// Evaluation runs in two steps that every caller shares:
//
//   * CountGroups scores `data` with one PredictAll and one
//     PredictProbaAll and fills one GroupCounts per group;
//   * DeriveGroupFairness turns the two groups' counts into a
//     GroupFairnessReport. Every Figure 1 formula and sentinel is written
//     there once, so EvaluateGroupFairness, StatisticalParityDifference,
//     the tradeoff score (tradeoff.h), the per-group threshold search
//     (mitigate/postprocess.h) and the streaming monitor's window
//     (obs/monitor.h, which fills the counts from its ring) agree bit for
//     bit on the same rows.
//
// Single-group data (either group empty) has no between-group comparison
// to make: every difference is 0, the disparate impact ratio is 1 and the
// calibration gap is 0 — the "fair" sentinels — instead of comparing a
// real rate against an empty group's vacuous zero. The ratio's sentinel
// is flagged (disparate_impact_defined is false), and ToString prints it
// as "undefined".

#ifndef XFAIR_FAIRNESS_GROUP_METRICS_H_
#define XFAIR_FAIRNESS_GROUP_METRICS_H_

#include <array>

#include "src/model/metrics.h"

namespace xfair {

/// What every Figure 1 metric of one group derives from. `rows` and
/// `favorable` count every row; `confusion` and `calibration` count only
/// labeled rows (a monitored stream may hold unlabeled events; a Dataset
/// is labeled throughout).
struct GroupCounts {
  explicit GroupCounts(size_t calibration_bins = 10)
      : calibration(calibration_bins) {}

  /// Counts one row: its 0/1 decision, its score in [0, 1] and its label,
  /// where a negative label marks the row unlabeled.
  void Add(int prediction, double score, int label) {
    ++rows;
    if (prediction == 1) ++favorable;
    if (label < 0) return;
    confusion.Add(prediction, label);
    calibration.Add(score, label);
  }

  size_t rows = 0;
  size_t favorable = 0;  ///< Rows decided favorably (y_hat = 1).
  Confusion confusion;
  CalibrationBins calibration;
};

/// Counts of G- (index 0) and G+ (index 1) on every row of `data`, from
/// one PredictAll and one PredictProbaAll, with 10 calibration bins.
std::array<GroupCounts, 2> CountGroups(const Model& model,
                                       const Dataset& data);

/// Every Figure 1 metric, plus the per-group confusions they derive from.
struct GroupFairnessReport {
  Confusion protected_group;      ///< Confusion on G+.
  Confusion non_protected_group;  ///< Confusion on G-.
  /// A group has no rows: every metric below holds its fair sentinel.
  bool single_group = false;
  /// Base rates P(yhat=1 | G-) - P(yhat=1 | G+) over every row.
  /// Statistical parity holds iff this is 0.
  double statistical_parity_difference = 0.0;
  /// P(yhat=1 | G+) / P(yhat=1 | G-). The legal "80% rule" flags values
  /// below 0.8. 1 if the denominator is 0.
  double disparate_impact_ratio = 1.0;
  /// False when disparate_impact_ratio holds its sentinel 1 rather than a
  /// ratio: G- is never favored (zero denominator) or a group is empty.
  bool disparate_impact_defined = false;
  /// TPR(G-) - TPR(G+). Equal opportunity holds iff 0.
  double equal_opportunity_difference = 0.0;
  /// max(|TPR gap|, |FPR gap|). Equalized odds holds iff 0.
  double equalized_odds_difference = 0.0;
  /// precision(G-) - precision(G+) (predictive parity).
  double predictive_parity_difference = 0.0;
  /// |ECE(G+) - ECE(G-)|; 0 unless both groups have labeled rows.
  double calibration_gap = 0.0;
  double accuracy = 0.0;  ///< Over labeled rows, for tradeoff reporting.

  /// Multi-line human-readable rendering.
  std::string ToString() const;
};

/// The report comparing G-'s counts `g0` with G+'s counts `g1`.
GroupFairnessReport DeriveGroupFairness(const GroupCounts& g0,
                                        const GroupCounts& g1);

/// DeriveGroupFairness of CountGroups(model, data), timed as the
/// fairness/group_metrics span.
GroupFairnessReport EvaluateGroupFairness(const Model& model,
                                          const Dataset& data);

/// The report's statistical parity difference, without the span.
double StatisticalParityDifference(const Model& model, const Dataset& data);

}  // namespace xfair

#endif  // XFAIR_FAIRNESS_GROUP_METRICS_H_
