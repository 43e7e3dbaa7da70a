// Presorted split finding for the CART and GBM tree builders (SLIQ's
// presorting: Mehta, Agrawal and Rissanen, EDBT 1996).
//
// A tree fit scans, at every node and for every candidate feature, the
// node's rows in ascending (value, row) order. Presort sorts each feature
// once per fit and keeps one list of row ids per feature. A node owns the
// same [begin, end) range of every list; Partition splits that range
// stably by the node's `x[feature] <= threshold` predicate, so each child's
// range of every list is again its rows in (value, row) order -- exactly
// the order a per-node std::sort of (value, row) pairs gives -- and no node
// sorts. One more list keeps the node's rows in ascending id order, the
// order node sums accumulate in. See DESIGN.md §5.4.

#ifndef XFAIR_MODEL_PRESORT_H_
#define XFAIR_MODEL_PRESORT_H_

#include <cstdint>
#include <vector>

#include "src/util/matrix.h"
#include "src/util/status.h"

namespace xfair {

/// The split-finding layout of one tree fit over a subset of X's rows.
class Presort {
 public:
  /// Builds the layout over `rows` (ascending ids into `x`). Every value
  /// of `x` must be finite (CheckFiniteInputs): (value, row) has no
  /// strict order once a value is NaN. Fails with InvalidArgument when
  /// `x` has too many rows for 32-bit ids. The layout reads `x` in place,
  /// so `x` must outlive it unchanged.
  static Result<Presort> Make(const Matrix& x, std::vector<uint32_t> rows);

  /// Rows in the fit: the length of every list.
  size_t size() const { return m_; }
  size_t num_features() const { return d_; }
  /// x[row][f].
  double value(size_t row, size_t f) const { return x_[row * d_ + f]; }
  /// The ascending row-id list; a node's rows are [begin, end) of it.
  const uint32_t* rows() const { return lists_.data(); }
  /// Feature f's list; a node's [begin, end) is sorted by (value, row).
  const uint32_t* sorted(size_t f) const {
    return lists_.data() + (f + 1) * m_;
  }

  /// Stably partitions [begin, end) of every list into the rows with
  /// x[feature] <= threshold, then the rest, and returns the first index
  /// of the rest. The lists are left untouched when one side is empty.
  size_t Partition(size_t begin, size_t end, size_t feature,
                   double threshold);

  /// Restores every list to the order Make built. The first call
  /// snapshots that order (the lists must not have been partitioned
  /// yet), so a fit that never resets keeps a single copy of the lists.
  void Reset();

 private:
  // X is read in place rather than copied column-major: on the audit's
  // 6k rows a copy bought no measurable fit time, and it costs n * d
  // doubles of peak memory per fit (1.5 MB for the 24k-row surrogate).
  const double* x_ = nullptr;
  size_t m_ = 0;  ///< Rows in the fit.
  size_t d_ = 0;
  std::vector<uint32_t> lists_;     ///< Row list, then d_ sorted lists.
  std::vector<uint32_t> root_;      ///< lists_ as built (after a Reset).
  std::vector<uint32_t> spill_;     ///< Right-side ids during a partition.
  std::vector<uint8_t> goes_left_;  ///< Per row id, during a partition.
};

}  // namespace xfair

#endif  // XFAIR_MODEL_PRESORT_H_
