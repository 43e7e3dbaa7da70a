// Rng::Normal() as it read before Box-Muller was split into
// Rng::NormalPolar and Rng::NormalPair (DESIGN.md §5.6): one uniform for
// u1, one for u2, then sqrt, log, cos and sin in one body, the sine cached
// for the next call. Kept as the reference the split is tested against
// bit for bit. Linked by the tests and the benches (xfair_oracles), never
// by the library.

#ifndef XFAIR_TESTS_ORACLES_NORMAL_ORACLE_H_
#define XFAIR_TESTS_ORACLES_NORMAL_ORACLE_H_

#include "src/util/rng.h"

namespace xfair::oracles {

/// Standard normals drawn from `rng`'s uniforms by the one-body
/// Box-Muller. Holds its own cached second value; `rng` must outlive it.
class BoxMullerNormal {
 public:
  explicit BoxMullerNormal(Rng* rng) : rng_(rng) {}

  double Normal();

 private:
  double Uniform() { return rng_->Uniform(); }

  Rng* rng_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace xfair::oracles

#endif  // XFAIR_TESTS_ORACLES_NORMAL_ORACLE_H_
