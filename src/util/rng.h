// Deterministic pseudo-random number generation.
//
// Every stochastic component in xfair takes an explicit seed and derives all
// randomness from an Rng, so experiments and tests are exactly reproducible
// across runs and platforms. The generator is xoshiro256** seeded via
// splitmix64, independent of the (implementation-defined) <random>
// distributions.

#ifndef XFAIR_UTIL_RNG_H_
#define XFAIR_UTIL_RNG_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace xfair {

/// Deterministic 64-bit PRNG (xoshiro256**) with convenience samplers.
class Rng {
 public:
  /// Seeds the state via splitmix64 expansion of `seed`.
  explicit Rng(uint64_t seed = 0);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t Below(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t IntIn(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (cached second value): the first of
  /// NormalPair(NormalPolar()), whose second it returns next.
  double Normal();

  /// One Box-Muller draw before its trig: rho = sqrt(-2 log u1) and the
  /// angle's uniform u2, with theta = 2 pi u2.
  struct Polar {
    double rho = 0.0;
    double u2 = 0.0;  ///< In [0, 1).
  };

  /// Box-Muller's first half: draws u1, then u2.
  Polar NormalPolar();

  /// Box-Muller's second half: the independent standard normals
  /// (rho cos theta, rho sin theta) of one draw. Draws nothing.
  static std::pair<double, double> NormalPair(const Polar& polar);

  /// Normal with given mean and standard deviation (stddev >= 0).
  double Normal(double mean, double stddev);

  /// Bernoulli trial with success probability p in [0, 1].
  bool Bernoulli(double p);

  /// Samples an index in [0, weights.size()) proportional to weights.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(Below(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n). Requires k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// A fresh Rng whose stream is independent of this one (for spawning
  /// per-worker or per-component generators). Advances this generator.
  Rng Split();

  /// Deterministic child stream number `stream`, derived from the current
  /// state WITHOUT advancing it: Fork(i) always yields the same generator
  /// for a given state, and distinct `stream` values yield independent
  /// streams. This is how parallel loops get per-chunk (or per-item)
  /// randomness that is identical for every thread count.
  Rng Fork(uint64_t stream) const;

 private:
  uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace xfair

#endif  // XFAIR_UTIL_RNG_H_
