// Rng's Box-Muller, split into NormalPolar and NormalPair (DESIGN.md
// §5.6), against the one-body Normal() it replaced
// (tests/oracles/normal_oracle.h), bit for bit. The oracle runs in the
// same process, so whichever log, sqrt, cos and sin the C library picks on
// this CPU, both sides use it. Normal(), Normal(mean, sd) and the two
// halves each match over a million draws on several seeds; an odd number
// of normals leaves the same cached value and the same stream position;
// and a growing-spheres direction drawn as ceil(d / 2) halves is the d
// normals and the jitter uniform the search drew before.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "src/util/rng.h"
#include "tests/oracles/normal_oracle.h"

namespace xfair {
namespace {

constexpr uint64_t kSeeds[] = {1, 7, 23, 0x9e3779b97f4a7c15ULL,
                               ~uint64_t{0}};

/// Draws per seed: over a million in all.
constexpr size_t kDraws = 250'000;

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(BoxMuller, NormalMatchesTheOneBodyOracle) {
  for (uint64_t seed : kSeeds) {
    Rng rng(seed), reference_rng(seed);
    oracles::BoxMullerNormal reference(&reference_rng);
    for (size_t i = 0; i < kDraws; ++i)
      ASSERT_EQ(Bits(rng.Normal()), Bits(reference.Normal()))
          << "seed " << seed << " draw " << i;
    EXPECT_EQ(rng.Next(), reference_rng.Next()) << seed;
  }
}

TEST(BoxMuller, ScaledNormalMatchesTheOracle) {
  const std::tuple<double, double> params[] = {
      {0.0, 1.0}, {-3.5, 0.25}, {1e6, 2.0}, {0.1, 0.0}, {-2.0, 7.0}};
  for (uint64_t seed : kSeeds) {
    for (const auto& [mean, sd] : params) {
      Rng rng(seed), reference_rng(seed);
      oracles::BoxMullerNormal reference(&reference_rng);
      for (size_t i = 0; i < kDraws / 5; ++i)
        ASSERT_EQ(Bits(rng.Normal(mean, sd)),
                  Bits(mean + sd * reference.Normal()))
            << "seed " << seed << " mean " << mean << " sd " << sd
            << " draw " << i;
    }
  }
}

TEST(BoxMuller, HalvesMatchTheOracle) {
  for (uint64_t seed : kSeeds) {
    Rng rng(seed), reference_rng(seed);
    oracles::BoxMullerNormal reference(&reference_rng);
    for (size_t i = 0; i < kDraws / 2; ++i) {
      const Rng::Polar polar = rng.NormalPolar();
      ASSERT_GE(polar.u2, 0.0);
      ASSERT_LT(polar.u2, 1.0);
      const auto [first, second] = Rng::NormalPair(polar);
      ASSERT_EQ(Bits(first), Bits(reference.Normal()))
          << "seed " << seed << " pair " << i;
      ASSERT_EQ(Bits(second), Bits(reference.Normal()))
          << "seed " << seed << " pair " << i;
    }
    EXPECT_EQ(rng.Next(), reference_rng.Next()) << seed;
  }
}

TEST(BoxMuller, InterleavedDrawsKeepTheCacheAndTheStream) {
  // Normals, scaled normals, uniforms and whole pairs in a random order,
  // so runs of every length, odd ones included, leave a cached value that
  // the next uniform must skip and the next normal must return. A pair
  // drawn by halves ignores the cache, as a fresh one-body draw would.
  for (uint64_t seed : kSeeds) {
    Rng rng(seed), reference_rng(seed), order(seed + 1);
    oracles::BoxMullerNormal reference(&reference_rng);
    for (size_t i = 0; i < kDraws; ++i) {
      switch (order.Below(4)) {
        case 0:
          ASSERT_EQ(Bits(rng.Normal()), Bits(reference.Normal()))
              << "seed " << seed << " op " << i;
          break;
        case 1:
          ASSERT_EQ(Bits(rng.Normal(0.5, 3.0)),
                    Bits(0.5 + 3.0 * reference.Normal()))
              << "seed " << seed << " op " << i;
          break;
        case 2:
          ASSERT_EQ(Bits(rng.Uniform()), Bits(reference_rng.Uniform()))
              << "seed " << seed << " op " << i;
          break;
        case 3: {
          oracles::BoxMullerNormal fresh(&reference_rng);
          const auto [first, second] = Rng::NormalPair(rng.NormalPolar());
          ASSERT_EQ(Bits(first), Bits(fresh.Normal()))
              << "seed " << seed << " op " << i;
          ASSERT_EQ(Bits(second), Bits(fresh.Normal()))
              << "seed " << seed << " op " << i;
          break;
        }
      }
    }
  }
}

TEST(BoxMuller, SearchDirectionsDrawTheNormalsAndJitterOfBefore) {
  // Growing spheres drew d normals and then the radius jitter from each
  // candidate's stream; it now draws ceil(d / 2) halves and then the
  // jitter. For odd d the last pair's sine pads the direction unused.
  for (size_t d = 1; d <= 9; ++d) {
    for (uint64_t seed : kSeeds) {
      for (uint64_t fork = 0; fork < 200; ++fork) {
        Rng before = Rng(seed).Fork(fork), after = Rng(seed).Fork(fork);
        oracles::BoxMullerNormal reference(&before);
        std::vector<double> dir;
        for (size_t k = 0; k < (d + 1) / 2; ++k) {
          const auto [first, second] = Rng::NormalPair(after.NormalPolar());
          dir.push_back(first);
          dir.push_back(second);
        }
        for (size_t c = 0; c < d; ++c)
          ASSERT_EQ(Bits(dir[c]), Bits(reference.Normal()))
              << "d " << d << " seed " << seed << " fork " << fork;
        ASSERT_EQ(Bits(after.Uniform()), Bits(before.Uniform()))
            << "d " << d << " seed " << seed << " fork " << fork;
      }
    }
  }
}

}  // namespace
}  // namespace xfair
