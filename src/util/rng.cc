#include "src/util/rng.h"

#include <cmath>
#include <numbers>

namespace xfair {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  XFAIR_CHECK(lo <= hi);
  return lo + (hi - lo) * Uniform();
}

uint64_t Rng::Below(uint64_t n) {
  XFAIR_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::IntIn(int64_t lo, int64_t hi) {
  XFAIR_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  Below(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  const auto [first, second] = NormalPair(NormalPolar());
  cached_normal_ = second;
  has_cached_normal_ = true;
  return first;
}

Rng::Polar Rng::NormalPolar() {
  // u1 in (0,1] to avoid log(0).
  const double u1 = 1.0 - Uniform();
  const double u2 = Uniform();
  return {std::sqrt(-2.0 * std::log(u1)), u2};
}

std::pair<double, double> Rng::NormalPair(const Polar& polar) {
  const double theta = 2.0 * std::numbers::pi * polar.u2;
  return {polar.rho * std::cos(theta), polar.rho * std::sin(theta)};
}

double Rng::Normal(double mean, double stddev) {
  XFAIR_CHECK(stddev >= 0.0);
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) {
  XFAIR_CHECK(p >= 0.0 && p <= 1.0);
  return Uniform() < p;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    XFAIR_CHECK(w >= 0.0);
    total += w;
  }
  XFAIR_CHECK_MSG(total > 0.0, "Categorical needs a positive weight");
  double u = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  return weights.size() - 1;  // Floating-point edge: return last bucket.
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  XFAIR_CHECK(k <= n);
  // Partial Fisher-Yates over an index vector.
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(Below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

Rng Rng::Split() { return Rng(Next()); }

Rng Rng::Fork(uint64_t stream) const {
  // Mix the (unmodified) state words with the stream index through
  // splitmix64 so nearby stream numbers land in unrelated seeds.
  uint64_t h = 0x6a09e667f3bcc909ULL ^ stream;
  h = SplitMix64(&h);
  for (uint64_t s : state_) {
    uint64_t mixed = h ^ s;
    h = SplitMix64(&mixed);
  }
  uint64_t final_mix = h ^ stream;
  return Rng(SplitMix64(&final_mix));
}

}  // namespace xfair
