// Golden tests for the dense kernel layer (src/util/kernels.h).
//
// The determinism contract says reduction kernels accumulate in a pinned
// four-lane order that is part of the API. These tests re-implement that
// order naively and demand 0-ulp equality (EXPECT_EQ on doubles) from
// every kernel, at every size class: empty, sub-lane (n < 4), exact
// multiples of the lane width, lane width + tail, and large. The
// dispatched entry points are also compared against the always-compiled
// detail::*Scalar references — in an XFAIR_SIMD build that comparison IS
// the SIMD-on/SIMD-off bit-identity guarantee, exercised on every CPU
// the suite runs on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/data/dataset.h"
#include "src/model/logistic_regression.h"
#include "src/model/softmax_regression.h"
#include "src/util/check.h"
#include "src/util/kernels.h"
#include "src/util/matrix.h"
#include "src/util/rng.h"

namespace xfair {
namespace {

// The size classes every kernel is tested at: 0, sub-lane, exactly one
// lane pass, lane + tail, several passes, and large-enough-to-vectorize.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 64, 1000};

std::vector<double> RandomVec(size_t n, Rng* rng, double lo = -2.0,
                              double hi = 2.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Uniform(lo, hi);
  return v;
}

std::vector<uint8_t> RandomMask(size_t n, Rng* rng) {
  std::vector<uint8_t> m(n);
  for (uint8_t& b : m) b = rng->Uniform() < 0.5 ? 1 : 0;
  return m;
}

// Naive transcription of the documented pinned order: lane j takes
// elements j, j+4, ... over the first 4*floor(n/4) terms, combined as
// (l0 + l1) + (l2 + l3), tail added sequentially. For n < 4 the main
// loop is empty and this degenerates to the sequential sum.
template <typename Term>
double PinnedReduce(size_t n, Term term) {
  const size_t main = (n / 4) * 4;
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < main; ++i) lane[i % 4] += term(i);
  double total = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (size_t i = main; i < n; ++i) total += term(i);
  return total;
}

TEST(Kernels, DotMatchesPinnedOrderReference) {
  Rng rng(11);
  for (size_t n : kSizes) {
    const auto a = RandomVec(n, &rng), b = RandomVec(n, &rng);
    const double want =
        PinnedReduce(n, [&](size_t i) { return a[i] * b[i]; });
    EXPECT_EQ(kernels::Dot(a.data(), b.data(), n), want) << "n=" << n;
  }
}

TEST(Kernels, SquaredDistanceMatchesPinnedOrderReference) {
  Rng rng(12);
  for (size_t n : kSizes) {
    const auto a = RandomVec(n, &rng), b = RandomVec(n, &rng);
    const double want = PinnedReduce(n, [&](size_t i) {
      const double d = a[i] - b[i];
      return d * d;
    });
    EXPECT_EQ(kernels::SquaredDistance(a.data(), b.data(), n), want)
        << "n=" << n;
  }
}

TEST(Kernels, WeightedSquaredDistanceMatchesPinnedOrderReference) {
  Rng rng(13);
  for (size_t n : kSizes) {
    const auto a = RandomVec(n, &rng), b = RandomVec(n, &rng);
    const auto inv = RandomVec(n, &rng, 0.1, 3.0);
    const double want = PinnedReduce(n, [&](size_t i) {
      const double d = (a[i] - b[i]) * inv[i];
      return d * d;
    });
    EXPECT_EQ(kernels::WeightedSquaredDistance(a.data(), b.data(),
                                               inv.data(), n),
              want)
        << "n=" << n;
  }
}

TEST(Kernels, MaskedDotMatchesPinnedOrderReference) {
  Rng rng(14);
  for (size_t n : kSizes) {
    const auto w = RandomVec(n, &rng), a = RandomVec(n, &rng),
               b = RandomVec(n, &rng);
    const auto keep = RandomMask(n, &rng);
    const double want = PinnedReduce(
        n, [&](size_t i) { return w[i] * (keep[i] ? a[i] : b[i]); });
    EXPECT_EQ(
        kernels::MaskedDot(w.data(), a.data(), b.data(), keep.data(), n),
        want)
        << "n=" << n;
  }
}

// Bit-mask helper for the U64 kernels: n-row bitvector with the rows
// past n left zero, plus fill modes for the edge masks.
std::vector<uint64_t> BitMask(size_t n, Rng* rng, double density = 0.5) {
  std::vector<uint64_t> bits((n + 63) / 64, 0);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Uniform() < density) bits[i >> 6] |= uint64_t{1} << (i & 63);
  }
  return bits;
}

TEST(Kernels, MaskedSumU64MatchesPinnedOrderReference) {
  Rng rng(31);
  const size_t sizes[] = {0, 1, 3, 5, 63, 64, 65, 127, 128, 700, 1000};
  for (size_t n : sizes) {
    const auto v = RandomVec(n, &rng);
    for (double density : {0.0, 0.07, 0.5, 1.0}) {
      const auto bits = BitMask(n, &rng, density);
      // The zero-word skip never changes the value: a skipped word's
      // sixteen quads would each add 0.0 to every lane.
      const double want = PinnedReduce(n, [&](size_t i) {
        return (bits[i >> 6] >> (i & 63)) & 1 ? v[i] : 0.0;
      });
      EXPECT_EQ(kernels::MaskedSumU64(v.data(), bits.data(), n), want)
          << "n=" << n << " density=" << density;
      EXPECT_EQ(kernels::detail::MaskedSumU64Scalar(v.data(), bits.data(), n),
                want)
          << "n=" << n << " density=" << density;
    }
  }
}

TEST(Kernels, PopcountKernelsCountExactly) {
  Rng rng(32);
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 700u}) {
    const auto a = BitMask(n, &rng), b = BitMask(n, &rng);
    size_t want_a = 0, want_and = 0;
    for (size_t i = 0; i < n; ++i) {
      const bool in_a = (a[i >> 6] >> (i & 63)) & 1;
      const bool in_b = (b[i >> 6] >> (i & 63)) & 1;
      want_a += in_a;
      want_and += in_a && in_b;
    }
    EXPECT_EQ(kernels::PopcountU64(a.data(), a.size()), want_a) << "n=" << n;
    EXPECT_EQ(kernels::AndPopcountU64(a.data(), b.data(), a.size()), want_and)
        << "n=" << n;
    std::vector<uint64_t> out(a.size(), ~uint64_t{0});
    EXPECT_EQ(kernels::AndPopcountU64(a.data(), b.data(), out.data(),
                                      a.size()),
              want_and)
        << "n=" << n;
    EXPECT_EQ(kernels::PopcountU64(out.data(), out.size()), want_and);
  }
}

// Dispatched entry points vs the always-compiled scalar references. In
// an AVX2-enabled build this proves the SIMD specializations are
// bit-identical to the scalar pinned order; in a -DXFAIR_SIMD=OFF build
// both sides are the same code and the test documents that fact.
TEST(Kernels, DispatchedReducersMatchScalarReferencesExactly) {
  Rng rng(15);
  for (size_t n : kSizes) {
    const auto a = RandomVec(n, &rng), b = RandomVec(n, &rng);
    const auto inv = RandomVec(n, &rng, 0.1, 3.0);
    const auto keep = RandomMask(n, &rng);
    EXPECT_EQ(kernels::Dot(a.data(), b.data(), n),
              kernels::detail::DotScalar(a.data(), b.data(), n));
    EXPECT_EQ(kernels::SquaredDistance(a.data(), b.data(), n),
              kernels::detail::SquaredDistanceScalar(a.data(), b.data(), n));
    EXPECT_EQ(kernels::WeightedSquaredDistance(a.data(), b.data(),
                                               inv.data(), n),
              kernels::detail::WeightedSquaredDistanceScalar(
                  a.data(), b.data(), inv.data(), n));
    EXPECT_EQ(
        kernels::MaskedDot(a.data(), a.data(), b.data(), keep.data(), n),
        kernels::detail::MaskedDotScalar(a.data(), a.data(), b.data(),
                                         keep.data(), n));
    std::vector<double> y1 = b, y2 = b;
    kernels::Axpy(1.25, a.data(), y1.data(), n);
    kernels::detail::AxpyScalar(1.25, a.data(), y2.data(), n);
    EXPECT_EQ(y1, y2) << "n=" << n;
  }
}

TEST(Kernels, AxpyMatchesElementwiseReference) {
  Rng rng(16);
  for (size_t n : kSizes) {
    const auto x = RandomVec(n, &rng);
    auto y = RandomVec(n, &rng);
    auto want = y;
    const double alpha = 0.75;
    for (size_t i = 0; i < n; ++i) want[i] += alpha * x[i];
    kernels::Axpy(alpha, x.data(), y.data(), n);
    EXPECT_EQ(y, want) << "n=" << n;
  }
}

TEST(Kernels, ScaledAxpyEvaluatesAlphaTimesScaledX) {
  Rng rng(17);
  for (size_t n : kSizes) {
    const auto x = RandomVec(n, &rng);
    const auto scale = RandomVec(n, &rng, 0.1, 2.0);
    auto y = RandomVec(n, &rng);
    auto want = y;
    const double alpha = -0.5;
    // Documented association: alpha * (scale[i] * x[i]).
    for (size_t i = 0; i < n; ++i) want[i] += alpha * (scale[i] * x[i]);
    kernels::ScaledAxpy(alpha, scale.data(), x.data(), y.data(), n);
    EXPECT_EQ(y, want) << "n=" << n;
  }
}

TEST(Kernels, AccumSquaredDiffAndStandardizeMatchReferences) {
  Rng rng(18);
  for (size_t n : kSizes) {
    const auto x = RandomVec(n, &rng);
    const auto mean = RandomVec(n, &rng);
    const auto std = RandomVec(n, &rng, 0.5, 2.0);
    auto acc = RandomVec(n, &rng);
    auto want_acc = acc;
    for (size_t i = 0; i < n; ++i) {
      const double d = x[i] - mean[i];
      want_acc[i] += d * d;
    }
    kernels::AccumSquaredDiff(x.data(), mean.data(), acc.data(), n);
    EXPECT_EQ(acc, want_acc) << "n=" << n;

    std::vector<double> out(n), want(n);
    for (size_t i = 0; i < n; ++i) want[i] = (x[i] - mean[i]) / std[i];
    kernels::Standardize(x.data(), mean.data(), std.data(), out.data(), n);
    EXPECT_EQ(out, want) << "n=" << n;
  }
}

TEST(Kernels, StandardizeWithZeroMeanUnitStdIsExactIdentity) {
  // The scaler relies on pass-through columns (mean 0, std 1) being an
  // exact IEEE identity: (x - 0) / 1 == x for every double.
  Rng rng(19);
  const auto x = RandomVec(64, &rng, -1e12, 1e12);
  const std::vector<double> mean(64, 0.0), std(64, 1.0);
  std::vector<double> out(64);
  kernels::Standardize(x.data(), mean.data(), std.data(), out.data(), 64);
  EXPECT_EQ(out, x);
}

TEST(Kernels, MaskedBlendSelectsPerElement) {
  Rng rng(20);
  for (size_t n : kSizes) {
    const auto a = RandomVec(n, &rng), b = RandomVec(n, &rng);
    const auto keep = RandomMask(n, &rng);
    std::vector<double> out(n), want(n);
    for (size_t i = 0; i < n; ++i) want[i] = keep[i] ? a[i] : b[i];
    kernels::MaskedBlend(a.data(), b.data(), keep.data(), out.data(), n);
    EXPECT_EQ(out, want) << "n=" << n;
  }
}

TEST(Kernels, GemvMatchesPerRowPinnedDot) {
  Rng rng(21);
  for (size_t cols : kSizes) {
    const size_t rows = 5;
    const auto m = RandomVec(rows * cols, &rng);
    const auto v = RandomVec(cols, &rng);
    const auto bias = RandomVec(rows, &rng);
    std::vector<double> out(rows), out_b(rows);
    kernels::Gemv(m.data(), rows, cols, v.data(), 0.25, out.data());
    kernels::GemvBias(m.data(), rows, cols, v.data(), bias.data(),
                      out_b.data());
    for (size_t r = 0; r < rows; ++r) {
      const double dot = PinnedReduce(
          cols, [&](size_t c) { return m[r * cols + c] * v[c]; });
      EXPECT_EQ(out[r], 0.25 + dot) << "cols=" << cols << " r=" << r;
      EXPECT_EQ(out_b[r], bias[r] + dot) << "cols=" << cols << " r=" << r;
    }
  }
}

TEST(Kernels, MatVecTAccumulatesRowMajor) {
  Rng rng(22);
  for (size_t cols : kSizes) {
    const size_t rows = 7;
    const auto m = RandomVec(rows * cols, &rng);
    const auto v = RandomVec(rows, &rng);
    std::vector<double> out(cols, 0.5), want(cols, 0.5);
    for (size_t r = 0; r < rows; ++r)
      for (size_t c = 0; c < cols; ++c) want[c] += v[r] * m[r * cols + c];
    kernels::MatVecT(m.data(), rows, cols, v.data(), out.data());
    EXPECT_EQ(out, want) << "cols=" << cols;
  }
}

TEST(Kernels, SigmoidBatchMatchesScalarSigmoid) {
  Rng rng(23);
  for (size_t n : kSizes) {
    const auto z = RandomVec(n, &rng, -40.0, 40.0);
    std::vector<double> out(n);
    kernels::SigmoidBatch(z.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i)
      EXPECT_EQ(out[i], kernels::Sigmoid(z[i])) << "n=" << n << " i=" << i;
  }
}

TEST(Kernels, SigmoidIsBoundedAndMonotoneAtExtremes) {
  EXPECT_EQ(kernels::Sigmoid(0.0), 0.5);
  EXPECT_GT(kernels::Sigmoid(800.0), 0.999);
  EXPECT_LT(kernels::Sigmoid(-800.0), 0.001);
  EXPECT_TRUE(std::isfinite(kernels::Sigmoid(800.0)));
  EXPECT_TRUE(std::isfinite(kernels::Sigmoid(-800.0)));
}

TEST(Kernels, SoftmaxRowMatchesSequentialReference) {
  Rng rng(24);
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{16}}) {
    auto logits = RandomVec(k, &rng, -5.0, 5.0);
    auto want = logits;
    // Reference: sequential running max, exp, sequential denominator.
    double mx = want[0];
    for (size_t i = 1; i < k; ++i) mx = std::max(mx, want[i]);
    double denom = 0.0;
    for (size_t i = 0; i < k; ++i) {
      want[i] = std::exp(want[i] - mx);
      denom += want[i];
    }
    for (size_t i = 0; i < k; ++i) want[i] /= denom;
    kernels::SoftmaxRow(logits.data(), k);
    EXPECT_EQ(logits, want) << "k=" << k;
  }
}

TEST(Kernels, SgdPairUpdateReadsBothFactorsBeforeWriting) {
  Rng rng(25);
  for (size_t n : kSizes) {
    auto u = RandomVec(n, &rng), q = RandomVec(n, &rng);
    auto want_u = u, want_q = q;
    const double lr = 0.05, err = 0.3, l2 = 0.01;
    for (size_t i = 0; i < n; ++i) {
      const double pu = want_u[i], qi = want_q[i];
      want_u[i] -= lr * (err * qi + l2 * pu);
      want_q[i] -= lr * (err * pu + l2 * qi);
    }
    kernels::SgdPairUpdate(u.data(), q.data(), lr, err, l2, n);
    EXPECT_EQ(u, want_u) << "n=" << n;
    EXPECT_EQ(q, want_q) << "n=" << n;
  }
}

TEST(Kernels, SimdActiveReportsCompiledDispatch) {
#if defined(XFAIR_SIMD_ENABLED) && defined(__x86_64__)
  // With SIMD compiled in, activity depends only on the CPU; either way
  // the call must be consistent across invocations.
  EXPECT_EQ(kernels::SimdActive(), kernels::SimdActive());
#else
  EXPECT_FALSE(kernels::SimdActive());
#endif
}

// Repeated fits through the kernel paths must be bit-identical — the
// kernels are pure functions of their inputs, so refitting on the same
// data reproduces every weight exactly.
Dataset SmallBinaryDataset() {
  Rng rng(77);
  const size_t n = 80, d = 6;
  Matrix x(n, d);
  std::vector<int> y(n);
  std::vector<int> g(n);
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t c = 0; c < d; ++c) {
      x.At(i, c) = rng.Normal(0.0, 1.0);
      s += x.At(i, c);
    }
    y[i] = s > 0 ? 1 : 0;
    g[i] = i % 2;
  }
  std::vector<FeatureSpec> specs(d);
  for (size_t c = 0; c < d; ++c)
    specs[c].name = std::string("f").append(std::to_string(c));
  return Dataset(Schema(std::move(specs), -1), std::move(x), std::move(y),
                 std::move(g));
}

TEST(Kernels, LogisticFitIsBitReproducible) {
  const Dataset data = SmallBinaryDataset();
  LogisticRegression a, b;
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  ASSERT_EQ(a.weights().size(), b.weights().size());
  for (size_t i = 0; i < a.weights().size(); ++i)
    EXPECT_EQ(a.weights()[i], b.weights()[i]);
  EXPECT_EQ(a.bias(), b.bias());
}

TEST(Kernels, SoftmaxFitIsBitReproducible) {
  const Dataset data = SmallBinaryDataset();
  SoftmaxRegression a, b;
  ASSERT_TRUE(a.Fit(data.x(), data.labels(), 2).ok());
  ASSERT_TRUE(b.Fit(data.x(), data.labels(), 2).ok());
  const Vector pa = a.PredictProba(data.x().Row(0));
  const Vector pb = b.PredictProba(data.x().Row(0));
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

#if XFAIR_DCHECK_IS_ON
using KernelsDeathTest = ::testing::Test;

TEST(KernelsDeathTest, MatrixAtOutOfBoundsFiresDcheck) {
  // Matrix::At demoted its hot-path bounds checks to XFAIR_DCHECK; this
  // build arms them (Debug or sanitizer), so out-of-bounds must abort.
  Matrix m(2, 3);
  EXPECT_DEATH((void)m.At(2, 0), "XFAIR_CHECK failed");
  EXPECT_DEATH((void)m.At(0, 3), "XFAIR_CHECK failed");
}
#endif  // XFAIR_DCHECK_IS_ON

}  // namespace
}  // namespace xfair
