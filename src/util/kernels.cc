#include "src/util/kernels.h"

#include <cmath>

#include "src/obs/obs.h"

// AVX2 specializations are compiled when the build opts in
// (-DXFAIR_SIMD=ON -> XFAIR_SIMD_ENABLED) on an x86-64 toolchain, and
// selected at runtime via cpuid so the same binary runs on machines
// without AVX2. Each intrinsic body mirrors the scalar pinned-order
// implementation lane for lane; FMA is never used (it would fuse the
// multiply-add rounding and break the 0-ulp scalar/SIMD guarantee).
#if defined(XFAIR_SIMD_ENABLED) && defined(__x86_64__)
#define XFAIR_KERNELS_AVX2 1
#include <immintrin.h>
#endif

namespace xfair::kernels {
namespace detail {

double DotScalar(const double* __restrict a, const double* __restrict b,
                 size_t n) {
  const size_t n4 = n & ~size_t{3};
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  for (size_t i = 0; i < n4; i += 4) {
    l0 += a[i] * b[i];
    l1 += a[i + 1] * b[i + 1];
    l2 += a[i + 2] * b[i + 2];
    l3 += a[i + 3] * b[i + 3];
  }
  double acc = (l0 + l1) + (l2 + l3);
  for (size_t i = n4; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double SquaredDistanceScalar(const double* __restrict a,
                             const double* __restrict b, size_t n) {
  const size_t n4 = n & ~size_t{3};
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  for (size_t i = 0; i < n4; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    l0 += d0 * d0;
    l1 += d1 * d1;
    l2 += d2 * d2;
    l3 += d3 * d3;
  }
  double acc = (l0 + l1) + (l2 + l3);
  for (size_t i = n4; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double WeightedSquaredDistanceScalar(const double* __restrict a,
                                     const double* __restrict b,
                                     const double* __restrict inv_scale,
                                     size_t n) {
  const size_t n4 = n & ~size_t{3};
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  for (size_t i = 0; i < n4; i += 4) {
    const double d0 = (a[i] - b[i]) * inv_scale[i];
    const double d1 = (a[i + 1] - b[i + 1]) * inv_scale[i + 1];
    const double d2 = (a[i + 2] - b[i + 2]) * inv_scale[i + 2];
    const double d3 = (a[i + 3] - b[i + 3]) * inv_scale[i + 3];
    l0 += d0 * d0;
    l1 += d1 * d1;
    l2 += d2 * d2;
    l3 += d3 * d3;
  }
  double acc = (l0 + l1) + (l2 + l3);
  for (size_t i = n4; i < n; ++i) {
    const double d = (a[i] - b[i]) * inv_scale[i];
    acc += d * d;
  }
  return acc;
}

double MaskedDotScalar(const double* __restrict w,
                       const double* __restrict a,
                       const double* __restrict b,
                       const uint8_t* __restrict keep, size_t n) {
  const size_t n4 = n & ~size_t{3};
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  for (size_t i = 0; i < n4; i += 4) {
    l0 += w[i] * (keep[i] ? a[i] : b[i]);
    l1 += w[i + 1] * (keep[i + 1] ? a[i + 1] : b[i + 1]);
    l2 += w[i + 2] * (keep[i + 2] ? a[i + 2] : b[i + 2]);
    l3 += w[i + 3] * (keep[i + 3] ? a[i + 3] : b[i + 3]);
  }
  double acc = (l0 + l1) + (l2 + l3);
  for (size_t i = n4; i < n; ++i) acc += w[i] * (keep[i] ? a[i] : b[i]);
  return acc;
}

double MaskedSumU64Scalar(const double* __restrict v,
                          const uint64_t* __restrict bits, size_t n) {
  const size_t n4 = n & ~size_t{3};
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  size_t i = 0;
  while (i < n4) {
    if ((i & 63) == 0) {
      // Zero-word skip (part of the API, see kernels.h): a 64-row group
      // with no set bits would only add +0.0 to each lane, so whole
      // zero words are stepped over without touching the accumulators.
      while (i + 64 <= n4 && bits[i >> 6] == 0) i += 64;
      if (i >= n4) break;
    }
    const uint64_t nib = (bits[i >> 6] >> (i & 63)) & 0xF;
    l0 += (nib & 1) ? v[i] : 0.0;
    l1 += (nib & 2) ? v[i + 1] : 0.0;
    l2 += (nib & 4) ? v[i + 2] : 0.0;
    l3 += (nib & 8) ? v[i + 3] : 0.0;
    i += 4;
  }
  double acc = (l0 + l1) + (l2 + l3);
  for (size_t t = n4; t < n; ++t) {
    acc += ((bits[t >> 6] >> (t & 63)) & 1) ? v[t] : 0.0;
  }
  return acc;
}

void AxpyScalar(double alpha, const double* __restrict x,
                double* __restrict y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace detail

#if XFAIR_KERNELS_AVX2
namespace {

/// Combines the four lanes of `acc` in the pinned order
/// (lane0 + lane1) + (lane2 + lane3) using scalar adds.
__attribute__((target("avx2"))) inline double HorizontalPinned(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);     // lanes 0, 1
  const __m128d hi = _mm256_extractf128_pd(acc, 1);   // lanes 2, 3
  const double l0 = _mm_cvtsd_f64(lo);
  const double l1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
  const double l2 = _mm_cvtsd_f64(hi);
  const double l3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
  return (l0 + l1) + (l2 + l3);
}

__attribute__((target("avx2"))) double DotAvx2(const double* __restrict a,
                                               const double* __restrict b,
                                               size_t n) {
  const size_t n4 = n & ~size_t{3};
  __m256d acc = _mm256_setzero_pd();
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, prod);
  }
  double total = HorizontalPinned(acc);
  for (size_t i = n4; i < n; ++i) total += a[i] * b[i];
  return total;
}

__attribute__((target("avx2"))) double SquaredDistanceAvx2(
    const double* __restrict a, const double* __restrict b, size_t n) {
  const size_t n4 = n & ~size_t{3};
  __m256d acc = _mm256_setzero_pd();
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double total = HorizontalPinned(acc);
  for (size_t i = n4; i < n; ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

__attribute__((target("avx2"))) double WeightedSquaredDistanceAvx2(
    const double* __restrict a, const double* __restrict b,
    const double* __restrict inv_scale, size_t n) {
  const size_t n4 = n & ~size_t{3};
  __m256d acc = _mm256_setzero_pd();
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d d = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)),
        _mm256_loadu_pd(inv_scale + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double total = HorizontalPinned(acc);
  for (size_t i = n4; i < n; ++i) {
    const double d = (a[i] - b[i]) * inv_scale[i];
    total += d * d;
  }
  return total;
}

__attribute__((target("avx2"))) void AxpyAvx2(double alpha,
                                              const double* __restrict x,
                                              double* __restrict y,
                                              size_t n) {
  const size_t n4 = n & ~size_t{3};
  const __m256d va = _mm256_set1_pd(alpha);
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (size_t i = n4; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) double MaskedSumU64Avx2(
    const double* __restrict v, const uint64_t* __restrict bits, size_t n) {
  const size_t n4 = n & ~size_t{3};
  // Lane j of `sel` carries bit value 1 << j; comparing (nibble & sel)
  // against sel turns the mask nibble into a per-lane all-ones/zeros
  // blend mask. ANDing the loaded values keeps masked-in lanes exact and
  // turns masked-out lanes into +0.0 — the same term the scalar
  // reference adds, so the add sequences are identical.
  const __m256i sel = _mm256_set_epi64x(8, 4, 2, 1);
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  while (i < n4) {
    if ((i & 63) == 0) {
      while (i + 64 <= n4 && bits[i >> 6] == 0) i += 64;  // Zero-word skip.
      if (i >= n4) break;
    }
    const long long nib =
        static_cast<long long>((bits[i >> 6] >> (i & 63)) & 0xF);
    const __m256i hit = _mm256_and_si256(_mm256_set1_epi64x(nib), sel);
    const __m256d mask = _mm256_castsi256_pd(_mm256_cmpeq_epi64(hit, sel));
    acc = _mm256_add_pd(acc, _mm256_and_pd(mask, _mm256_loadu_pd(v + i)));
    i += 4;
  }
  double total = HorizontalPinned(acc);
  for (size_t t = n4; t < n; ++t) {
    total += ((bits[t >> 6] >> (t & 63)) & 1) ? v[t] : 0.0;
  }
  return total;
}

bool DetectAvx2() { return __builtin_cpu_supports("avx2") != 0; }
const bool kAvx2 = DetectAvx2();

}  // namespace
#endif  // XFAIR_KERNELS_AVX2

bool SimdActive() {
#if XFAIR_KERNELS_AVX2
  return kAvx2;
#else
  return false;
#endif
}

double Dot(const double* a, const double* b, size_t n) {
#if XFAIR_KERNELS_AVX2
  if (kAvx2) return DotAvx2(a, b, n);
#endif
  return detail::DotScalar(a, b, n);
}

double SquaredDistance(const double* a, const double* b, size_t n) {
#if XFAIR_KERNELS_AVX2
  if (kAvx2) return SquaredDistanceAvx2(a, b, n);
#endif
  return detail::SquaredDistanceScalar(a, b, n);
}

double WeightedSquaredDistance(const double* a, const double* b,
                               const double* inv_scale, size_t n) {
#if XFAIR_KERNELS_AVX2
  if (kAvx2) return WeightedSquaredDistanceAvx2(a, b, inv_scale, n);
#endif
  return detail::WeightedSquaredDistanceScalar(a, b, inv_scale, n);
}

double MaskedDot(const double* w, const double* a, const double* b,
                 const uint8_t* keep, size_t n) {
  return detail::MaskedDotScalar(w, a, b, keep, n);
}

double MaskedSumU64(const double* v, const uint64_t* bits, size_t n) {
#if XFAIR_KERNELS_AVX2
  if (kAvx2) return MaskedSumU64Avx2(v, bits, n);
#endif
  return detail::MaskedSumU64Scalar(v, bits, n);
}

size_t PopcountU64(const uint64_t* bits, size_t words) {
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += static_cast<size_t>(__builtin_popcountll(bits[w]));
  }
  return count;
}

size_t AndPopcountU64(const uint64_t* __restrict a,
                      const uint64_t* __restrict b,
                      uint64_t* __restrict out, size_t words) {
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    const uint64_t v = a[w] & b[w];
    out[w] = v;
    count += static_cast<size_t>(__builtin_popcountll(v));
  }
  return count;
}

size_t AndPopcountU64(const uint64_t* __restrict a,
                      const uint64_t* __restrict b, size_t words) {
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += static_cast<size_t>(__builtin_popcountll(a[w] & b[w]));
  }
  return count;
}

void Axpy(double alpha, const double* x, double* y, size_t n) {
#if XFAIR_KERNELS_AVX2
  if (kAvx2) {
    AxpyAvx2(alpha, x, y, n);
    return;
  }
#endif
  detail::AxpyScalar(alpha, x, y, n);
}

void ScaledAxpy(double alpha, const double* __restrict scale,
                const double* __restrict x, double* __restrict y,
                size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * (scale[i] * x[i]);
}

void AccumSquaredDiff(const double* __restrict x,
                      const double* __restrict mean,
                      double* __restrict acc, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double d = x[i] - mean[i];
    acc[i] += d * d;
  }
}

void Standardize(const double* __restrict x, const double* __restrict mean,
                 const double* __restrict std, double* __restrict out,
                 size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = (x[i] - mean[i]) / std[i];
}

void MaskedBlend(const double* __restrict a, const double* __restrict b,
                 const uint8_t* __restrict keep, double* __restrict out,
                 size_t n) {
  XFAIR_COUNTER_ADD("kernels/masked_blend", 1);
  for (size_t i = 0; i < n; ++i) out[i] = keep[i] ? a[i] : b[i];
}

void Gemv(const double* m, size_t rows, size_t cols, const double* v,
          double bias, double* out) {
  XFAIR_COUNTER_ADD("kernels/gemv_rows", rows);
  for (size_t r = 0; r < rows; ++r) out[r] = bias + Dot(m + r * cols, v, cols);
}

void GemvBias(const double* m, size_t rows, size_t cols, const double* v,
              const double* bias, double* out) {
  XFAIR_COUNTER_ADD("kernels/gemv_rows", rows);
  for (size_t r = 0; r < rows; ++r)
    out[r] = bias[r] + Dot(m + r * cols, v, cols);
}

void MatVecT(const double* m, size_t rows, size_t cols, const double* v,
             double* out) {
  XFAIR_COUNTER_ADD("kernels/matvect_rows", rows);
  for (size_t r = 0; r < rows; ++r) Axpy(v[r], m + r * cols, out, cols);
}

void SigmoidBatch(const double* __restrict z, double* __restrict out,
                  size_t n) {
  XFAIR_COUNTER_ADD("kernels/sigmoid_batch_elems", n);
  for (size_t i = 0; i < n; ++i) out[i] = Sigmoid(z[i]);
}

void SoftmaxRow(double* logits, size_t k) {
  XFAIR_COUNTER_ADD("kernels/softmax_rows", 1);
  double max_logit = -1e300;
  for (size_t i = 0; i < k; ++i) max_logit = std::max(max_logit, logits[i]);
  double denom = 0.0;
  for (size_t i = 0; i < k; ++i) {
    logits[i] = std::exp(logits[i] - max_logit);
    denom += logits[i];
  }
  for (size_t i = 0; i < k; ++i) logits[i] /= denom;
}

void SgdPairUpdate(double* __restrict u, double* __restrict q, double lr,
                   double err, double l2, size_t n) {
  XFAIR_COUNTER_ADD("kernels/sgd_pair_updates", 1);
  for (size_t i = 0; i < n; ++i) {
    const double pu = u[i], qi = q[i];
    u[i] -= lr * (err * qi + l2 * pu);
    q[i] -= lr * (err * pu + l2 * qi);
  }
}

}  // namespace xfair::kernels
