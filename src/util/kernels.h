// Dense kernel layer: check-free, SIMD-friendly inner loops.
//
// Every fit/predict/distance hot loop in the library bottoms out in one
// of these primitives. They take raw `__restrict`-qualified pointers —
// no Matrix::At bounds check per element (callers validate shapes once,
// the kernels trust them; Debug/sanitizer builds re-arm the per-element
// checks via XFAIR_DCHECK in Matrix) — so the compiler can keep the
// inner loop in registers and vector units.
//
// Determinism contract (see DESIGN.md §7). Reduction kernels (Dot,
// SquaredDistance, WeightedSquaredDistance, MaskedDot, and Gemv's
// per-row dots) accumulate in a *pinned four-lane order* that is part of
// the API, not an implementation detail:
//
//   lane j   accumulates elements j, j+4, j+8, ... (j in 0..3) over the
//            first 4*floor(n/4) elements, each as acc_j += term_i;
//   combine  total = (lane0 + lane1) + (lane2 + lane3);
//   tail     the remaining n mod 4 elements are added sequentially:
//            total += term_i for i = 4*floor(n/4) .. n-1.
//
// The AVX2 specializations (enabled by -DXFAIR_SIMD=ON, dispatched at
// runtime on cpuid) map lane j to vector lane j and use separate
// multiply/add instructions — never FMA, which would contract the
// rounding — so scalar and SIMD builds produce bit-identical results (0
// ulp, golden-tested in tests/kernels_test.cc). For n < 4 the pinned
// order degenerates to the naive sequential loop. Elementwise kernels
// (Axpy, SigmoidBatch, MaskedBlend, ...) have one IEEE-defined result
// per element and are trivially order-independent.
//
// Instrumentation: kernels invoked once per batch or per row carry an
// XFAIR_COUNTER_ADD so BENCH JSONs report kernel call volumes. The
// element-granularity reducers (Dot, SquaredDistance, Axpy) are left
// uncounted on purpose: a relaxed atomic per call would cost as much as
// the kernel itself at the d ~ 4-64 sizes the library runs.

#ifndef XFAIR_UTIL_KERNELS_H_
#define XFAIR_UTIL_KERNELS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace xfair::kernels {

/// sum_i a[i] * b[i], pinned four-lane order.
double Dot(const double* a, const double* b, size_t n);

/// sum_i (a[i] - b[i])^2, pinned four-lane order.
double SquaredDistance(const double* a, const double* b, size_t n);

/// sum_i ((a[i] - b[i]) * inv_scale[i])^2, pinned four-lane order.
double WeightedSquaredDistance(const double* a, const double* b,
                               const double* inv_scale, size_t n);

/// sum_i w[i] * (keep[i] ? a[i] : b[i]), pinned four-lane order. `keep`
/// is a byte mask (0 = take b). Branchless coalition evaluation for
/// linear models.
double MaskedDot(const double* w, const double* a, const double* b,
                 const uint8_t* keep, size_t n);

/// y[i] += alpha * x[i] (elementwise; no FMA contraction).
void Axpy(double alpha, const double* x, double* y, size_t n);

/// y[i] += alpha * scale[i] * x[i], evaluated as alpha * (scale * x).
void ScaledAxpy(double alpha, const double* scale, const double* x,
                double* y, size_t n);

/// acc[i] += (x[i] - mean[i])^2 (elementwise): the second pass of
/// column-variance computed row-major.
void AccumSquaredDiff(const double* x, const double* mean, double* acc,
                      size_t n);

/// out[i] = (x[i] - mean[i]) / std[i] (elementwise standardization).
void Standardize(const double* x, const double* mean, const double* std,
                 double* out, size_t n);

/// out[i] = keep[i] ? a[i] : b[i] — masked-instance assembly for SHAP
/// coalition evaluation. Counted per call ("kernels/masked_blend").
void MaskedBlend(const double* a, const double* b, const uint8_t* keep,
                 double* out, size_t n);

/// out[r] = bias + Dot(row_r of m, v) for a row-major rows x cols
/// matrix; each row uses the pinned dot. Counted ("kernels/gemv_rows").
void Gemv(const double* m, size_t rows, size_t cols, const double* v,
          double bias, double* out);

/// out[r] = bias[r] + Dot(row_r of m, v). Counted ("kernels/gemv_rows").
void GemvBias(const double* m, size_t rows, size_t cols, const double* v,
              const double* bias, double* out);

/// out[c] += sum_r v[r] * m[r][c] (transpose mat-vec), accumulated row
/// by row in ascending r — an Axpy per row, elementwise deterministic.
/// `out` must be pre-initialized. Counted ("kernels/matvect_rows").
void MatVecT(const double* m, size_t rows, size_t cols, const double* v,
             double* out);

/// Branch-stable logistic function (the library's one sigmoid). Defined
/// inline so per-row scorers such as GBM's PredictProba inline it.
inline double Sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

/// out[i] = Sigmoid(z[i]). Counted ("kernels/sigmoid_batch_elems").
void SigmoidBatch(const double* z, double* out, size_t n);

/// In-place softmax of one row of k logits: subtract the sequential
/// running max, exponentiate, divide by the sequentially accumulated
/// denominator — exactly the order SoftmaxRegression::PredictProba has
/// always used, so batch and single-row paths stay bit-identical.
/// Counted ("kernels/softmax_rows").
void SoftmaxRow(double* logits, size_t k);

/// sum of v[i] over the set bits of an n-row bitvector (uint64 words,
/// bit i of word i/64 is row i), the extent-masked reducer behind the
/// subgroup-search lattice. Pinned four-lane order over masked terms
/// t_i = (bit_i ? v[i] : 0.0), with one extra rule that is also part of
/// the API: a 64-row group whose mask word is zero is skipped outright
/// (its sixteen all-zero quads never touch the accumulators), so sparse
/// extents cost O(set words), not O(n). The scalar reference and the
/// AVX2 specialization execute the identical add sequence, so they are
/// bit-identical at 0 ulp like every other reducer.
double MaskedSumU64(const double* v, const uint64_t* bits, size_t n);

/// Number of set bits in `words` uint64 words.
size_t PopcountU64(const uint64_t* bits, size_t words);

/// out[w] = a[w] & b[w]; returns the popcount of the result. The
/// word-wise extent intersection of the lattice engine: a depth-k
/// candidate's extent is the AND of k single-condition bitvectors, and
/// its support is the returned popcount. Integer-only, so SIMD and
/// thread count cannot perturb it.
size_t AndPopcountU64(const uint64_t* a, const uint64_t* b, uint64_t* out,
                      size_t words);

/// Popcount of a & b without materializing the intersection — counting
/// metric numerators/denominators inside an extent (hits = |extent ∩
/// predicted-positive| and so on) costs two sweeps and no scratch.
size_t AndPopcountU64(const uint64_t* a, const uint64_t* b, size_t words);

/// One paired SGD step of matrix factorization on user factors u and
/// item factors q (the BPR-style update in src/rec/mf.cc):
///   u[i] -= lr * (err * q_old + l2 * u_old)
///   q[i] -= lr * (err * u_old + l2 * q_old)
/// with both reads taken before either write. Counted
/// ("kernels/sgd_pair_updates").
void SgdPairUpdate(double* u, double* q, double lr, double err, double l2,
                   size_t n);

/// True when the AVX2 specializations are compiled in *and* the CPU
/// supports them (what the dispatched entry points above will use).
bool SimdActive();

namespace detail {
// Scalar reference implementations of the pinned order, always compiled
// regardless of XFAIR_SIMD. The golden tests compare the dispatched
// kernels against these at 0 ulp, which is exactly the XFAIR_SIMD
// ON/OFF equivalence guarantee.
double DotScalar(const double* a, const double* b, size_t n);
double SquaredDistanceScalar(const double* a, const double* b, size_t n);
double WeightedSquaredDistanceScalar(const double* a, const double* b,
                                     const double* inv_scale, size_t n);
double MaskedDotScalar(const double* w, const double* a, const double* b,
                       const uint8_t* keep, size_t n);
double MaskedSumU64Scalar(const double* v, const uint64_t* bits, size_t n);
void AxpyScalar(double alpha, const double* x, double* y, size_t n);
}  // namespace detail

}  // namespace xfair::kernels

#endif  // XFAIR_UTIL_KERNELS_H_
