#include "onex/distance/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

namespace onex {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ONEX_KERNEL_X86 1
#else
#define ONEX_KERNEL_X86 0
#endif

#if defined(__GNUC__) || defined(__clang__)
#define ONEX_KERNEL_INLINE inline __attribute__((always_inline))
#else
#define ONEX_KERNEL_INLINE inline
#endif

/// Column range [lo, hi] admissible for row i under the (already effective)
/// band half-width `w`: |i - j| <= w. With w >= |n - m| the band is
/// row-to-row connected and contains both corners.
ONEX_KERNEL_INLINE void BandRange(std::size_t i, std::size_t m, int w,
                                  std::size_t* lo, std::size_t* hi) {
  if (w < 0) {
    *lo = 0;
    *hi = m - 1;
    return;
  }
  const long long lo_ll = static_cast<long long>(i) - w;
  const long long hi_ll = static_cast<long long>(i) + w;
  *lo = lo_ll < 0 ? 0 : static_cast<std::size_t>(lo_ll);
  *hi = hi_ll >= static_cast<long long>(m) ? m - 1
                                           : static_cast<std::size_t>(hi_ll);
}

// ---------------------------------------------------------------------------
// Shared loop bodies. The vectorized bodies carry `#pragma omp simd`
// annotations and are force-inlined into both the portable-SIMD entry
// points (baseline ISA) and, on x86-64, the AVX2+FMA multiversioned entry
// points, so one source expression compiles to every dispatch tier.
// Reduction association differs from the scalar bodies, so ED/LB values
// may differ from the scalar table in final ulps; the DTW body keeps a
// fixed per-cell operation order, so DTW is bit-identical across tiers.
// ---------------------------------------------------------------------------

ONEX_KERNEL_INLINE double SqEdScalarBody(const double* a, const double* b,
                                         std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

ONEX_KERNEL_INLINE double SqEdVecBody(const double* a, const double* b,
                                      std::size_t n) {
  double acc = 0.0;
#pragma omp simd reduction(+ : acc)
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

ONEX_KERNEL_INLINE double SqEdEaScalarBody(const double* a, const double* b,
                                           std::size_t n, double cutoff_sq) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
    if (acc > cutoff_sq) return kInf;
  }
  return acc;
}

/// Blocked early abandon: vector-accumulate a block, test between blocks.
/// Because the partial sums are monotone non-decreasing, the abandon/finish
/// decision is identical to the per-point test — only detection latency
/// (and reduction association) differs.
ONEX_KERNEL_INLINE double SqEdEaVecBody(const double* a, const double* b,
                                        std::size_t n, double cutoff_sq) {
  constexpr std::size_t kBlock = 64;
  double acc = 0.0;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t end = std::min(n, i + kBlock);
    double blk = 0.0;
#pragma omp simd reduction(+ : blk)
    for (std::size_t j = i; j < end; ++j) {
      const double d = a[j] - b[j];
      blk += d * d;
    }
    acc += blk;
    if (acc > cutoff_sq) return kInf;
    i = end;
  }
  return acc;
}

/// Branchless Keogh penalty for one point: at most one of the two clamped
/// terms is nonzero, so the sum equals the branchy formulation exactly.
ONEX_KERNEL_INLINE double KeoghPointSq(double lo, double up, double c) {
  const double over = std::max(c - up, 0.0);
  const double under = std::max(lo - c, 0.0);
  return over * over + under * under;
}

ONEX_KERNEL_INLINE double LbKeoghSqScalarBody(const double* lo,
                                              const double* up,
                                              const double* cand,
                                              std::size_t n,
                                              double cutoff_sq) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += KeoghPointSq(lo[i], up[i], cand[i]);
    if (acc > cutoff_sq) return kInf;
  }
  return acc;
}

ONEX_KERNEL_INLINE double LbKeoghSqVecBody(const double* lo, const double* up,
                                           const double* cand, std::size_t n,
                                           double cutoff_sq) {
  constexpr std::size_t kBlock = 64;
  double acc = 0.0;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t end = std::min(n, i + kBlock);
    double blk = 0.0;
#pragma omp simd reduction(+ : blk)
    for (std::size_t j = i; j < end; ++j) {
      blk += KeoghPointSq(lo[j], up[j], cand[j]);
    }
    acc += blk;
    if (acc > cutoff_sq) return kInf;
    i = end;
  }
  return acc;
}

ONEX_KERNEL_INLINE double LbKeoghGroupSqScalarBody(const double* qlo,
                                                   const double* qup,
                                                   const double* glo,
                                                   const double* gup,
                                                   std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // Tightest penalty any member could incur: members live inside
    // [glo, gup] pointwise. At most one clamped term is nonzero.
    const double over = std::max(glo[i] - qup[i], 0.0);
    const double under = std::max(qlo[i] - gup[i], 0.0);
    acc += over * over + under * under;
  }
  return acc;
}

ONEX_KERNEL_INLINE double LbKeoghGroupSqVecBody(const double* qlo,
                                                const double* qup,
                                                const double* glo,
                                                const double* gup,
                                                std::size_t n) {
  double acc = 0.0;
#pragma omp simd reduction(+ : acc)
  for (std::size_t i = 0; i < n; ++i) {
    const double over = std::max(glo[i] - qup[i], 0.0);
    const double under = std::max(qlo[i] - gup[i], 0.0);
    acc += over * over + under * under;
  }
  return acc;
}

/// Sliding-window min/max via monotonic index rings (O(n)); shared by every
/// tier — the loop is branch-dominated, so vectorizing buys nothing.
void EnvelopeSlidingBody(const double* x, std::size_t n, std::size_t w,
                         double* lo, double* up) {
  // Ring buffers of candidate indices: max ring values non-increasing, min
  // ring non-decreasing. Window for position i is [i-w, i+w].
  std::vector<std::size_t> max_ring(n), min_ring(n);
  std::size_t max_head = 0, max_tail = 0;  // [head, tail)
  std::size_t min_head = 0, min_tail = 0;
  std::size_t right = 0;  // next index to push
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t hi = std::min(i + w, n - 1);
    for (; right <= hi; ++right) {
      while (max_tail > max_head && x[max_ring[max_tail - 1]] <= x[right]) {
        --max_tail;
      }
      max_ring[max_tail++] = right;
      while (min_tail > min_head && x[min_ring[min_tail - 1]] >= x[right]) {
        --min_tail;
      }
      min_ring[min_tail++] = right;
    }
    const std::size_t win_lo = i >= w ? i - w : 0;
    while (max_ring[max_head] < win_lo) ++max_head;
    while (min_ring[min_head] < win_lo) ++min_head;
    up[i] = x[max_ring[max_head]];
    lo[i] = x[min_ring[min_head]];
  }
}

ONEX_KERNEL_INLINE void EnvelopeScalarBody(const double* x, std::size_t n,
                                           int window, double* lo,
                                           double* up) {
  if (window < 0 || static_cast<std::size_t>(window) >= n) {
    double mn = x[0], mx = x[0];
    for (std::size_t i = 1; i < n; ++i) {
      mn = std::min(mn, x[i]);
      mx = std::max(mx, x[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      lo[i] = mn;
      up[i] = mx;
    }
    return;
  }
  EnvelopeSlidingBody(x, n, static_cast<std::size_t>(window), lo, up);
}

ONEX_KERNEL_INLINE void EnvelopeVecBody(const double* x, std::size_t n,
                                        int window, double* lo, double* up) {
  if (window < 0 || static_cast<std::size_t>(window) >= n) {
    double mn = x[0], mx = x[0];
#pragma omp simd reduction(min : mn) reduction(max : mx)
    for (std::size_t i = 1; i < n; ++i) {
      mn = std::min(mn, x[i]);
      mx = std::max(mx, x[i]);
    }
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
      lo[i] = mn;
      up[i] = mx;
    }
    return;
  }
  EnvelopeSlidingBody(x, n, static_cast<std::size_t>(window), lo, up);
}

// ---------------------------------------------------------------------------
// Banded early-abandoning DTW. Two-row rolling DP over squared costs with
// reusable workspace rows. Only the band cells of each row are written;
// the one cell left and right of the band is set to +inf so the next row's
// reads (which reach one past the previous band) never see stale data —
// the invariant that makes workspace reuse outcome-neutral.
// ---------------------------------------------------------------------------

ONEX_KERNEL_INLINE double DtwScalarBody(const double* a, std::size_t n,
                                        const double* b, std::size_t m,
                                        double cutoff_sq, int w,
                                        DtwWorkspace* ws) {
  ws->EnsureRows(m);
  double* prev = ws->prev();
  double* curr = ws->curr();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t lo, hi;
    BandRange(i, m, w, &lo, &hi);
    if (lo > 0) curr[lo - 1] = kInf;
    double row_min = kInf;
    for (std::size_t j = lo; j <= hi; ++j) {
      const double d = a[i] - b[j];
      const double cost = d * d;
      double best;
      if (i == 0 && j == 0) {
        best = 0.0;
      } else {
        best = kInf;
        if (i > 0) best = std::min(best, prev[j]);            // insertion
        if (j > 0) best = std::min(best, curr[j - 1]);        // deletion
        if (i > 0 && j > 0) best = std::min(best, prev[j - 1]);  // match
      }
      curr[j] = best + cost;
      row_min = std::min(row_min, curr[j]);
    }
    if (hi + 1 < m) curr[hi + 1] = kInf;
    if (row_min > cutoff_sq) return kInf;  // every extension only grows
    std::swap(prev, curr);
  }
  return prev[m - 1];
}

/// Vector-staged variant: the per-cell cost and the prev-row min (the two
/// inputs with no loop-carried dependency) are computed with SIMD into the
/// lane buffer; the sequential combine with curr[j-1] keeps the exact
/// per-cell min/add order of the scalar body, so results are bit-identical.
ONEX_KERNEL_INLINE double DtwVecBody(const double* a, std::size_t n,
                                     const double* b, std::size_t m,
                                     double cutoff_sq, int w,
                                     DtwWorkspace* ws) {
  ws->EnsureRows(m);
  double* prev = ws->prev();
  double* curr = ws->curr();
  double* cost = ws->lane();
  double* pmin = ws->lane() + m;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t lo, hi;
    BandRange(i, m, w, &lo, &hi);
    if (lo > 0) curr[lo - 1] = kInf;
    double row_min = kInf;
    if (i == 0) {
      // First row: only the deletion predecessor exists; stay scalar.
      curr[0] = (a[0] - b[0]) * (a[0] - b[0]);
      row_min = curr[0];
      for (std::size_t j = 1; j <= hi; ++j) {
        const double d = a[0] - b[j];
        curr[j] = curr[j - 1] + d * d;
        row_min = std::min(row_min, curr[j]);
      }
    } else {
      const double ai = a[i];
      std::size_t j0 = lo;
      if (lo == 0) {
        const double d = ai - b[0];
        cost[0] = d * d;
        pmin[0] = prev[0];
        j0 = 1;
      }
#pragma omp simd
      for (std::size_t j = j0; j <= hi; ++j) {
        const double d = ai - b[j];
        cost[j] = d * d;
        pmin[j] = std::min(prev[j], prev[j - 1]);
      }
      for (std::size_t j = lo; j <= hi; ++j) {
        double best = pmin[j];
        if (j > 0) best = std::min(best, curr[j - 1]);
        curr[j] = best + cost[j];
        row_min = std::min(row_min, curr[j]);
      }
    }
    if (hi + 1 < m) curr[hi + 1] = kInf;
    if (row_min > cutoff_sq) return kInf;
    std::swap(prev, curr);
  }
  return prev[m - 1];
}

// ---------------------------------------------------------------------------
// Dispatch tiers. The scalar tier is the plain-C++ reference; the simd
// tier compiles the annotated bodies at the baseline ISA; the avx2 tier
// (x86-64 only) recompiles the same bodies under target("avx2,fma") and is
// selected at runtime when the CPU supports it.
// ---------------------------------------------------------------------------

double SqEdScalar(const double* a, const double* b, std::size_t n) {
  return SqEdScalarBody(a, b, n);
}
double SqEdEaScalar(const double* a, const double* b, std::size_t n,
                    double cutoff_sq) {
  return SqEdEaScalarBody(a, b, n, cutoff_sq);
}
double LbKeoghSqScalar(const double* lo, const double* up, const double* cand,
                       std::size_t n, double cutoff_sq) {
  return LbKeoghSqScalarBody(lo, up, cand, n, cutoff_sq);
}
double LbKeoghGroupSqScalar(const double* qlo, const double* qup,
                            const double* glo, const double* gup,
                            std::size_t n) {
  return LbKeoghGroupSqScalarBody(qlo, qup, glo, gup, n);
}
void EnvelopeScalar(const double* x, std::size_t n, int window, double* lo,
                    double* up) {
  EnvelopeScalarBody(x, n, window, lo, up);
}
double DtwScalar(const double* a, std::size_t n, const double* b,
                 std::size_t m, double cutoff_sq, int w, DtwWorkspace* ws) {
  return DtwScalarBody(a, n, b, m, cutoff_sq, w, ws);
}

double SqEdSimd(const double* a, const double* b, std::size_t n) {
  return SqEdVecBody(a, b, n);
}
double SqEdEaSimd(const double* a, const double* b, std::size_t n,
                  double cutoff_sq) {
  return SqEdEaVecBody(a, b, n, cutoff_sq);
}
double LbKeoghSqSimd(const double* lo, const double* up, const double* cand,
                     std::size_t n, double cutoff_sq) {
  return LbKeoghSqVecBody(lo, up, cand, n, cutoff_sq);
}
double LbKeoghGroupSqSimd(const double* qlo, const double* qup,
                          const double* glo, const double* gup,
                          std::size_t n) {
  return LbKeoghGroupSqVecBody(qlo, qup, glo, gup, n);
}
void EnvelopeSimd(const double* x, std::size_t n, int window, double* lo,
                  double* up) {
  EnvelopeVecBody(x, n, window, lo, up);
}
double DtwSimd(const double* a, std::size_t n, const double* b, std::size_t m,
               double cutoff_sq, int w, DtwWorkspace* ws) {
  return DtwVecBody(a, n, b, m, cutoff_sq, w, ws);
}

#if ONEX_KERNEL_X86
#define ONEX_AVX2 __attribute__((target("avx2,fma")))

/// In-register inclusive prefix sum of 4 doubles (log-step shifts).
ONEX_AVX2 ONEX_KERNEL_INLINE __m256d ScanAdd4(__m256d x) {
  __m256d t = _mm256_permute4x64_pd(x, _MM_SHUFFLE(2, 1, 0, 3));
  t = _mm256_blend_pd(t, _mm256_setzero_pd(), 0x1);  // [0, x0, x1, x2]
  x = _mm256_add_pd(x, t);
  t = _mm256_permute2f128_pd(x, x, 0x08);  // [0, 0, y0, y1]
  return _mm256_add_pd(x, t);
}

/// In-register inclusive prefix min of 4 doubles (identity = +inf).
ONEX_AVX2 ONEX_KERNEL_INLINE __m256d ScanMin4(__m256d x, __m256d vinf) {
  __m256d t = _mm256_permute4x64_pd(x, _MM_SHUFFLE(2, 1, 0, 3));
  t = _mm256_blend_pd(t, vinf, 0x1);  // [inf, x0, x1, x2]
  x = _mm256_min_pd(x, t);
  t = _mm256_permute2f128_pd(x, vinf, 0x02);  // [inf, inf, y0, y1]
  return _mm256_min_pd(x, t);
}

/// Banded early-abandoning DTW with prefix-scan rows. The row recurrence
/// curr[j] = min(pmin[j], curr[j-1]) + cost[j] (pmin[j] = min of the two
/// prev-row predecessors) telescopes to
///
///   curr[j] = s[j] + min_{k in [lo, j]} (pmin[k] - s[k-1])
///
/// with s the in-row inclusive prefix sum of cost (s[lo-1] = 0): both the
/// prefix sum and the prefix min vectorize with log-step shuffles plus a
/// once-per-vector carry, replacing the ~8-cycle loop-carried min+add chain
/// with a ~1-cycle-per-cell carry chain. The reassociated sums round
/// differently from the scalar recurrence, so this body's results may
/// differ from the scalar/portable tables in final ulps (every value is
/// still an exact-recurrence evaluation up to rounding; the integer-valued
/// fixtures in the tests stay exact).
ONEX_AVX2 double DtwScanBodyAvx2(const double* a, std::size_t n,
                                 const double* b, std::size_t m,
                                 double cutoff_sq, int w, DtwWorkspace* ws) {
  ws->EnsureRows(m);
  double* prev = ws->prev();
  double* curr = ws->curr();
  const __m256d vinf = _mm256_set1_pd(kInf);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t lo, hi;
    BandRange(i, m, w, &lo, &hi);
    if (lo > 0) curr[lo - 1] = kInf;
    double row_min = kInf;
    if (i == 0) {
      curr[0] = (a[0] - b[0]) * (a[0] - b[0]);
      row_min = curr[0];
      for (std::size_t j = 1; j <= hi; ++j) {
        const double d = a[0] - b[j];
        curr[j] = curr[j - 1] + d * d;
        row_min = std::min(row_min, curr[j]);
      }
    } else {
      const double ai = a[i];
      const __m256d vai = _mm256_set1_pd(ai);
      double carry_sum = 0.0;  // s[j-1]: exclusive in-row cost prefix sum
      double carry_min = kInf;  // min of v[k] = pmin[k] - s[k-1] so far
      std::size_t j = lo;
      if (lo == 0) {
        // prev[-1] doesn't exist; peel the first cell.
        const double d = ai - b[0];
        carry_sum = d * d;
        carry_min = prev[0];
        curr[0] = carry_sum + carry_min;
        row_min = curr[0];
        j = 1;
      }
      __m256d vcarry_sum = _mm256_set1_pd(carry_sum);
      __m256d vcarry_min = _mm256_set1_pd(carry_min);
      __m256d vrow_min = vinf;
      for (; j + 4 <= hi + 1; j += 4) {
        const __m256d bb = _mm256_loadu_pd(b + j);
        const __m256d d = _mm256_sub_pd(vai, bb);
        const __m256d cost = _mm256_mul_pd(d, d);
        const __m256d s = _mm256_add_pd(ScanAdd4(cost), vcarry_sum);
        // Exclusive sums: shift s right one lane, carry into lane 0.
        __m256d e = _mm256_permute4x64_pd(s, _MM_SHUFFLE(2, 1, 0, 3));
        e = _mm256_blend_pd(e, vcarry_sum, 0x1);
        const __m256d pmin = _mm256_min_pd(_mm256_loadu_pd(prev + j),
                                           _mm256_loadu_pd(prev + j - 1));
        const __m256d v = _mm256_sub_pd(pmin, e);
        const __m256d rmin = _mm256_min_pd(ScanMin4(v, vinf), vcarry_min);
        // s + rmin cancels (rmin holds -s[k-1] terms); rounding can push a
        // true-zero cell a few ulps negative, which a later sqrt would turn
        // into NaN. DP cells are sums of squared costs, so clamping at zero
        // only ever reduces the rounding error.
        const __m256d out =
            _mm256_max_pd(_mm256_add_pd(s, rmin), _mm256_setzero_pd());
        _mm256_storeu_pd(curr + j, out);
        vrow_min = _mm256_min_pd(vrow_min, out);
        vcarry_sum = _mm256_permute4x64_pd(s, _MM_SHUFFLE(3, 3, 3, 3));
        vcarry_min = _mm256_permute4x64_pd(rmin, _MM_SHUFFLE(3, 3, 3, 3));
      }
      carry_sum = _mm256_cvtsd_f64(vcarry_sum);
      carry_min = _mm256_cvtsd_f64(vcarry_min);
      {  // horizontal min of the vector row minimum
        const __m128d hi128 = _mm256_extractf128_pd(vrow_min, 1);
        __m128d m128 = _mm_min_pd(_mm256_castpd256_pd128(vrow_min), hi128);
        m128 = _mm_min_sd(m128, _mm_unpackhi_pd(m128, m128));
        row_min = std::min(row_min, _mm_cvtsd_f64(m128));
      }
      for (; j <= hi; ++j) {  // band tail, same algebra in scalar form
        const double d = ai - b[j];
        const double e = carry_sum;
        carry_sum = e + d * d;
        const double pm = std::min(prev[j], prev[j - 1]);
        carry_min = std::min(carry_min, pm - e);
        curr[j] = std::max(carry_sum + carry_min, 0.0);
        row_min = std::min(row_min, curr[j]);
      }
    }
    if (hi + 1 < m) curr[hi + 1] = kInf;
    if (row_min > cutoff_sq) return kInf;
    std::swap(prev, curr);
  }
  return prev[m - 1];
}
ONEX_AVX2 double SqEdAvx2(const double* a, const double* b, std::size_t n) {
  return SqEdVecBody(a, b, n);
}
ONEX_AVX2 double SqEdEaAvx2(const double* a, const double* b, std::size_t n,
                            double cutoff_sq) {
  return SqEdEaVecBody(a, b, n, cutoff_sq);
}
ONEX_AVX2 double LbKeoghSqAvx2(const double* lo, const double* up,
                               const double* cand, std::size_t n,
                               double cutoff_sq) {
  return LbKeoghSqVecBody(lo, up, cand, n, cutoff_sq);
}
ONEX_AVX2 double LbKeoghGroupSqAvx2(const double* qlo, const double* qup,
                                    const double* glo, const double* gup,
                                    std::size_t n) {
  return LbKeoghGroupSqVecBody(qlo, qup, glo, gup, n);
}
ONEX_AVX2 void EnvelopeAvx2(const double* x, std::size_t n, int window,
                            double* lo, double* up) {
  EnvelopeVecBody(x, n, window, lo, up);
}
ONEX_AVX2 double DtwAvx2(const double* a, std::size_t n, const double* b,
                         std::size_t m, double cutoff_sq, int w,
                         DtwWorkspace* ws) {
  // Short rows don't amortize the scan shuffles; the staged body wins
  // there. The choice depends only on m, so results stay deterministic
  // for any given input pair.
  if (m >= 16) return DtwScanBodyAvx2(a, n, b, m, cutoff_sq, w, ws);
  return DtwVecBody(a, n, b, m, cutoff_sq, w, ws);
}
#undef ONEX_AVX2
#endif  // ONEX_KERNEL_X86

constexpr DistanceKernel kScalarTable = {
    "scalar",         &SqEdScalar,     &SqEdEaScalar, &LbKeoghSqScalar,
    &LbKeoghGroupSqScalar, &EnvelopeScalar, &DtwScalar};

constexpr DistanceKernel kSimdTable = {
    "simd",         &SqEdSimd,     &SqEdEaSimd, &LbKeoghSqSimd,
    &LbKeoghGroupSqSimd, &EnvelopeSimd, &DtwSimd};

#if ONEX_KERNEL_X86
constexpr DistanceKernel kAvx2Table = {
    "avx2",         &SqEdAvx2,     &SqEdEaAvx2, &LbKeoghSqAvx2,
    &LbKeoghGroupSqAvx2, &EnvelopeAvx2, &DtwAvx2};
#endif

bool CpuHasAvx2() {
#if ONEX_KERNEL_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const DistanceKernel& BestSimdTable() {
#if ONEX_KERNEL_X86
  if (CpuHasAvx2()) return kAvx2Table;
#endif
  return kSimdTable;
}

const DistanceKernel* ResolveTable(KernelMode mode) {
  return mode == KernelMode::kScalar ? &kScalarTable : &BestSimdTable();
}

std::atomic<int> g_mode{static_cast<int>(KernelMode::kSimd)};
std::atomic<const DistanceKernel*> g_active{nullptr};

}  // namespace

DtwWorkspace& ThreadLocalDtwWorkspace() {
  thread_local DtwWorkspace ws;
  return ws;
}

void SetKernelMode(KernelMode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
  g_active.store(ResolveTable(mode), std::memory_order_release);
}

KernelMode GetKernelMode() {
  return static_cast<KernelMode>(g_mode.load(std::memory_order_relaxed));
}

const DistanceKernel& ScalarKernel() { return kScalarTable; }

const DistanceKernel& SimdKernel() { return BestSimdTable(); }

const DistanceKernel& PortableSimdKernel() { return kSimdTable; }

const DistanceKernel& ActiveKernel() {
  const DistanceKernel* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // First use: resolve from the mode. Racing threads compute the same
    // pointer, so the double store is benign.
    k = ResolveTable(GetKernelMode());
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

bool SimdDispatchAvailable() { return CpuHasAvx2(); }

// ---------------------------------------------------------------------------
// Span-typed lower-bound API.
// ---------------------------------------------------------------------------

double LbKim(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) return 0.0;
  const double df = a.front() - b.front();
  const double dl = a.back() - b.back();
  return std::sqrt(df * df + dl * dl);
}

namespace {

/// Distance from x to the closed range [lo, hi] (0 inside it).
double RangeGap(double x, double lo, double hi) {
  return x > hi ? x - hi : x < lo ? lo - x : 0.0;
}

double LbKeoghImpl(std::span<const double> lo, std::span<const double> up,
                   std::span<const double> cand, double cutoff) {
  const std::size_t n = cand.size();
  if (lo.size() != n || n == 0) return 0.0;
  const double cutoff_sq = cutoff < 0.0 ? kInf : cutoff * cutoff;
  const double acc = ActiveKernel().lb_keogh_sq(lo.data(), up.data(),
                                                cand.data(), n, cutoff_sq);
  return std::isinf(acc) ? kInf : std::sqrt(acc);
}

double LbKeoghGroupImpl(const Envelope& query_envelope,
                        std::span<const double> group_lower,
                        std::span<const double> group_upper) {
  const std::size_t n = group_lower.size();
  if (query_envelope.size() != n || n == 0) return 0.0;
  return std::sqrt(ActiveKernel().lb_keogh_group_sq(
      query_envelope.lower.data(), query_envelope.upper.data(),
      group_lower.data(), group_upper.data(), n));
}

}  // namespace

double LbKeogh(const Envelope& envelope, std::span<const double> candidate,
               double cutoff) {
  return LbKeoghImpl(envelope.lower, envelope.upper, candidate, cutoff);
}

double LbKeogh(const EnvelopeView& envelope, std::span<const double> candidate,
               double cutoff) {
  return LbKeoghImpl(envelope.lower, envelope.upper, candidate, cutoff);
}

double LbKeoghGroup(const Envelope& query_envelope,
                    const Envelope& group_envelope) {
  return LbKeoghGroupImpl(query_envelope, group_envelope.lower,
                          group_envelope.upper);
}

double LbKeoghGroup(const Envelope& query_envelope,
                    const EnvelopeView& group_envelope) {
  return LbKeoghGroupImpl(query_envelope, group_envelope.lower,
                          group_envelope.upper);
}

double LbCornerRangeSq(std::span<const double> a, double a_min, double a_max,
                       std::span<const double> b) {
  if (a.empty() || b.empty()) return 0.0;
  const double df = a.front() - b.front();
  if (a.size() == 1 && b.size() == 1) return df * df;  // one cell, one corner
  const double dl = a.back() - b.back();
  double acc = df * df + dl * dl;
  for (std::size_t j = 1; j + 1 < b.size(); ++j) {
    const double g = RangeGap(b[j], a_min, a_max);
    acc += g * g;
  }
  return acc;
}

double LbRowPrefixSq(std::span<const double> a, std::span<const double> b,
                     double b_min, double b_max) {
  if (a.empty() || b.empty()) return 0.0;
  const double df = a.front() - b.front();
  double acc = df * df;
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double g = RangeGap(a[i], b_min, b_max);
    acc += g * g;
  }
  return acc;
}

}  // namespace onex
