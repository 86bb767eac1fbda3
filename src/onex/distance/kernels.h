#ifndef ONEX_DISTANCE_KERNELS_H_
#define ONEX_DISTANCE_KERNELS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "onex/distance/envelope.h"

namespace onex {

/// The unified distance-kernel layer (DESIGN.md §14). Every distance
/// primitive the system computes — ED, Keogh envelope construction, the
/// LB_Kim / LB_Keogh lower bounds and banded early-abandoning DTW — lives
/// behind one dispatch table so that:
///
///  * the ONEX query cascade, the UCR-style baseline, grouping and the
///    benches all run the SAME arithmetic (one implementation, one test
///    suite, no divergent private copies), and
///  * the inner loops can be swapped between a plain scalar build and a
///    vectorized build (portable `#pragma omp simd`, plus an AVX2+FMA
///    specialization selected by runtime CPU detection on x86-64) without
///    touching any call site.
///
/// Calling convention: raw pointers + lengths, squared-domain accumulators,
/// and a caller-owned workspace for the DTW row buffers. The span-based
/// convenience wrappers below (LbKim, LbKeogh, ...) route through the
/// active table and are what non-hot-path code should use.

/// Reusable scratch for the banded DTW dynamic program (two rolling rows
/// plus a vector-lane staging buffer). One workspace per thread: the kernel
/// entry points that take a workspace never allocate once the buffers have
/// grown to the largest row seen, which removes the two heap allocations
/// the previous implementation paid per DTW call. Contents carry no state
/// between calls — results are identical with a fresh workspace.
class DtwWorkspace {
 public:
  /// Rows sized for a candidate of length m (plus the band-edge sentinel).
  void EnsureRows(std::size_t m) {
    if (prev_.size() < m) {
      prev_.resize(m);
      curr_.resize(m);
      lane_.resize(2 * m);
    }
  }
  double* prev() { return prev_.data(); }
  double* curr() { return curr_.data(); }
  double* lane() { return lane_.data(); }
  void SwapRows() { prev_.swap(curr_); }

 private:
  std::vector<double> prev_;
  std::vector<double> curr_;
  std::vector<double> lane_;
};

/// The per-thread default workspace; the convenience wrappers use it so
/// every thread reuses its own buffers with zero coordination.
DtwWorkspace& ThreadLocalDtwWorkspace();

/// One interchangeable set of distance kernels. All functions are pure;
/// `cutoff_sq` parameters are in squared distance units with +infinity
/// meaning "never abandon". Abandoning kernels return +infinity exactly
/// when the true result provably exceeds the cutoff, so callers comparing
/// against the cutoff get the same decision with or without abandoning.
struct DistanceKernel {
  const char* name;

  /// sum (a_i - b_i)^2 over n points.
  double (*squared_euclidean)(const double* a, const double* b,
                              std::size_t n);

  /// Early-abandoning form: +infinity as soon as the running sum exceeds
  /// cutoff_sq, else the exact squared distance.
  double (*squared_euclidean_ea)(const double* a, const double* b,
                                 std::size_t n, double cutoff_sq);

  /// Squared LB_Keogh penalty of `cand` against the envelope [lo, up]:
  /// sum of (cand_i - up_i)^2 where cand_i > up_i plus (lo_i - cand_i)^2
  /// where cand_i < lo_i. +infinity once the partial sum exceeds cutoff_sq.
  /// Serves both directions of the bound — pass a query envelope and a
  /// candidate, or a candidate/centroid envelope and the query.
  double (*lb_keogh_sq)(const double* lo, const double* up,
                        const double* cand, std::size_t n, double cutoff_sq);

  /// Squared group-envelope bound: tightest LB_Keogh penalty any series
  /// inside [glo, gup] could incur against the query envelope [qlo, qup].
  double (*lb_keogh_group_sq)(const double* qlo, const double* qup,
                              const double* glo, const double* gup,
                              std::size_t n);

  /// Keogh envelope of x with band half-width `window` into lo/up (each n
  /// doubles). window < 0 or >= n degenerates to the global min/max.
  void (*keogh_envelope)(const double* x, std::size_t n, int window,
                         double* lo, double* up);

  /// Banded early-abandoning DTW over squared point costs. `window` must
  /// already be effective (>= |n - m|, or negative for unconstrained; see
  /// EffectiveWindow in dtw.h). Returns the squared DTW distance, or
  /// +infinity once every cell of a DP row exceeds cutoff_sq. n, m >= 1.
  /// The scalar and portable tables are bit-identical (the per-cell
  /// min/add sequence is order-fixed; only the cost staging vectorizes).
  /// The AVX2 table additionally rewrites wide rows as prefix-scan
  /// recurrences, which reassociates the in-row sums: its values can
  /// differ from the other tables in final ulps, though each table is
  /// individually deterministic.
  double (*dtw_ea_sq)(const double* a, std::size_t n, const double* b,
                      std::size_t m, double cutoff_sq, int window,
                      DtwWorkspace* ws);
};

/// Which kernel table the process uses. kSimd, the default, picks the
/// widest variant the CPU supports (AVX2+FMA where available, the portable
/// vectorized build otherwise); kScalar forces the reference table, which
/// is how the kernel sweep bench and the crosscheck tests compare variants.
enum class KernelMode { kScalar = 1, kSimd = 2 };

/// Process-wide mode switch; safe to call at any time (atomic pointer
/// swap), though mixing modes mid-query is only something tests do.
void SetKernelMode(KernelMode mode);
KernelMode GetKernelMode();

/// The plain-C++ reference table and the best vectorized table for this
/// CPU. SimdKernel() falls back to the portable vectorized table when no
/// wider ISA is available at runtime.
const DistanceKernel& ScalarKernel();
const DistanceKernel& SimdKernel();

/// The portable vectorized table, even where SimdKernel() picks a wider
/// ISA; lets a test hold a property under all three tables.
const DistanceKernel& PortableSimdKernel();

/// The table the mode currently selects; every wrapper routes through it.
const DistanceKernel& ActiveKernel();

/// True when SimdKernel() is a genuinely wider ISA than the baseline build
/// (e.g. AVX2 dispatched on x86-64).
bool SimdDispatchAvailable();

// ---------------------------------------------------------------------------
// Lower-bound convenience API (the paper's "early pruning of unpromising
// candidates", §3.3). Every bound is admissible: LB(x, y) <=
// DtwDistance(x, y) under the stated window — the test suite checks this
// exhaustively. These are the span-typed entry points the query processor,
// the UCR baseline and the tests share; they all route through
// ActiveKernel().
// ---------------------------------------------------------------------------

/// LB_Kim (endpoint form): sqrt((a_first-b_first)^2 + (a_last-b_last)^2).
/// Valid for any window and any pair of lengths, because every warping path
/// aligns the two first points and the two last points. Returns 0 on empty
/// input (vacuously admissible).
double LbKim(std::span<const double> a, std::span<const double> b);

/// Corner-range bound, squared: (a_0 - b_0)^2 + (a_{n-1} - b_{m-1})^2 plus,
/// for every interior point b_j (0 < j < m-1), its squared distance to the
/// range [a_min, a_max] of `a`. Lower-bounds the squared DTW for any window
/// and any pair of lengths: both corner cells lie on every warping path,
/// and every interior column j is matched to some point of `a` by a cell
/// other than the corners. This is LB_Keogh of b's interior against a's
/// full-band envelope, plus LB_Kim's endpoints (DESIGN.md §7.7).
double LbCornerRangeSq(std::span<const double> a, double a_min, double a_max,
                       std::span<const double> b);

/// Row-prefix bound, squared: (a_0 - b_0)^2 plus, for every later point a_i
/// (0 < i < n), its squared distance to the range [b_min, b_max] of `b`.
/// Lower-bounds every cell of the DTW dynamic program's last row (row i is
/// a_i), for any window and any pair of lengths: a path to (n-1, j) starts
/// at (0, 0) and visits each later row at least once. An early-abandoning
/// DTW (dtw_ea_sq) therefore returns +infinity whenever this bound exceeds
/// StrictCutoffSq(cutoff_sq) — the DP's last-row minimum does too.
double LbRowPrefixSq(std::span<const double> a, std::span<const double> b,
                     double b_min, double b_max);

/// LB_Keogh: given the Keogh envelope of the query computed with band
/// half-width w (see ComputeKeoghEnvelope), lower-bounds DtwDistance(query,
/// candidate, w) for equal-length inputs. Returns 0 when lengths differ
/// (trivially admissible; ONEX only applies it within one length class).
/// `cutoff` enables early abandoning: once the partial sum exceeds cutoff^2
/// the function returns +infinity. Negative cutoff never abandons.
double LbKeogh(const Envelope& envelope, std::span<const double> candidate,
               double cutoff = -1.0);

/// Same bound with a columnar envelope (an EnvelopeView into a GroupStore
/// matrix) — the reversed-Keogh form the query cascade runs against the
/// precomputed centroid envelopes.
double LbKeogh(const EnvelopeView& envelope, std::span<const double> candidate,
               double cutoff = -1.0);

/// Group-envelope bound: lower-bounds DtwDistance(query, member, w) for
/// EVERY member of a similarity group, given the group's pointwise min/max
/// envelope. Equal lengths required (else 0). One evaluation prunes a whole
/// group (DESIGN.md §7.3).
double LbKeoghGroup(const Envelope& query_envelope,
                    const Envelope& group_envelope);

/// Same bound over a columnar group envelope; the hot-path form the query
/// processor uses so group pruning never materializes Envelope objects.
double LbKeoghGroup(const Envelope& query_envelope,
                    const EnvelopeView& group_envelope);

/// The strict-with-slack pruning rule: the squared threshold a filter must
/// exceed before it may drop a candidate compared against `cutoff_sq`. The
/// relative 1e-9 and absolute 1e-12 slack sit far above the rounding gaps
/// between a bound, an abandoning kernel and the exact distance (the AVX2
/// DTW scan included), so every drop proves the candidate strictly worse
/// than the cutoff: candidates tied with it always reach the exact
/// comparison and its canonical tie-break (DESIGN.md §7.6).
inline double StrictCutoffSq(double cutoff_sq) {
  return cutoff_sq * (1.0 + 1e-9) + 1e-12;
}

}  // namespace onex

#endif  // ONEX_DISTANCE_KERNELS_H_
