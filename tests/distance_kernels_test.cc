/// Unit tests for the unified distance-kernel layer (DESIGN.md §14): every
/// table (scalar reference and the best vectorized table for this CPU) must
/// compute the same mathematics — exact agreement with naive references for
/// the scalar table, tight-tolerance agreement across tables (the AVX2 DTW
/// prefix-scan and blocked reductions may reassociate sums) — and the
/// dispatch plumbing (mode switch, env override, workspace reuse) must never
/// change results.
#include "onex/distance/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/distance/dtw.h"

namespace onex {
namespace {

constexpr double kInfTest = std::numeric_limits<double>::infinity();

std::vector<double> RandomVec(Rng* rng, std::size_t n, double scale = 1.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Gaussian(0.0, scale);
  return v;
}

/// Naive banded DTW over squared costs — the reference every table must
/// match (exactly for the order-fixed tables, to tolerance for AVX2).
double NaiveDtwSq(const std::vector<double>& a, const std::vector<double>& b,
                  int window) {
  const std::size_t n = a.size(), m = b.size();
  std::vector<std::vector<double>> d(n + 1,
                                     std::vector<double>(m + 1, kInfTest));
  d[0][0] = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      if (window >= 0) {
        const long long diff = static_cast<long long>(i) -
                               static_cast<long long>(j);
        if (diff > window || -diff > window) continue;
      }
      const double c = (a[i - 1] - b[j - 1]) * (a[i - 1] - b[j - 1]);
      d[i][j] = c + std::min({d[i - 1][j - 1], d[i - 1][j], d[i][j - 1]});
    }
  }
  return d[n][m];
}

/// Naive sliding min/max envelope.
void NaiveEnvelope(const std::vector<double>& x, int window,
                   std::vector<double>* lo, std::vector<double>* up) {
  const std::size_t n = x.size();
  lo->assign(n, 0.0);
  up->assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t first = 0, last = n - 1;
    if (window >= 0 && static_cast<std::size_t>(window) < n) {
      first = i >= static_cast<std::size_t>(window)
                  ? i - static_cast<std::size_t>(window)
                  : 0;
      last = std::min(n - 1, i + static_cast<std::size_t>(window));
    }
    double mn = x[first], mx = x[first];
    for (std::size_t j = first; j <= last; ++j) {
      mn = std::min(mn, x[j]);
      mx = std::max(mx, x[j]);
    }
    (*lo)[i] = mn;
    (*up)[i] = mx;
  }
}

class KernelTableTest : public ::testing::TestWithParam<const DistanceKernel*> {
 protected:
  const DistanceKernel& kernel() const { return *GetParam(); }
};

TEST_P(KernelTableTest, SquaredEuclideanMatchesNaive) {
  Rng rng(101);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 63u, 64u, 65u, 257u}) {
    const std::vector<double> a = RandomVec(&rng, n);
    const std::vector<double> b = RandomVec(&rng, n);
    double want = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      want += (a[i] - b[i]) * (a[i] - b[i]);
    }
    const double got = kernel().squared_euclidean(a.data(), b.data(), n);
    EXPECT_NEAR(got, want, 1e-9 * (1.0 + want)) << kernel().name << " n=" << n;
  }
}

TEST_P(KernelTableTest, SquaredEuclideanEarlyAbandonAgrees) {
  Rng rng(202);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.UniformIndex(130);
    const std::vector<double> a = RandomVec(&rng, n);
    const std::vector<double> b = RandomVec(&rng, n);
    // The EA form may use a different (blocked) reduction order than the
    // plain form, so the two agree to tolerance; the EA form against
    // different non-abandoning cutoffs runs identical arithmetic and must
    // agree with itself bitwise.
    const double plain = kernel().squared_euclidean(a.data(), b.data(), n);
    const double exact =
        kernel().squared_euclidean_ea(a.data(), b.data(), n, kInfTest);
    EXPECT_NEAR(plain, exact, 1e-9 * (1.0 + plain)) << kernel().name;
    const double kept = kernel().squared_euclidean_ea(a.data(), b.data(), n,
                                                      exact * 1.01 + 1.0);
    EXPECT_EQ(kept, exact) << kernel().name;
    // Cutoff below: must report +inf (provably above the cutoff).
    if (exact > 0.0) {
      const double dropped =
          kernel().squared_euclidean_ea(a.data(), b.data(), n, exact * 0.5);
      EXPECT_TRUE(std::isinf(dropped)) << kernel().name;
    }
  }
}

TEST_P(KernelTableTest, KeoghEnvelopeMatchesNaive) {
  Rng rng(303);
  for (const std::size_t n : {1u, 2u, 5u, 17u, 64u, 100u}) {
    const std::vector<double> x = RandomVec(&rng, n);
    for (const int w : {-1, 0, 1, 3, static_cast<int>(n),
                        static_cast<int>(n) + 5}) {
      std::vector<double> lo(n), up(n), nlo, nup;
      kernel().keogh_envelope(x.data(), n, w, lo.data(), up.data());
      NaiveEnvelope(x, w, &nlo, &nup);
      for (std::size_t i = 0; i < n; ++i) {
        // Envelopes are pure min/max — exact under every table.
        EXPECT_EQ(lo[i], nlo[i]) << kernel().name << " n=" << n << " w=" << w;
        EXPECT_EQ(up[i], nup[i]) << kernel().name << " n=" << n << " w=" << w;
      }
    }
  }
}

TEST_P(KernelTableTest, LbKeoghSqMatchesNaivePenalty) {
  Rng rng(404);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.UniformIndex(90);
    const std::vector<double> q = RandomVec(&rng, n);
    const std::vector<double> c = RandomVec(&rng, n);
    std::vector<double> lo(n), up(n);
    kernel().keogh_envelope(q.data(), n, 2, lo.data(), up.data());
    double want = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (c[i] > up[i]) {
        want += (c[i] - up[i]) * (c[i] - up[i]);
      } else if (c[i] < lo[i]) {
        want += (lo[i] - c[i]) * (lo[i] - c[i]);
      }
    }
    const double got =
        kernel().lb_keogh_sq(lo.data(), up.data(), c.data(), n, kInfTest);
    EXPECT_NEAR(got, want, 1e-9 * (1.0 + want)) << kernel().name;
    if (want > 0.0) {
      EXPECT_TRUE(std::isinf(
          kernel().lb_keogh_sq(lo.data(), up.data(), c.data(), n, want * 0.5)))
          << kernel().name;
    }
  }
}

TEST_P(KernelTableTest, LbKeoghGroupSqMatchesClampedForm) {
  Rng rng(505);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.UniformIndex(70);
    std::vector<double> qlo(n), qup(n), glo(n), gup(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double a = rng.Gaussian(0.0, 1.0), b = rng.Gaussian(0.0, 1.0);
      qlo[i] = std::min(a, b);
      qup[i] = std::max(a, b);
      const double c = rng.Gaussian(0.5, 1.0), d = rng.Gaussian(0.5, 1.0);
      glo[i] = std::min(c, d);
      gup[i] = std::max(c, d);
    }
    double want = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double over = std::max(glo[i] - qup[i], 0.0);
      const double under = std::max(qlo[i] - gup[i], 0.0);
      want += over * over + under * under;
    }
    const double got = kernel().lb_keogh_group_sq(qlo.data(), qup.data(),
                                                  glo.data(), gup.data(), n);
    EXPECT_NEAR(got, want, 1e-9 * (1.0 + want)) << kernel().name;
    // Overlapping envelopes (group inside query) incur zero penalty.
    const double zero = kernel().lb_keogh_group_sq(qlo.data(), qup.data(),
                                                   qlo.data(), qup.data(), n);
    EXPECT_EQ(zero, 0.0) << kernel().name;
  }
}

TEST_P(KernelTableTest, DtwMatchesNaiveReference) {
  Rng rng(606);
  DtwWorkspace ws;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.UniformIndex(40);
    const std::size_t m = 1 + rng.UniformIndex(40);
    const std::vector<double> a = RandomVec(&rng, n);
    const std::vector<double> b = RandomVec(&rng, m);
    for (int w : {-1, 0, 2, 8}) {
      const int eff = EffectiveWindow(n, m, w);
      if (w >= 0 && eff != w) continue;  // window below |n-m| not admissible
      const double want = NaiveDtwSq(a, b, eff);
      const double got = kernel().dtw_ea_sq(a.data(), n, b.data(), m,
                                            kInfTest, eff, &ws);
      EXPECT_NEAR(got, want, 1e-9 * (1.0 + want))
          << kernel().name << " n=" << n << " m=" << m << " w=" << w;
    }
  }
}

TEST_P(KernelTableTest, DtwEarlyAbandonDecisionIsExact) {
  Rng rng(707);
  DtwWorkspace ws;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 2 + rng.UniformIndex(48);
    const std::size_t m = 2 + rng.UniformIndex(48);
    const std::vector<double> a = RandomVec(&rng, n);
    const std::vector<double> b = RandomVec(&rng, m);
    const int w = EffectiveWindow(n, m, trial % 3 == 0 ? -1 : 5);
    const double exact =
        kernel().dtw_ea_sq(a.data(), n, b.data(), m, kInfTest, w, &ws);
    // A cutoff above the true value must never abandon; the returned value
    // must be the exact result (identical arithmetic, same table).
    const double kept = kernel().dtw_ea_sq(a.data(), n, b.data(), m,
                                           exact * 1.001 + 1e-6, w, &ws);
    EXPECT_EQ(kept, exact) << kernel().name;
    // A cutoff below the true value: either the exact value (> cutoff, so
    // the caller prunes anyway) or +inf. Both yield the same decision.
    const double cut = exact * 0.25;
    const double maybe =
        kernel().dtw_ea_sq(a.data(), n, b.data(), m, cut, w, &ws);
    EXPECT_TRUE(std::isinf(maybe) || maybe == exact) << kernel().name;
    if (!std::isinf(maybe)) {
      EXPECT_GT(maybe, cut);
    }
  }
}

TEST_P(KernelTableTest, DtwIdenticalInputsAreExactlyZero) {
  Rng rng(808);
  DtwWorkspace ws;
  for (const std::size_t n : {1u, 2u, 15u, 16u, 17u, 64u, 100u}) {
    const std::vector<double> a = RandomVec(&rng, n);
    for (const int w : {-1, 0, 3}) {
      const double d =
          kernel().dtw_ea_sq(a.data(), n, a.data(), n, kInfTest, w, &ws);
      // Never negative, whatever the band: a few-ulps-negative cell would
      // turn into NaN under sqrt and silently drop exact matches (the AVX2
      // scan body clamps at zero for exactly this reason).
      EXPECT_GE(d, 0.0) << kernel().name << " n=" << n << " w=" << w;
      if (w < 0) {
        // Unconstrained self-distance is exactly zero under every table:
        // along the diagonal the row prefix sum does not advance, so even
        // the reassociated AVX2 scan cancels exactly.
        EXPECT_EQ(d, 0.0) << kernel().name << " n=" << n;
      } else {
        // Banded scan rows may round diagonal cancellation by final ulps.
        EXPECT_LE(d, 1e-12 * static_cast<double>(n))
            << kernel().name << " n=" << n << " w=" << w;
      }
    }
  }
}

TEST_P(KernelTableTest, WorkspaceReuseNeverChangesResults) {
  Rng rng(909);
  DtwWorkspace reused;
  // Alternate large and small problems so the reused buffers carry stale
  // contents beyond the live band; results must match a fresh workspace.
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t n = trial % 2 == 0 ? 3 + rng.UniformIndex(5)
                                         : 40 + rng.UniformIndex(60);
    const std::size_t m = trial % 2 == 0 ? 50 + rng.UniformIndex(50)
                                         : 2 + rng.UniformIndex(6);
    const std::vector<double> a = RandomVec(&rng, n);
    const std::vector<double> b = RandomVec(&rng, m);
    const int w = EffectiveWindow(n, m, trial % 3 == 0 ? 4 : -1);
    DtwWorkspace fresh;
    const double want =
        kernel().dtw_ea_sq(a.data(), n, b.data(), m, kInfTest, w, &fresh);
    const double got =
        kernel().dtw_ea_sq(a.data(), n, b.data(), m, kInfTest, w, &reused);
    EXPECT_EQ(got, want) << kernel().name << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Tables, KernelTableTest,
                         ::testing::Values(&ScalarKernel(), &SimdKernel()),
                         [](const auto& param_info) {
                           return std::string(param_info.param->name);
                         });

// ---------------------------------------------------------------------------
// Cross-table agreement: the vectorized tables may reassociate reductions,
// so values agree to tight tolerance rather than bitwise. DTW under the
// portable table is documented bit-identical to scalar; AVX2 may differ in
// final ulps.
// ---------------------------------------------------------------------------

TEST(KernelCrossTableTest, ScalarAndSimdAgreeToTolerance) {
  const DistanceKernel& s = ScalarKernel();
  const DistanceKernel& v = SimdKernel();
  Rng rng(1234);
  DtwWorkspace ws, wv;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + rng.UniformIndex(200);
    const std::vector<double> a = RandomVec(&rng, n);
    const std::vector<double> b = RandomVec(&rng, n);
    const double ed_s = s.squared_euclidean(a.data(), b.data(), n);
    const double ed_v = v.squared_euclidean(a.data(), b.data(), n);
    EXPECT_NEAR(ed_s, ed_v, 1e-9 * (1.0 + ed_s));

    std::vector<double> lo(n), up(n);
    s.keogh_envelope(a.data(), n, 3, lo.data(), up.data());
    const double lb_s = s.lb_keogh_sq(lo.data(), up.data(), b.data(), n,
                                      kInfTest);
    const double lb_v = v.lb_keogh_sq(lo.data(), up.data(), b.data(), n,
                                      kInfTest);
    EXPECT_NEAR(lb_s, lb_v, 1e-9 * (1.0 + lb_s));

    const std::size_t m = 1 + rng.UniformIndex(60);
    const std::vector<double> c = RandomVec(&rng, m);
    const int w = EffectiveWindow(n, m, -1);
    const double dtw_s =
        s.dtw_ea_sq(a.data(), n, c.data(), m, kInfTest, w, &ws);
    const double dtw_v =
        v.dtw_ea_sq(a.data(), n, c.data(), m, kInfTest, w, &wv);
    EXPECT_NEAR(dtw_s, dtw_v, 1e-9 * (1.0 + dtw_s)) << "n=" << n << " m=" << m;
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------------

TEST(KernelDispatchTest, ModeSwitchSelectsTheRequestedTable) {
  const KernelMode before = GetKernelMode();
  SetKernelMode(KernelMode::kScalar);
  EXPECT_EQ(GetKernelMode(), KernelMode::kScalar);
  EXPECT_STREQ(ActiveKernel().name, ScalarKernel().name);
  SetKernelMode(KernelMode::kSimd);
  EXPECT_EQ(GetKernelMode(), KernelMode::kSimd);
  // kSimd picks the widest table, which is exactly SimdKernel().
  EXPECT_STREQ(ActiveKernel().name, SimdKernel().name);
  SetKernelMode(before);
}

TEST(KernelDispatchTest, TablesAreDistinctAndNamed) {
  EXPECT_STREQ(ScalarKernel().name, "scalar");
  EXPECT_NE(&ScalarKernel(), &SimdKernel());
  // The simd table is either the portable vectorized build or a wider ISA
  // specialization; SimdDispatchAvailable reports which.
  if (SimdDispatchAvailable()) {
    EXPECT_STREQ(SimdKernel().name, "avx2");
  } else {
    EXPECT_STREQ(SimdKernel().name, "simd");
  }
}

TEST(KernelDispatchTest, SpanWrappersRouteThroughActiveTable) {
  // The convenience wrappers must give the same answers under both modes
  // (to tolerance — the tables may differ in ulps).
  Rng rng(4321);
  const std::vector<double> q = RandomVec(&rng, 50);
  const std::vector<double> c = RandomVec(&rng, 50);
  Envelope env = ComputeKeoghEnvelope(q, 4);

  const KernelMode before = GetKernelMode();
  SetKernelMode(KernelMode::kScalar);
  const double kim_s = LbKim(q, c);
  const double keogh_s = LbKeogh(env, c);
  SetKernelMode(KernelMode::kSimd);
  const double kim_v = LbKim(q, c);
  const double keogh_v = LbKeogh(env, c);
  SetKernelMode(before);

  EXPECT_EQ(kim_s, kim_v);  // LB_Kim is two points — exact everywhere.
  EXPECT_NEAR(keogh_s, keogh_v, 1e-9 * (1.0 + keogh_s));
}

}  // namespace
}  // namespace onex
