#include "onex/distance/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/distance/dtw.h"
#include "test_util.h"

namespace onex {
namespace {

TEST(LbKimTest, KnownValue) {
  const std::vector<double> a{0.0, 5.0, 1.0};
  const std::vector<double> b{3.0, 9.0, 5.0};
  EXPECT_DOUBLE_EQ(LbKim(a, b), std::sqrt(9.0 + 16.0));
}

TEST(LbKimTest, EmptyInputIsZero) {
  EXPECT_DOUBLE_EQ(LbKim(std::vector<double>{}, std::vector<double>{1.0}), 0.0);
}

TEST(LbKimTest, DifferentLengthsStillValid) {
  const std::vector<double> a{0.0, 1.0};
  const std::vector<double> b{0.5, 2.0, 1.5};
  EXPECT_LE(LbKim(a, b), DtwDistance(a, b) + 1e-12);
}

TEST(LbKeoghTest, LengthMismatchReturnsZero) {
  const std::vector<double> q{1.0, 2.0, 3.0};
  const Envelope env = ComputeKeoghEnvelope(q, 1);
  EXPECT_DOUBLE_EQ(LbKeogh(env, std::vector<double>{1.0, 2.0}), 0.0);
}

TEST(LbKeoghTest, CandidateInsideEnvelopeGivesZero) {
  const std::vector<double> q{0.0, 1.0, 0.0, -1.0};
  const Envelope env = ComputeKeoghEnvelope(q, -1);  // global [-1, 1]
  EXPECT_DOUBLE_EQ(LbKeogh(env, std::vector<double>{0.5, -0.5, 0.9, 0.0}),
                   0.0);
}

TEST(LbKeoghTest, EarlyAbandonConsistency) {
  const std::vector<double> q{0.0, 0.0, 0.0, 0.0};
  const Envelope env = ComputeKeoghEnvelope(q, 0);
  const std::vector<double> far{5.0, 5.0, 5.0, 5.0};
  const double exact = LbKeogh(env, far);
  EXPECT_DOUBLE_EQ(exact, 10.0);  // sqrt(4 * 25)
  EXPECT_TRUE(std::isinf(LbKeogh(env, far, 5.0)));   // cutoff below
  EXPECT_DOUBLE_EQ(LbKeogh(env, far, 20.0), exact);  // cutoff above
}

TEST(LbKeoghGroupTest, OverlappingEnvelopesGiveZero) {
  Envelope q_env;
  q_env.lower = {0.0, 0.0};
  q_env.upper = {1.0, 1.0};
  Envelope g_env;
  g_env.lower = {0.5, -1.0};
  g_env.upper = {2.0, 0.5};
  EXPECT_DOUBLE_EQ(LbKeoghGroup(q_env, g_env), 0.0);
}

TEST(LbKeoghGroupTest, DisjointEnvelopesGivePositiveBound) {
  Envelope q_env;
  q_env.lower = {0.0, 0.0};
  q_env.upper = {1.0, 1.0};
  Envelope g_env;
  g_env.lower = {3.0, 3.0};
  g_env.upper = {4.0, 4.0};
  // Each point at least distance 2 -> sqrt(8).
  EXPECT_DOUBLE_EQ(LbKeoghGroup(q_env, g_env), std::sqrt(8.0));
}

TEST(LbKeoghGroupTest, SizeMismatchReturnsZero) {
  Envelope q_env;
  q_env.lower = {0.0};
  q_env.upper = {1.0};
  Envelope g_env;
  g_env.lower = {0.0, 0.0};
  g_env.upper = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(LbKeoghGroup(q_env, g_env), 0.0);
}

/// Admissibility sweeps: every lower bound must stay below the true banded
/// DTW on random inputs. Parameter = (seed, window).
class LowerBoundPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(LowerBoundPropertyTest, LbKimAdmissible) {
  const auto [seed, window] = GetParam();
  Rng rng(seed);
  const std::size_t n = 2 + rng.UniformIndex(30);
  const std::size_t m = 2 + rng.UniformIndex(30);
  const std::vector<double> a = testing::RandomSeries(&rng, n);
  const std::vector<double> b = testing::RandomSeries(&rng, m);
  EXPECT_LE(LbKim(a, b), DtwDistance(a, b, window) + 1e-9);
}

TEST_P(LowerBoundPropertyTest, LbKeoghAdmissibleForBandedDtw) {
  const auto [seed, window] = GetParam();
  Rng rng(seed + 500);
  const std::size_t n = 2 + rng.UniformIndex(40);
  const std::vector<double> q = testing::RandomSeries(&rng, n);
  const std::vector<double> c = testing::RandomSeries(&rng, n);
  const int eff = window < 0 ? -1 : EffectiveWindow(n, n, window);
  const Envelope env = ComputeKeoghEnvelope(q, eff);
  EXPECT_LE(LbKeogh(env, c), DtwDistance(q, c, window) + 1e-9)
      << "n=" << n << " window=" << window;
}

TEST_P(LowerBoundPropertyTest, GroupBoundAdmissibleForEveryMember) {
  const auto [seed, window] = GetParam();
  Rng rng(seed + 900);
  const std::size_t n = 2 + rng.UniformIndex(24);
  const std::vector<double> q = testing::RandomSeries(&rng, n);
  const int eff = window < 0 ? -1 : EffectiveWindow(n, n, window);
  const Envelope q_env = ComputeKeoghEnvelope(q, eff);

  // A synthetic group: perturbed copies of one shape.
  const std::vector<double> center = testing::RandomSeries(&rng, n);
  Envelope g_env;
  std::vector<std::vector<double>> members;
  for (int k = 0; k < 6; ++k) {
    std::vector<double> m = center;
    for (double& v : m) v += rng.Uniform(-0.2, 0.2);
    AccumulateEnvelope(&g_env, m);
    members.push_back(std::move(m));
  }
  const double bound = LbKeoghGroup(q_env, g_env);
  for (const std::vector<double>& m : members) {
    EXPECT_LE(bound, DtwDistance(q, m, window) + 1e-9);
  }
}

TEST_P(LowerBoundPropertyTest, GroupBoundNeverExceedsMemberKeogh) {
  // The group bound relaxes the member bound; verify the dominance that
  // makes it safe to test the group before its members.
  const auto [seed, window] = GetParam();
  Rng rng(seed + 1300);
  const std::size_t n = 2 + rng.UniformIndex(24);
  const std::vector<double> q = testing::RandomSeries(&rng, n);
  const int eff = window < 0 ? -1 : EffectiveWindow(n, n, window);
  const Envelope q_env = ComputeKeoghEnvelope(q, eff);
  Envelope g_env;
  std::vector<std::vector<double>> members;
  for (int k = 0; k < 4; ++k) {
    std::vector<double> m = testing::RandomSeries(&rng, n);
    AccumulateEnvelope(&g_env, m);
    members.push_back(std::move(m));
  }
  const double group_bound = LbKeoghGroup(q_env, g_env);
  for (const std::vector<double>& m : members) {
    EXPECT_LE(group_bound, LbKeogh(q_env, m) + 1e-9);
  }
}

/// Cross-length bounds (DESIGN.md §7.7) over random pairs of UNEQUAL
/// lengths. Parameter = (seed, window).
class CrossLengthBoundTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

/// A random pair with n != m, both in [2, 41]; every third pair is a
/// smooth walk (long runs outside the other side's range), the rest are
/// uniform in [-1, 1].
std::pair<std::vector<double>, std::vector<double>> UnequalPair(Rng* rng) {
  const std::size_t n = 2 + rng->UniformIndex(40);
  std::size_t m = 2 + rng->UniformIndex(39);
  if (m >= n) ++m;
  if (rng->UniformIndex(3) == 0) {
    return {testing::SmoothSeries(rng, n, 0.3),
            testing::SmoothSeries(rng, m, 0.3)};
  }
  return {testing::RandomSeries(rng, n), testing::RandomSeries(rng, m)};
}

/// Both orientations the member stage runs: c's interior against q's
/// range, and q's interior against c's range (DTW is symmetric).
TEST_P(CrossLengthBoundTest, CornerRangeAdmissibleAtAnyLength) {
  const auto [seed, window] = GetParam();
  Rng rng(seed + 1700);
  for (int trial = 0; trial < 60; ++trial) {
    const auto [q, c] = UnequalPair(&rng);
    const auto [q_min, q_max] = std::minmax_element(q.begin(), q.end());
    const auto [c_min, c_max] = std::minmax_element(c.begin(), c.end());
    const double dtw = DtwDistance(q, c, window);
    EXPECT_LE(std::sqrt(LbCornerRangeSq(q, *q_min, *q_max, c)), dtw + 1e-9)
        << "n=" << q.size() << " m=" << c.size() << " window=" << window;
    EXPECT_LE(std::sqrt(LbCornerRangeSq(c, *c_min, *c_max, q)), dtw + 1e-9)
        << "n=" << q.size() << " m=" << c.size() << " window=" << window;
  }
}

/// Tight instances for the row-prefix bound: every query point after the
/// first lies above the candidate's maximum, which sits at index 1, so the
/// path (0,0), (1,1), ..., (n-1,1) costs exactly the bound. A far first
/// candidate point makes the AVX2 scan's reassociated row sums round
/// around that exact value.
std::pair<std::vector<double>, std::vector<double>> TightRowPrefixPair(
    Rng* rng) {
  const std::size_t n = 2 + rng->UniformIndex(40);
  const std::size_t m = 16 + rng->UniformIndex(26);
  std::vector<double> q = testing::RandomSeries(rng, n);
  for (std::size_t i = 1; i < n; ++i) q[i] = rng->Uniform(1.5, 3.0);
  std::vector<double> c = testing::RandomSeries(rng, m);
  c[0] = rng->Uniform(-200.0, -50.0);
  c[1] = 1.25;
  return {std::move(q), std::move(c)};
}

TEST_P(CrossLengthBoundTest, RowPrefixAboveStrictCutoffMeansTheDpAbandons) {
  const auto [seed, window] = GetParam();
  Rng rng(seed + 2100);
  std::vector<const DistanceKernel*> tables{&ScalarKernel(),
                                            &PortableSimdKernel()};
  if (SimdDispatchAvailable()) tables.push_back(&SimdKernel());
  DtwWorkspace ws;
  for (int trial = 0; trial < 120; ++trial) {
    const auto [q, c] =
        trial % 2 == 0 ? UnequalPair(&rng) : TightRowPrefixPair(&rng);
    const auto [c_min, c_max] = std::minmax_element(c.begin(), c.end());
    const double bound = LbRowPrefixSq(q, c, *c_min, *c_max);
    const int w = EffectiveWindow(q.size(), c.size(), window);
    // Cutoffs close below the bound: a few ulps, a relative hair, and
    // wider fractions (where the DP's last-row minimum, not the bound,
    // decides).
    std::vector<double> cutoffs;
    double ulps_below = bound;
    for (int k = 0; k < 64; ++k) {
      ulps_below = std::nextafter(ulps_below, 0.0);
      cutoffs.push_back(ulps_below);
    }
    for (const double f : {1 - 1e-12, 1 - 1e-10, 1 - 1e-9, 1 - 1e-6, 0.99,
                           0.9, 0.75, 0.5}) {
      cutoffs.push_back(bound * f);
    }
    for (const double cutoff_sq : cutoffs) {
      if (!(bound > StrictCutoffSq(cutoff_sq))) continue;
      for (const DistanceKernel* t : tables) {
        EXPECT_TRUE(std::isinf(t->dtw_ea_sq(q.data(), q.size(), c.data(),
                                            c.size(), cutoff_sq, w, &ws)))
            << t->name << " n=" << q.size() << " m=" << c.size()
            << " window=" << window << " bound=" << bound
            << " cutoff_sq=" << cutoff_sq;
      }
    }
  }
}

TEST(CrossLengthBounds, KnownValues) {
  const std::vector<double> q{0.0, 2.0, -1.0, 1.0};  // range [-1, 2]
  const std::vector<double> c{1.0, 3.0, -3.0, 0.5, 4.0};
  // Corners (0-1)^2 + (1-4)^2, interior gaps 1, 2, 0.
  EXPECT_DOUBLE_EQ(LbCornerRangeSq(q, -1.0, 2.0, c), 1.0 + 9.0 + 1.0 + 4.0);
  // Against c's range [-3, 4] every later query point is inside.
  EXPECT_DOUBLE_EQ(LbRowPrefixSq(q, c, -3.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(LbRowPrefixSq(q, c, 0.0, 0.5), 1.0 + 2.25 + 1.0 + 0.25);
  EXPECT_DOUBLE_EQ(LbCornerRangeSq(std::vector<double>{2.0}, 2.0, 2.0,
                                   std::vector<double>{5.0}),
                   9.0);
  EXPECT_DOUBLE_EQ(LbRowPrefixSq(std::vector<double>{}, c, 0.0, 1.0), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWindows, CrossLengthBoundTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values(-1, 0, 1, 3, 64)));

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWindows, LowerBoundPropertyTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values(-1, 0, 1, 3, 8)));

}  // namespace
}  // namespace onex
