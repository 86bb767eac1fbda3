/// Cascade-equivalence crosscheck (DESIGN.md §14): the LB_Kim → LB_Keogh →
/// early-abandon-DTW cascade is a pure work-saving device. With
/// explore_top_groups = k = 1 the refined group is the exact-argmin group
/// under every toggle combination, so the best match — ref, group and
/// bit-level distances — must be identical with the cascade on, off, or
/// partially on, across windows including 0 and full. The suite also pins
/// the QueryStats attribution invariants, the degenerate inputs (lengths
/// 1–3, constant series) and scalar-vs-SIMD kernel-table agreement, and,
/// with every group refined, equality with a brute-force DTW oracle.
#include "onex/core/query_processor.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/distance/kernels.h"
#include "onex/gen/generators.h"
#include "onex/ts/normalization.h"

namespace onex {
namespace {

struct Fixture {
  std::shared_ptr<const Dataset> dataset;
  std::unique_ptr<OnexBase> base;
};

Fixture MakeFixture(std::uint64_t seed, std::size_t num = 10,
                    std::size_t len = 32, std::size_t min_length = 4,
                    std::size_t max_length = 16) {
  gen::SineFamilyOptions opt;
  opt.num_series = num;
  opt.length = len;
  opt.seed = seed;
  Dataset raw = gen::MakeSineFamilies(opt);
  Result<Dataset> norm = Normalize(raw, NormalizationKind::kMinMaxDataset);
  Fixture f;
  f.dataset = std::make_shared<const Dataset>(std::move(norm).value());
  BaseBuildOptions bopt;
  bopt.st = 0.18;
  bopt.min_length = min_length;
  bopt.max_length = max_length;
  bopt.length_step = 2;
  f.base = std::make_unique<OnexBase>(
      std::move(OnexBase::Build(f.dataset, bopt)).value());
  return f;
}

/// Every QueryStats must satisfy the cascade attribution identities
/// regardless of toggles: each lower-bound prune is credited to exactly one
/// stage, a group is counted as pruned at most once, and dtw_evals counts
/// every dynamic program that ran.
void CheckStatsInvariants(const QueryStats& s, const QueryOptions& opt) {
  EXPECT_EQ(s.pruned_kim + s.pruned_keogh,
            s.groups_pruned_lb + s.members_pruned_lb);
  EXPECT_LE(s.groups_pruned_lb, s.groups_total);
  EXPECT_EQ(s.dtw_evals, s.rep_dtw_evaluations + s.member_dtw_evaluations);
  if (!opt.use_lower_bounds) {
    EXPECT_EQ(s.groups_pruned_lb, 0u);
    EXPECT_EQ(s.members_pruned_lb, 0u);
    EXPECT_EQ(s.pruned_kim, 0u);
    EXPECT_EQ(s.pruned_keogh, 0u);
  }
}

class CascadeCrosscheckTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CascadeCrosscheckTest, TogglesNeverChangeTheTop1Answer) {
  const Fixture f = MakeFixture(GetParam());
  QueryProcessor qp(f.base.get());
  Rng rng(GetParam() * 13 + 5);

  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t series = rng.UniformIndex(f.dataset->size());
    const std::size_t qlen = 6 + rng.UniformIndex(8);
    const std::size_t start =
        rng.UniformIndex((*f.dataset)[series].length() - qlen + 1);
    const std::span<const double> vals =
        (*f.dataset)[series].Slice(start, qlen);
    std::vector<double> q(vals.begin(), vals.end());
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);

    // Windows: unconstrained, degenerate 0 (diagonal-only ED), narrow, and
    // wider than any admissible length (effectively full).
    for (const int window : {kNoWindow, 0, 1, 3, 64}) {
      QueryOptions off;
      off.window = window;
      off.use_lower_bounds = false;
      off.use_early_abandon = false;
      QueryStats off_stats;
      Result<BestMatch> want = qp.BestMatchQuery(q, off, &off_stats);
      ASSERT_TRUE(want.ok()) << want.status();
      CheckStatsInvariants(off_stats, off);

      for (const bool lb : {true, false}) {
        for (const bool ea : {true, false}) {
          QueryOptions on = off;
          on.use_lower_bounds = lb;
          on.use_early_abandon = ea;
          QueryStats on_stats;
          Result<BestMatch> got = qp.BestMatchQuery(q, on, &on_stats);
          ASSERT_TRUE(got.ok()) << got.status();
          CheckStatsInvariants(on_stats, on);

          // Same answer, bit for bit: the cascade only skips candidates it
          // proves cannot beat the horizon, and kept DTWs run the exact
          // same arithmetic whether or not abandoning is armed.
          EXPECT_EQ(got->ref, want->ref) << "window=" << window;
          EXPECT_EQ(got->group_index, want->group_index);
          EXPECT_EQ(got->dtw, want->dtw);
          EXPECT_EQ(got->normalized_dtw, want->normalized_dtw);
          EXPECT_EQ(got->rep_dtw, want->rep_dtw);

          // Pruning can only remove work, never add it.
          EXPECT_LE(on_stats.rep_dtw_evaluations,
                    off_stats.rep_dtw_evaluations);
          EXPECT_LE(on_stats.dtw_evals, off_stats.dtw_evals);
          EXPECT_EQ(on_stats.groups_total, off_stats.groups_total);
        }
      }
    }
  }
}

TEST_P(CascadeCrosscheckTest, ScalarAndSimdTablesAgreeOnMatches) {
  const Fixture f = MakeFixture(GetParam());
  QueryProcessor qp(f.base.get());
  const std::span<const double> q = (*f.dataset)[0].Slice(1, 10);

  const KernelMode before = GetKernelMode();
  for (const bool exhaustive : {false, true}) {
    QueryOptions opt;
    opt.exhaustive = exhaustive;

    SetKernelMode(KernelMode::kScalar);
    QueryStats ss;
    Result<BestMatch> scalar = qp.BestMatchQuery(q, opt, &ss);
    SetKernelMode(KernelMode::kSimd);
    QueryStats vs;
    Result<BestMatch> simd = qp.BestMatchQuery(q, opt, &vs);
    SetKernelMode(before);

    ASSERT_TRUE(scalar.ok()) << scalar.status();
    ASSERT_TRUE(simd.ok()) << simd.status();
    CheckStatsInvariants(ss, opt);
    CheckStatsInvariants(vs, opt);
    // The tables may differ in final ulps (documented for the AVX2 DTW
    // prefix scan), so the answer agrees to tolerance; on this data no two
    // candidates are within that tolerance of each other, so the ref
    // agrees exactly.
    EXPECT_EQ(simd->ref, scalar->ref) << "exhaustive=" << exhaustive;
    EXPECT_NEAR(simd->dtw, scalar->dtw, 1e-9 * (1.0 + scalar->dtw));
    EXPECT_NEAR(simd->normalized_dtw, scalar->normalized_dtw,
                1e-9 * (1.0 + scalar->normalized_dtw));
  }
}

/// One candidate of the brute-force oracle.
struct OracleHit {
  SubseqRef ref;
  double dtw;
  double normalized_dtw;
};

/// Exact DTW from `q` to every member of every group, ascending by
/// normalized distance — what KnnQuery must return when every group is
/// refined.
std::vector<OracleHit> BruteForce(const OnexBase& base,
                                  std::span<const double> q, int window) {
  std::vector<OracleHit> hits;
  for (const LengthClass& cls : base.length_classes()) {
    const double nf =
        std::sqrt(static_cast<double>(std::max(q.size(), cls.length)));
    for (std::size_t g = 0; g < cls.store->num_groups(); ++g) {
      for (const SubseqRef& ref : cls.store->members(g)) {
        const double d = DtwDistance(q, ref.Resolve(base.dataset()), window);
        hits.push_back({ref, d, d / nf});
      }
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const OracleHit& a, const OracleHit& b) {
              return a.normalized_dtw < b.normalized_dtw;
            });
  return hits;
}

TEST_P(CascadeCrosscheckTest, FullRefinementEqualsBruteForceOracle) {
  // With explore_top_groups >= groups_total every group is refined, so the
  // cascade — the seeded refinement horizon included — may only skip
  // members it proves cannot enter the top k: the answer is the exact top k
  // of a DTW scan over the whole base. The noisy sines are tie-free, which
  // the oracle re-checks at the k-th boundary.
  const Fixture f = MakeFixture(GetParam());
  QueryProcessor qp(f.base.get());
  std::size_t groups_total = 0;
  std::size_t members_total = 0;
  for (const LengthClass& cls : f.base->length_classes()) {
    groups_total += cls.store->num_groups();
    members_total += cls.total_members;
  }
  Rng rng(GetParam() * 7 + 1);

  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t series = rng.UniformIndex(f.dataset->size());
    const std::size_t qlen = 6 + rng.UniformIndex(8);
    const std::size_t start =
        rng.UniformIndex((*f.dataset)[series].length() - qlen + 1);
    const std::span<const double> vals =
        (*f.dataset)[series].Slice(start, qlen);
    std::vector<double> q(vals.begin(), vals.end());
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);

    for (const int window : {kNoWindow, 0, 3}) {
      const std::vector<OracleHit> oracle = BruteForce(*f.base, q, window);
      for (const std::size_t k : {1u, 3u, 5u, 8u}) {
        ASSERT_LT(oracle[k - 1].normalized_dtw, oracle[k].normalized_dtw)
            << "fixture must be tie-free at the k-th answer";
        for (const bool lb : {true, false}) {
          QueryOptions opt;
          opt.window = window;
          opt.explore_top_groups = groups_total;
          opt.compute_path = false;
          opt.use_lower_bounds = lb;
          QueryStats stats;
          Result<std::vector<BestMatch>> got = qp.KnnQuery(q, k, opt, &stats);
          ASSERT_TRUE(got.ok()) << got.status();
          CheckStatsInvariants(stats, opt);
          ASSERT_EQ(got->size(), k);
          for (std::size_t i = 0; i < k; ++i) {
            EXPECT_EQ((*got)[i].ref, oracle[i].ref)
                << "window=" << window << " k=" << k << " rank=" << i;
            EXPECT_EQ((*got)[i].dtw, oracle[i].dtw);
            EXPECT_EQ((*got)[i].normalized_dtw, oracle[i].normalized_dtw);
          }
          // Seeds count as member DTW evaluations, exactly once each:
          // without lower bounds every member is evaluated once; with
          // them each member is evaluated or pruned at most once.
          EXPECT_EQ(stats.groups_total, groups_total);
          if (lb) {
            EXPECT_LE(stats.member_dtw_evaluations + stats.members_pruned_lb,
                      members_total);
          } else {
            EXPECT_EQ(stats.member_dtw_evaluations, members_total);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CascadeCrosscheckTest,
                         ::testing::Values(3, 17, 29, 41));

TEST(CascadeDegenerateTest, TinyQueriesAndValidation) {
  const Fixture f = MakeFixture(9, 8, 24, 2, 8);
  QueryProcessor qp(f.base.get());

  // Length-1 queries are rejected up front.
  const std::vector<double> one{0.5};
  EXPECT_FALSE(qp.KnnQuery(one, 1).ok());

  // Lengths 2 and 3 run the full cascade; answers match cascade-off.
  for (const std::size_t qlen : {2u, 3u}) {
    const std::span<const double> q = (*f.dataset)[1].Slice(0, qlen);
    for (const int window : {kNoWindow, 0, 1}) {
      QueryOptions on;
      on.window = window;
      QueryOptions off = on;
      off.use_lower_bounds = false;
      off.use_early_abandon = false;
      QueryStats son, soff;
      Result<BestMatch> a = qp.BestMatchQuery(q, on, &son);
      Result<BestMatch> b = qp.BestMatchQuery(q, off, &soff);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      CheckStatsInvariants(son, on);
      CheckStatsInvariants(soff, off);
      EXPECT_EQ(a->dtw, b->dtw) << "qlen=" << qlen << " window=" << window;
      EXPECT_EQ(a->normalized_dtw, b->normalized_dtw);
    }
  }
}

TEST(CascadeDegenerateTest, MemberTiedWithTheSeedKeepsItsTieBreak) {
  // Two members of one group tie at DTW 0 with the query: `warped` is a
  // time-warped copy (lock-step cost 1) and comes first in member order;
  // `exact` equals the query (lock-step cost 0), so it is the one seeded.
  // The seeded horizon is then 0, and a prune that is not strict would drop
  // `warped` — yet a full scan merges it first and answers with it.
  const std::vector<double> warped{0.0, 1.0, 2.0, 2.0, 3.0};
  const std::vector<double> exact{0.0, 1.0, 1.0, 2.0, 3.0};
  Dataset raw;
  raw.Add(TimeSeries("warped", warped));
  raw.Add(TimeSeries("exact", exact));
  auto ds = std::make_shared<const Dataset>(std::move(raw));
  BaseBuildOptions bopt;
  bopt.st = 10.0;  // one group
  bopt.min_length = 5;
  bopt.max_length = 5;
  Result<OnexBase> base = OnexBase::Build(ds, bopt);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_EQ(base->length_classes().at(0).store->num_groups(), 1u);
  QueryProcessor qp(&*base);

  for (const bool lb : {true, false}) {
    for (const bool ea : {true, false}) {
      QueryOptions opt;
      opt.use_lower_bounds = lb;
      opt.use_early_abandon = ea;
      QueryStats stats;
      Result<BestMatch> got = qp.BestMatchQuery(exact, opt, &stats);
      ASSERT_TRUE(got.ok()) << got.status();
      CheckStatsInvariants(stats, opt);
      EXPECT_EQ(got->ref.series, 0u) << "lb=" << lb << " ea=" << ea;
      EXPECT_EQ(got->dtw, 0.0);
    }
  }
}

TEST(CascadeDegenerateTest, MemberNearTiedWithTheSeedKeepsItsTieBreak) {
  // As above, but tied at a nonzero DTW e, with the seed's horizon read
  // back through the length normalization: at these lengths and offsets
  // (e / nf) * nf rounds one ulp below e, so without the strict-with-slack
  // cutoff (StrictCutoffSq) LB_Kim — exactly e here — would prune `warped`
  // against a cutoff a hair under its own distance. Dyadic values keep
  // every distance exact under both kernel tables; lengths from 19 up run
  // the AVX2 DTW's wide-row scan.
  const KernelMode before = GetKernelMode();
  for (const std::size_t len : {15u, 19u, 23u, 29u, 30u}) {
    for (const double e : {0.5, 0.625, 0.75, 0.875}) {
      // query 0, 1, 1, 2, ...; `exact` is the query with its last point
      // moved by e (lock-step cost e^2); `warped` moves the repeated 1 one
      // step later as well (lock-step cost 1 + e^2, DTW still e^2).
      std::vector<double> query(len);
      for (std::size_t i = 0; i < len; ++i) {
        query[i] = i < 2 ? static_cast<double>(i) : static_cast<double>(i - 1);
      }
      std::vector<double> exact = query;
      exact.back() += e;
      std::vector<double> warped = exact;
      warped[2] = 2.0;
      Dataset raw;
      raw.Add(TimeSeries("warped", warped));
      raw.Add(TimeSeries("exact", exact));
      auto ds = std::make_shared<const Dataset>(std::move(raw));
      BaseBuildOptions bopt;
      bopt.st = 10.0;  // one group
      bopt.min_length = len;
      bopt.max_length = len;
      Result<OnexBase> base = OnexBase::Build(ds, bopt);
      ASSERT_TRUE(base.ok()) << base.status();
      ASSERT_EQ(base->length_classes().at(0).store->num_groups(), 1u);
      QueryProcessor qp(&*base);
      for (const KernelMode mode : {KernelMode::kScalar, KernelMode::kSimd}) {
        SetKernelMode(mode);
        QueryStats stats;
        Result<BestMatch> got = qp.BestMatchQuery(query, QueryOptions{}, &stats);
        ASSERT_TRUE(got.ok()) << got.status();
        CheckStatsInvariants(stats, QueryOptions{});
        EXPECT_EQ(got->ref.series, 0u)
            << "len=" << len << " e=" << e << " table=" << ActiveKernel().name;
        EXPECT_EQ(got->dtw, e);
      }
    }
  }
  SetKernelMode(before);
}

TEST(CascadeDegenerateTest, ConstantSeriesFindExactZeroUnderBothTables) {
  // A dataset of constant series: every subsequence is identical after
  // grouping, all distances are exactly zero, and nothing the cascade or
  // the SIMD tables do may perturb that (the zero-clamp in the AVX2 DTW
  // scan exists precisely so self-distances stay exactly 0).
  Dataset raw;
  for (int s = 0; s < 4; ++s) {
    raw.Add(TimeSeries("const" + std::to_string(s),
                       std::vector<double>(20, 0.25 * (s + 1))));
  }
  Result<Dataset> norm = Normalize(raw, NormalizationKind::kMinMaxDataset);
  ASSERT_TRUE(norm.ok());
  auto ds = std::make_shared<const Dataset>(std::move(norm).value());
  BaseBuildOptions bopt;
  bopt.st = 0.1;
  bopt.min_length = 4;
  bopt.max_length = 12;
  Result<OnexBase> base = OnexBase::Build(ds, bopt);
  ASSERT_TRUE(base.ok());
  QueryProcessor qp(&*base);

  // Query an exact slice of a normalized series so a bit-equal candidate
  // exists: every cost on the diagonal is exactly zero.
  const std::span<const double> qs = (*ds)[1].Slice(0, 8);
  const std::vector<double> q(qs.begin(), qs.end());
  const KernelMode before = GetKernelMode();
  for (const KernelMode mode : {KernelMode::kScalar, KernelMode::kSimd}) {
    SetKernelMode(mode);
    for (const bool lb : {true, false}) {
      QueryOptions opt;
      opt.use_lower_bounds = lb;
      QueryStats stats;
      Result<std::vector<BestMatch>> got = qp.KnnQuery(q, 2, opt, &stats);
      ASSERT_TRUE(got.ok()) << got.status();
      CheckStatsInvariants(stats, opt);
      for (const BestMatch& m : *got) {
        EXPECT_EQ(m.dtw, 0.0);
        EXPECT_EQ(m.normalized_dtw, 0.0);
      }
    }
  }
  SetKernelMode(before);
}

}  // namespace
}  // namespace onex
