/// Differential oracle suite for the analytics verbs (DESIGN.md §18):
/// randomized maintenance schedules (AppendSeries/ExtendSeries, the same
/// shapes core_incremental_diff_test drives) grow a base, then every
/// analytics answer is checked against a brute-force oracle that never
/// heard of groups. ANOMALY scores and MOTIF/DISCORD answers must agree
/// bit for bit (the pruning is admissible and ties break canonically);
/// CHANGEPOINT must agree with the unpruned recursion within the error
/// bound the pruned run itself reports (exactly, when it dropped nothing);
/// FORECAST must match the exhaustive k-NN continuation average. 8 seeds x
/// 8 schedules = 64 schedules per run, all deterministic.
#include "onex/core/analytics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/cancellation.h"
#include "onex/common/random.h"
#include "onex/common/string_utils.h"
#include "onex/core/incremental.h"
#include "onex/core/onex_base.h"
#include "onex/distance/euclidean.h"
#include "test_util.h"

namespace onex {
namespace {

constexpr double kSt = 0.3;
constexpr double kInf = std::numeric_limits<double>::infinity();

BaseBuildOptions Options(CentroidPolicy policy) {
  BaseBuildOptions opt;
  opt.st = kSt;
  opt.min_length = 4;
  opt.max_length = 0;
  opt.length_step = 2;
  opt.centroid_policy = policy;
  return opt;
}

/// Grows the base through a few maintenance ops so analytics run over the
/// streamed/maintained structure, not just a fresh build.
void RunSchedule(Rng* rng, OnexBase* base) {
  const std::size_t ops = 2 + rng->UniformIndex(3);
  for (std::size_t op = 0; op < ops; ++op) {
    if (rng->Bernoulli(0.35)) {
      TimeSeries fresh(
          "arr_" + std::to_string(op),
          testing::SmoothSeries(rng, 8 + rng->UniformIndex(7)));
      Result<OnexBase> next = AppendSeries(*base, fresh);
      ASSERT_TRUE(next.ok()) << next.status();
      *base = std::move(next).value();
    } else {
      const std::size_t series = rng->UniformIndex(base->dataset().size());
      Result<ExtendResult> next = ExtendSeries(
          *base, series,
          testing::SmoothSeries(rng, 1 + rng->UniformIndex(4)));
      ASSERT_TRUE(next.ok()) << next.status();
      *base = std::move(next->base);
    }
  }
}

struct OracleScore {
  SubseqRef ref;
  double score = 0.0;
  bool outlier = false;
};

/// Exhaustive centroid scan: the ANOMALY oracle.
std::vector<OracleScore> OracleAnomaly(const OnexBase& base, double eps,
                                       std::size_t min_pts,
                                       std::size_t length) {
  const Dataset& ds = base.dataset();
  std::vector<OracleScore> all;
  for (const LengthClass& cls : base.length_classes()) {
    if (length != 0 && cls.length != length) continue;
    for (const SimilarityGroup& g : cls.groups) {
      for (const SubseqRef& ref : g.members()) {
        const std::span<const double> v = ref.Resolve(ds);
        OracleScore s;
        s.ref = ref;
        s.score = kInf;
        bool clustered = false;
        for (const SimilarityGroup& other : cls.groups) {
          const double d = NormalizedEuclidean(other.centroid_span(), v);
          s.score = std::min(s.score, d);
          if (d <= eps && other.size() >= min_pts) clustered = true;
        }
        s.outlier = !clustered;
        all.push_back(s);
      }
    }
  }
  return all;
}

/// All members of one class, group-major (the order analytics scans them).
std::vector<SubseqRef> ClassMembers(const LengthClass& cls) {
  std::vector<SubseqRef> refs;
  for (const SimilarityGroup& g : cls.groups) {
    for (const SubseqRef& ref : g.members()) refs.push_back(ref);
  }
  return refs;
}

class AnalyticsDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

/// Builds one maintained base per (seed, schedule) and hands it to `check`.
template <typename Fn>
void ForEachSchedule(std::uint64_t seed, Fn check) {
  for (int schedule = 0; schedule < 8; ++schedule) {
    Rng rng(seed * 10'000 + static_cast<std::uint64_t>(schedule));
    const CentroidPolicy policy = static_cast<CentroidPolicy>(schedule % 3);
    Dataset ds("analytics");
    const std::size_t num = 3 + rng.UniformIndex(3);
    for (std::size_t s = 0; s < num; ++s) {
      ds.Add(TimeSeries(StrFormat("s%zu", s),
                        testing::SmoothSeries(&rng,
                                              8 + rng.UniformIndex(5))));
    }
    Result<OnexBase> built = OnexBase::Build(
        std::make_shared<const Dataset>(std::move(ds)), Options(policy));
    ASSERT_TRUE(built.ok()) << built.status();
    OnexBase base = std::move(built).value();
    RunSchedule(&rng, &base);
    if (::testing::Test::HasFatalFailure()) return;
    check(&rng, base, schedule);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(AnalyticsDiffTest, AnomalyScoresMatchExhaustiveCentroidScanExactly) {
  ForEachSchedule(GetParam(), [](Rng* rng, const OnexBase& base,
                                 int schedule) {
    AnomalyOptions opt;
    opt.top_k = 1 + rng->UniformIndex(6);
    opt.min_pts = 1 + rng->UniformIndex(3);
    // Alternate the default ST/2 neighborhood with an explicit one.
    opt.eps = (schedule % 2 == 0) ? 0.0 : 0.05 + 0.1 * rng->Uniform(0.0, 1.0);
    Result<AnomalyReport> got_r = DetectAnomalies(base, opt);
    ASSERT_TRUE(got_r.ok()) << got_r.status();
    const AnomalyReport& got = *got_r;

    const double eps = opt.eps > 0.0 ? opt.eps : base.options().st / 2.0;
    std::vector<OracleScore> oracle =
        OracleAnomaly(base, eps, opt.min_pts, opt.length);
    ASSERT_EQ(got.members_scanned, oracle.size());
    std::size_t oracle_outliers = 0;
    for (const OracleScore& s : oracle) oracle_outliers += s.outlier ? 1 : 0;
    EXPECT_EQ(got.outliers, oracle_outliers);

    std::sort(oracle.begin(), oracle.end(),
              [](const OracleScore& a, const OracleScore& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.ref < b.ref;
              });
    if (oracle.size() > opt.top_k) oracle.resize(opt.top_k);
    ASSERT_EQ(got.findings.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_EQ(got.findings[i].ref, oracle[i].ref) << "schedule=" << schedule;
      // Bit-exact: early abandonment filters, it never alters a score.
      EXPECT_EQ(got.findings[i].score, oracle[i].score);
      EXPECT_EQ(got.findings[i].outlier, oracle[i].outlier);
    }
    // Every member-centroid pair is either evaluated exactly or abandoned —
    // the filter skips arithmetic, never a comparison.
    std::size_t centroid_pairs = 0;
    for (const LengthClass& cls : base.length_classes()) {
      centroid_pairs += ClassMembers(cls).size() * cls.groups.size();
    }
    EXPECT_EQ(got.distance_evals + got.evals_abandoned, centroid_pairs);
  });
}

/// ANOMALY counts drift inside its own scan; it must report exactly the
/// ComputeDrift entries of the classes it scanned — one class, or all.
TEST_P(AnalyticsDiffTest, AnomalyDriftMatchesComputeDrift) {
  ForEachSchedule(GetParam(), [](Rng* rng, const OnexBase& base,
                                 int schedule) {
    const std::vector<LengthClassDrift> all = ComputeDrift(base);
    ASSERT_FALSE(all.empty());
    const std::size_t one = all[rng->UniformIndex(all.size())].length;
    for (const std::size_t length : {one, std::size_t{0}}) {
      AnomalyOptions opt;
      opt.length = length;
      Result<AnomalyReport> got = DetectAnomalies(base, opt);
      ASSERT_TRUE(got.ok()) << got.status();
      std::vector<LengthClassDrift> want;
      for (const LengthClassDrift& d : all) {
        if (length == 0 || d.length == length) want.push_back(d);
      }
      ASSERT_EQ(got->drift.size(), want.size()) << "length=" << length;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got->drift[i].length, want[i].length);
        EXPECT_EQ(got->drift[i].members, want[i].members);
        EXPECT_EQ(got->drift[i].outliers, want[i].outliers)
            << "schedule=" << schedule << " length=" << want[i].length;
      }
    }
  });
}

TEST_P(AnalyticsDiffTest, MotifPairAndDiscordsMatchQuadraticScanExactly) {
  ForEachSchedule(GetParam(), [](Rng* rng, const OnexBase& base,
                                 int schedule) {
    MotifOptions opt;
    opt.top_k = 1 + rng->UniformIndex(4);
    opt.discords = 1 + rng->UniformIndex(4);
    Result<MotifReport> got_r = FindMotifs(base, opt);
    ASSERT_TRUE(got_r.ok()) << got_r.status();
    const MotifReport& got = *got_r;

    ASSERT_EQ(got.classes.size(), base.length_classes().size());
    for (std::size_t c = 0; c < got.classes.size(); ++c) {
      const LengthClass& cls = base.length_classes()[c];
      const MotifClassReport& out = got.classes[c];
      ASSERT_EQ(out.length, cls.length);
      const std::vector<SubseqRef> refs = ClassMembers(cls);
      const Dataset& ds = base.dataset();

      // Oracle motif pair: full O(n^2) scan, canonical tie-break.
      double best_d = kInf;
      SubseqRef best_a, best_b;
      bool found = false;
      for (std::size_t i = 0; i < refs.size(); ++i) {
        for (std::size_t j = i + 1; j < refs.size(); ++j) {
          SubseqRef a = refs[i], b = refs[j];
          if (a.Overlaps(b)) continue;
          if (b < a) std::swap(a, b);
          const double d =
              NormalizedEuclidean(a.Resolve(ds), b.Resolve(ds));
          if (!found || d < best_d ||
              (d == best_d && (a < best_a || (a == best_a && b < best_b)))) {
            best_d = d;
            best_a = a;
            best_b = b;
            found = true;
          }
        }
      }
      ASSERT_EQ(out.has_motif, found) << "schedule=" << schedule;
      if (found) {
        EXPECT_EQ(out.motif_a, best_a);
        EXPECT_EQ(out.motif_b, best_b);
        EXPECT_EQ(out.motif_distance, best_d);  // bit-exact
      }

      // Oracle discords: exact nearest non-overlapping neighbor per member.
      std::vector<Discord> oracle;
      for (const SubseqRef& m : refs) {
        double nn = kInf;
        for (const SubseqRef& other : refs) {
          if (other.Overlaps(m)) continue;
          nn = std::min(nn, NormalizedEuclidean(m.Resolve(ds),
                                                other.Resolve(ds)));
        }
        if (std::isfinite(nn)) oracle.push_back(Discord{m, nn});
      }
      std::sort(oracle.begin(), oracle.end(),
                [](const Discord& a, const Discord& b) {
                  if (a.distance != b.distance) return a.distance > b.distance;
                  return a.ref < b.ref;
                });
      if (oracle.size() > opt.discords) oracle.resize(opt.discords);
      ASSERT_EQ(out.discords.size(), oracle.size());
      for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(out.discords[i].ref, oracle[i].ref);
        EXPECT_EQ(out.discords[i].distance, oracle[i].distance);  // bit-exact
      }

      // Densest ranking agrees with a direct sort of group populations.
      std::vector<std::size_t> order(cls.groups.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (cls.groups[a].size() != cls.groups[b].size()) {
          return cls.groups[a].size() > cls.groups[b].size();
        }
        return a < b;
      });
      ASSERT_EQ(out.densest.size(),
                std::min<std::size_t>(opt.top_k, order.size()));
      for (std::size_t i = 0; i < out.densest.size(); ++i) {
        EXPECT_EQ(out.densest[i].group, order[i]);
        EXPECT_EQ(out.densest[i].count, cls.groups[order[i]].size());
      }
    }
  });
}

TEST_P(AnalyticsDiffTest, ChangepointTruncationStaysWithinReportedBound) {
  ForEachSchedule(GetParam(), [](Rng* rng, const OnexBase& base,
                                 int schedule) {
    // A series with a genuine regime change: the maintained series' values
    // plus a level shift half way, so run-length mass actually spreads.
    const std::size_t series = rng->UniformIndex(base.dataset().size());
    std::vector<double> values(base.dataset()[series].values());
    const std::size_t extra = 24 + rng->UniformIndex(16);
    double level = values.back() + 2.0 + rng->Uniform(0.0, 2.0);
    for (std::size_t i = 0; i < extra; ++i) {
      values.push_back(level + rng->Gaussian(0.0, 0.1));
      if (i == extra / 2) level -= 3.0;  // second changepoint mid-tail
    }

    ChangepointOptions exact_opt;
    exact_opt.hazard = 0.05;
    exact_opt.max_run = values.size() + 2;  // nothing can be dropped
    Result<ChangepointReport> exact_r = DetectChangepoints(values, exact_opt);
    ASSERT_TRUE(exact_r.ok()) << exact_r.status();
    const ChangepointReport& exact = *exact_r;
    EXPECT_EQ(exact.mass_dropped, 0.0);
    EXPECT_EQ(exact.error_bound, 0.0);
    EXPECT_EQ(exact.evaluated, values.size());

    // The detector actually reacts inside the constructed tail: the >= 2.0
    // jump out of the prefix must push the new-regime posterior clear of
    // the hazard somewhere in the tail (short, heavily-extended prefixes
    // keep old-run predictives broad, so the spike height varies by
    // schedule). Pre-fix, the reported statistic P(run = 0) was
    // identically the hazard rate (0.05 here) at every step, level shift
    // or not — this bound can then never clear.
    double max_in_tail = 0.0;
    for (std::size_t t = values.size() - extra; t < values.size(); ++t) {
      max_in_tail = std::max(max_in_tail, exact.change_probability[t]);
    }
    EXPECT_GT(max_in_tail, 1.5 * exact_opt.hazard)
        << "schedule=" << schedule << " len=" << values.size()
        << " extra=" << extra;

    // An untruncated rerun is bit-identical: the recursion is deterministic.
    ChangepointOptions rerun_opt = exact_opt;
    rerun_opt.max_run = 2 * values.size() + 5;
    Result<ChangepointReport> rerun = DetectChangepoints(values, rerun_opt);
    ASSERT_TRUE(rerun.ok());
    ASSERT_EQ(rerun->change_probability.size(),
              exact.change_probability.size());
    for (std::size_t t = 0; t < exact.change_probability.size(); ++t) {
      EXPECT_EQ(rerun->change_probability[t], exact.change_probability[t]);
    }
    EXPECT_EQ(rerun->map_run_length, exact.map_run_length);

    // Truncated runs must stay within the bound they themselves report.
    for (const std::size_t max_run : {std::size_t{4}, std::size_t{8},
                                      std::size_t{16}}) {
      ChangepointOptions pruned_opt = exact_opt;
      pruned_opt.max_run = max_run;
      Result<ChangepointReport> pruned_r =
          DetectChangepoints(values, pruned_opt);
      ASSERT_TRUE(pruned_r.ok()) << pruned_r.status();
      const ChangepointReport& pruned = *pruned_r;
      ASSERT_EQ(pruned.change_probability.size(),
                exact.change_probability.size());
      ASSERT_LE(pruned.error_bound, 1.0);
      for (std::size_t t = 0; t < exact.change_probability.size(); ++t) {
        EXPECT_LE(std::abs(pruned.change_probability[t] -
                           exact.change_probability[t]),
                  pruned.error_bound + 1e-12)
            << "schedule=" << schedule << " max_run=" << max_run
            << " t=" << t;
      }
      if (pruned.mass_dropped == 0.0) {
        for (std::size_t t = 0; t < exact.change_probability.size(); ++t) {
          EXPECT_EQ(pruned.change_probability[t],
                    exact.change_probability[t]);
        }
      }
    }

    // last= evaluates exactly the tail window, nothing else.
    ChangepointOptions tail_opt = exact_opt;
    tail_opt.last = extra;
    Result<ChangepointReport> tail = DetectChangepoints(values, tail_opt);
    ASSERT_TRUE(tail.ok());
    EXPECT_EQ(tail->evaluated, extra);
    const std::span<const double> tail_span =
        std::span<const double>(values).subspan(values.size() - extra);
    Result<ChangepointReport> tail_direct =
        DetectChangepoints(tail_span, exact_opt);
    ASSERT_TRUE(tail_direct.ok());
    ASSERT_EQ(tail->change_probability.size(),
              tail_direct->change_probability.size());
    for (std::size_t t = 0; t < tail->change_probability.size(); ++t) {
      EXPECT_EQ(tail->change_probability[t],
                tail_direct->change_probability[t]);
    }
  });
}

TEST(ChangepointDetectionTest, LevelShiftFiresAndQuietSeriesDoesNot) {
  // Deterministic pre-fix regression: a clean level shift must produce a
  // changepoint at exactly its first shifted point, and a quiet series
  // must produce none. Pre-fix the statistic was P(run = 0 | x_1:t),
  // which the BOCPD recursion makes identically equal to the hazard —
  // the default threshold of 0.5 could never fire on any input.
  std::vector<double> quiet(64, 0.25);
  Rng rng(5);
  for (double& v : quiet) v += rng.Gaussian(0.0, 0.01);
  const ChangepointOptions opt;  // hazard 0.01, threshold 0.5
  Result<ChangepointReport> quiet_r = DetectChangepoints(quiet, opt);
  ASSERT_TRUE(quiet_r.ok()) << quiet_r.status();
  EXPECT_TRUE(quiet_r->changepoints.empty());

  std::vector<double> shifted = quiet;
  for (std::size_t i = 32; i < shifted.size(); ++i) shifted[i] += 2.0;
  Result<ChangepointReport> shifted_r = DetectChangepoints(shifted, opt);
  ASSERT_TRUE(shifted_r.ok()) << shifted_r.status();
  ASSERT_FALSE(shifted_r->changepoints.empty());
  EXPECT_EQ(shifted_r->changepoints.front().index, 32u);
  EXPECT_GT(shifted_r->changepoints.front().probability, 0.5);
}

TEST_P(AnalyticsDiffTest, ForecastMatchesBruteForceNeighborAverage) {
  ForEachSchedule(GetParam(), [](Rng* rng, const OnexBase& base,
                                 int schedule) {
    const Dataset& ds = base.dataset();
    const std::size_t series = rng->UniformIndex(ds.size());
    ForecastOptions opt;
    opt.horizon = 1 + rng->UniformIndex(3);
    opt.k = 1 + rng->UniformIndex(3);
    Result<ForecastReport> got_r = ForecastSeries(base, series, opt);

    // Oracle: resolve the same tail, scan every member exhaustively.
    const std::size_t len = ds[series].length();
    std::size_t tail_len = 0;
    for (const LengthClass& cls : base.length_classes()) {
      if (cls.length <= len) tail_len = cls.length;
    }
    ASSERT_NE(tail_len, 0u);
    const SubseqRef tail_ref{series, len - tail_len, tail_len};
    const std::span<const double> tail = tail_ref.Resolve(ds);
    Result<const LengthClass*> cls_r = base.FindLengthClass(tail_len);
    ASSERT_TRUE(cls_r.ok());
    std::vector<std::pair<double, SubseqRef>> cand;
    for (const SubseqRef& m : ClassMembers(**cls_r)) {
      if (m.end() + opt.horizon > ds[m.series].length()) continue;
      if (m.Overlaps(tail_ref)) continue;
      cand.push_back({NormalizedEuclidean(tail, m.Resolve(ds)), m});
    }
    std::sort(cand.begin(), cand.end(),
              [](const std::pair<double, SubseqRef>& a,
                 const std::pair<double, SubseqRef>& b) {
                if (a.first != b.first) return a.first < b.first;
                return a.second < b.second;
              });
    if (cand.size() > opt.k) cand.resize(opt.k);

    if (cand.empty()) {
      EXPECT_FALSE(got_r.ok());
      EXPECT_EQ(got_r.status().code(), StatusCode::kFailedPrecondition);
      return;
    }
    ASSERT_TRUE(got_r.ok()) << got_r.status();
    const ForecastReport& got = *got_r;
    EXPECT_EQ(got.tail_start, tail_ref.start);
    EXPECT_EQ(got.tail_length, tail_len);
    ASSERT_EQ(got.neighbors.size(), cand.size());
    for (std::size_t i = 0; i < cand.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].ref, cand[i].second)
          << "schedule=" << schedule << " i=" << i;
      EXPECT_EQ(got.neighbors[i].distance, cand[i].first);  // bit-exact
    }
    std::vector<double> oracle_values(opt.horizon, 0.0);
    for (const auto& [d, m] : cand) {
      const std::span<const double> src = ds[m.series].values();
      for (std::size_t j = 0; j < opt.horizon; ++j) {
        oracle_values[j] += src[m.end() + j];
      }
    }
    for (double& v : oracle_values) {
      v /= static_cast<double>(cand.size());
    }
    ASSERT_EQ(got.values.size(), oracle_values.size());
    for (std::size_t j = 0; j < oracle_values.size(); ++j) {
      EXPECT_NEAR(got.values[j], oracle_values[j], 1e-9);
    }

    // Seasonal-naive: exact repetition of the last period.
    ForecastOptions naive;
    naive.method = ForecastMethod::kSeasonalNaive;
    naive.horizon = 5;
    naive.period = 1 + rng->UniformIndex(std::min<std::size_t>(len, 4));
    Result<ForecastReport> sn = ForecastSeries(base, series, naive);
    ASSERT_TRUE(sn.ok()) << sn.status();
    EXPECT_EQ(sn->period, naive.period);
    const std::span<const double> v = ds[series].values();
    for (std::size_t j = 0; j < naive.horizon; ++j) {
      EXPECT_EQ(sn->values[j], v[len - naive.period + (j % naive.period)]);
    }
  });
}

TEST_P(AnalyticsDiffTest, ExpiredCancellationStopsEveryVerb) {
  ForEachSchedule(GetParam(), [](Rng* rng, const OnexBase& base, int) {
    const Cancellation expired(Cancellation::Clock::now() -
                                   std::chrono::milliseconds(1),
                               nullptr);
    AnomalyOptions aopt;
    aopt.cancel = &expired;
    const Result<AnomalyReport> a = DetectAnomalies(base, aopt);
    ASSERT_FALSE(a.ok());
    EXPECT_EQ(a.status().code(), StatusCode::kDeadlineExceeded);

    ChangepointOptions copt;
    copt.cancel = &expired;
    const std::vector<double> values(16, 0.5);
    const Result<ChangepointReport> c = DetectChangepoints(values, copt);
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), StatusCode::kDeadlineExceeded);

    MotifOptions mopt;
    mopt.cancel = &expired;
    const Result<MotifReport> m = FindMotifs(base, mopt);
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::kDeadlineExceeded);

    ForecastOptions fopt;
    fopt.cancel = &expired;
    const Result<ForecastReport> f =
        ForecastSeries(base, rng->UniformIndex(base.dataset().size()), fopt);
    ASSERT_FALSE(f.ok());
    EXPECT_EQ(f.status().code(), StatusCode::kDeadlineExceeded);

    // A live external-flag token flips mid-definition semantics: once the
    // flag is set, the same verbs stop with the same code.
    std::atomic<bool> gone{true};
    const Cancellation disconnected(&gone);
    ForecastOptions fopt2;
    fopt2.cancel = &disconnected;
    const Result<ForecastReport> f2 = ForecastSeries(base, 0, fopt2);
    ASSERT_FALSE(f2.ok());
    EXPECT_EQ(f2.status().code(), StatusCode::kDeadlineExceeded);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyticsDiffTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace onex
