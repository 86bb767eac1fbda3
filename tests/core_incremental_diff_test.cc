/// Differential oracle suite for streaming maintenance (DESIGN.md §12):
/// randomized schedules of ExtendSeries/AppendSeries ops, each checked
/// against two independent oracles — a from-scratch rebuild over the final
/// dataset (grouping-level agreement) and the brute-force exact scan
/// (answer-quality agreement within the paper's approximation bound). 8
/// seeds x 25 schedules = 200 schedules per run, all deterministic.
///
/// The write path's own twin: every base an extend, append or regroup
/// produces must equal OnexBase::Restore of its own memberships byte for
/// byte, and every drift it reports must equal the ComputeDrift scan.
#include "onex/core/incremental.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/baseline/brute_force.h"
#include "onex/common/random.h"
#include "onex/common/string_utils.h"
#include "onex/core/arena_layout.h"
#include "onex/core/onex_base.h"
#include "onex/core/query_processor.h"
#include "onex/distance/euclidean.h"
#include "test_util.h"

namespace onex {
namespace {

constexpr double kSt = 0.3;
constexpr std::size_t kMinLen = 4;
constexpr std::size_t kLenStep = 2;

BaseBuildOptions Options(CentroidPolicy policy) {
  BaseBuildOptions opt;
  opt.st = kSt;
  opt.min_length = kMinLen;
  opt.max_length = 0;  // dataset max: grows when tails or longer series arrive
  opt.length_step = kLenStep;
  opt.centroid_policy = policy;
  return opt;
}

/// Largest member-to-centroid normalized ED across the whole base. The
/// paper's ST bound assumes every member sits within ST/2 of its
/// representative; incremental running-mean maintenance can exceed that
/// (that excess is exactly the drift ExtendSeries reports), and the
/// provable answer bound widens with it: ans <= opt + 2 * max_radius.
/// Under kFixedLeader the invariant is exact and this returns <= ST/2.
double MaxMemberRadius(const OnexBase& base) {
  double max_d = 0.0;
  for (const LengthClass& cls : base.length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      for (const SubseqRef& ref : g.members()) {
        max_d = std::max(max_d, NormalizedEuclidean(
                                    g.centroid_span(),
                                    ref.Resolve(base.dataset())));
      }
    }
  }
  return max_d;
}

/// One randomized maintenance schedule: grows `base` (the maintained
/// structure) and `mirror` (a plain dataset) through the same ops.
void RunSchedule(Rng* rng, OnexBase* base, Dataset* mirror) {
  const std::size_t ops = 3 + rng->UniformIndex(3);
  for (std::size_t op = 0; op < ops; ++op) {
    if (rng->Bernoulli(0.35)) {
      // A whole new series joins (sometimes longer than anything before,
      // opening fresh length classes mid-schedule).
      const std::size_t len = 6 + rng->UniformIndex(9);
      TimeSeries fresh("arr_" + std::to_string(op),
                       testing::SmoothSeries(rng, len));
      Result<OnexBase> next = AppendSeries(*base, fresh);
      ASSERT_TRUE(next.ok()) << next.status();
      *base = std::move(next).value();
      mirror->Add(std::move(fresh));
    } else if (rng->Bernoulli(0.3)) {
      // Batched multi-extend: several tails in one maintenance step,
      // including duplicate targets (merged in arrival order).
      std::vector<SeriesExtension> batch;
      const std::size_t specs = 1 + rng->UniformIndex(3);
      std::vector<std::vector<double>> pending(mirror->size());
      for (std::size_t i = 0; i < specs; ++i) {
        SeriesExtension ext;
        ext.series = rng->UniformIndex(mirror->size());
        ext.points = testing::SmoothSeries(rng, 1 + rng->UniformIndex(4));
        pending[ext.series].insert(pending[ext.series].end(),
                                   ext.points.begin(), ext.points.end());
        batch.push_back(std::move(ext));
      }
      Result<ExtendResult> next = ExtendSeries(*base, batch);
      ASSERT_TRUE(next.ok()) << next.status();
      *base = std::move(next->base);
      for (std::size_t s = 0; s < pending.size(); ++s) {
        if (pending[s].empty()) continue;
        std::vector<double> values = (*mirror)[s].values();
        values.insert(values.end(), pending[s].begin(), pending[s].end());
        TimeSeries grown((*mirror)[s].name(), std::move(values),
                         (*mirror)[s].label());
        Dataset updated(mirror->name());
        for (std::size_t t = 0; t < mirror->size(); ++t) {
          updated.Add(t == s ? grown : (*mirror)[t]);
        }
        *mirror = std::move(updated);
      }
    } else {
      // Single-series point-append, the tick-by-tick streaming shape.
      const std::size_t series = rng->UniformIndex(mirror->size());
      const std::vector<double> points =
          testing::SmoothSeries(rng, 1 + rng->UniformIndex(4));
      Result<ExtendResult> next = ExtendSeries(*base, series, points);
      ASSERT_TRUE(next.ok()) << next.status();
      *base = std::move(next->base);
      std::vector<double> values = (*mirror)[series].values();
      values.insert(values.end(), points.begin(), points.end());
      TimeSeries grown((*mirror)[series].name(), std::move(values),
                       (*mirror)[series].label());
      Dataset updated(mirror->name());
      for (std::size_t t = 0; t < mirror->size(); ++t) {
        updated.Add(t == series ? grown : (*mirror)[t]);
      }
      *mirror = std::move(updated);
    }
  }
}

class IncrementalDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalDiffTest, MaintainedBaseAgreesWithRebuildAndBruteForce) {
  const std::uint64_t seed = GetParam();
  for (int schedule = 0; schedule < 25; ++schedule) {
    Rng rng(seed * 10'000 + static_cast<std::uint64_t>(schedule));
    const CentroidPolicy policy = static_cast<CentroidPolicy>(schedule % 3);
    const BaseBuildOptions opt = Options(policy);

    // Seed collection: a handful of short smooth series.
    Dataset mirror("diff");
    const std::size_t num = 3 + rng.UniformIndex(3);
    for (std::size_t s = 0; s < num; ++s) {
      mirror.Add(TimeSeries(StrFormat("s%zu", s),
                            testing::SmoothSeries(&rng,
                                                  8 + rng.UniformIndex(5))));
    }
    Result<OnexBase> built =
        OnexBase::Build(std::make_shared<const Dataset>(mirror), opt);
    ASSERT_TRUE(built.ok()) << built.status();
    OnexBase base = std::move(built).value();

    RunSchedule(&rng, &base, &mirror);
    if (::testing::Test::HasFatalFailure()) return;

    // Oracle 1: from-scratch rebuild over the final dataset. Grouping can
    // differ (insertion order matters under the leader rule), but both must
    // cover the identical subsequence space, and the maintained dataset
    // must be value-identical to the mirror.
    auto final_ds = std::make_shared<const Dataset>(mirror);
    Result<OnexBase> rebuilt_r = OnexBase::Build(final_ds, opt);
    ASSERT_TRUE(rebuilt_r.ok()) << rebuilt_r.status();
    const OnexBase& rebuilt = *rebuilt_r;

    ASSERT_EQ(base.dataset().size(), mirror.size());
    for (std::size_t s = 0; s < mirror.size(); ++s) {
      ASSERT_EQ(base.dataset()[s].length(), mirror[s].length());
      for (std::size_t i = 0; i < mirror[s].length(); ++i) {
        ASSERT_DOUBLE_EQ(base.dataset()[s][i], mirror[s][i]);
      }
    }
    const std::size_t expected_members = mirror.CountSubsequences(
        kMinLen, mirror.MaxLength(), kLenStep, /*stride=*/1);
    EXPECT_EQ(base.TotalMembers(), expected_members);
    EXPECT_EQ(rebuilt.TotalMembers(), expected_members);
    EXPECT_EQ(base.stats().num_length_classes,
              rebuilt.stats().num_length_classes);

    // Oracle 2: exact brute-force scan. Both the maintained and the rebuilt
    // base must answer within the approximation bound. The provable bound
    // is ans <= opt + 2 * max member radius (== opt + ST when the ST/2
    // invariant holds; wider exactly by the drift the maintenance reports).
    const double maintained_bound =
        std::max(kSt, 2.0 * MaxMemberRadius(base)) + 1e-9;
    const double rebuilt_bound =
        std::max(kSt, 2.0 * MaxMemberRadius(rebuilt)) + 1e-9;
    QueryProcessor maintained_qp(&base);
    QueryProcessor rebuilt_qp(&rebuilt);
    QueryOptions qopt;
    qopt.exhaustive = true;  // the mode that carries the paper's guarantee

    for (int q = 0; q < 2; ++q) {
      const std::size_t series = rng.UniformIndex(mirror.size());
      const std::size_t qlen =
          std::min<std::size_t>(kMinLen + 2 * rng.UniformIndex(3),
                                mirror[series].length());
      const std::size_t start =
          rng.UniformIndex(mirror[series].length() - qlen + 1);
      std::vector<double> query(
          mirror[series].Slice(start, qlen).begin(),
          mirror[series].Slice(start, qlen).end());
      for (double& v : query) v += rng.Gaussian(0.0, 0.05);

      ScanScope scope;
      scope.min_length = kMinLen;
      scope.max_length = mirror.MaxLength();
      scope.length_step = kLenStep;
      Result<ScanMatch> exact =
          BruteForceBestMatch(mirror, query, ScanDistance::kDtw, scope);
      ASSERT_TRUE(exact.ok()) << exact.status();

      Result<BestMatch> maintained = maintained_qp.BestMatchQuery(query, qopt);
      ASSERT_TRUE(maintained.ok()) << maintained.status();
      EXPECT_LE(maintained->normalized_dtw, exact->normalized + maintained_bound)
          << "policy=" << CentroidPolicyToString(policy)
          << " schedule=" << schedule << " q=" << q;

      Result<BestMatch> fresh = rebuilt_qp.BestMatchQuery(query, qopt);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_LE(fresh->normalized_dtw, exact->normalized + rebuilt_bound);

      // kNN via the maintained base: ascending, valid refs, top-1 equals
      // the best-match answer.
      Result<std::vector<BestMatch>> knn =
          maintained_qp.KnnQuery(query, 3, qopt);
      ASSERT_TRUE(knn.ok()) << knn.status();
      ASSERT_FALSE(knn->empty());
      EXPECT_NEAR(knn->front().normalized_dtw, maintained->normalized_dtw,
                  1e-9);
      double prev = 0.0;
      for (const BestMatch& m : *knn) {
        EXPECT_GE(m.normalized_dtw, prev - 1e-12);
        prev = m.normalized_dtw;
        ASSERT_TRUE(mirror
                        .CheckRange(m.ref.series, m.ref.start, m.ref.length)
                        .ok());
      }
    }
  }
}

/// A maintained base and a rebuild answer identically after a schedule that
/// ends in a full regroup: RegroupLengthClasses over every class re-runs
/// the exact build pipeline, so group counts per class must match the
/// from-scratch build bit for bit.
TEST_P(IncrementalDiffTest, FullRegroupConvergesToFromScratchBuild) {
  const std::uint64_t seed = GetParam();
  for (int schedule = 0; schedule < 5; ++schedule) {
    Rng rng(seed * 77'000 + static_cast<std::uint64_t>(schedule));
    const CentroidPolicy policy = static_cast<CentroidPolicy>(schedule % 3);
    const BaseBuildOptions opt = Options(policy);

    Dataset mirror("regroup");
    for (std::size_t s = 0; s < 4; ++s) {
      mirror.Add(TimeSeries(StrFormat("s%zu", s),
                            testing::SmoothSeries(&rng, 10)));
    }
    Result<OnexBase> built =
        OnexBase::Build(std::make_shared<const Dataset>(mirror), opt);
    ASSERT_TRUE(built.ok());
    OnexBase base = std::move(built).value();
    RunSchedule(&rng, &base, &mirror);
    if (::testing::Test::HasFatalFailure()) return;

    std::vector<std::size_t> all_lengths;
    for (const LengthClass& cls : base.length_classes()) {
      all_lengths.push_back(cls.length);
    }
    Result<OnexBase> regrouped_r = RegroupLengthClasses(base, all_lengths);
    ASSERT_TRUE(regrouped_r.ok()) << regrouped_r.status();
    const OnexBase& regrouped = *regrouped_r;

    Result<OnexBase> rebuilt =
        OnexBase::Build(std::make_shared<const Dataset>(mirror), opt);
    ASSERT_TRUE(rebuilt.ok());

    EXPECT_EQ(regrouped.TotalMembers(), rebuilt->TotalMembers());
    EXPECT_EQ(regrouped.TotalGroups(), rebuilt->TotalGroups());
    ASSERT_EQ(regrouped.length_classes().size(),
              rebuilt->length_classes().size());
    for (std::size_t c = 0; c < regrouped.length_classes().size(); ++c) {
      const LengthClass& a = regrouped.length_classes()[c];
      const LengthClass& b = rebuilt->length_classes()[c];
      EXPECT_EQ(a.length, b.length);
      EXPECT_EQ(a.groups.size(), b.groups.size());
      EXPECT_EQ(a.total_members, b.total_members);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDiffTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- The write path against Restore, its recompute-everything twin --------

template <typename T>
bool SameBytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// `got` must equal Restore of its own memberships: centroids, envelopes,
/// centroid envelopes, member arena and offsets bit for bit, and the same
/// BaseStats (build time aside).
void ExpectEqualsRestoreOfMemberships(const OnexBase& got,
                                      const std::string& where) {
  std::vector<LengthClassDraft> drafts;
  for (const LengthClass& cls : got.length_classes()) {
    LengthClassDraft draft;
    draft.length = cls.length;
    for (const SimilarityGroup& g : cls.groups) {
      GroupBuilder b(cls.length);
      const std::span<const MemberRef> rows = g.members().rows();
      b.SetMembers({rows.begin(), rows.end()});
      draft.groups.push_back(std::move(b));
    }
    drafts.push_back(std::move(draft));
  }
  Result<OnexBase> want_r =
      OnexBase::Restore(got.shared_dataset(), got.options(), std::move(drafts),
                        got.stats().repaired_members);
  ASSERT_TRUE(want_r.ok()) << where << ": " << want_r.status();
  const OnexBase& want = *want_r;

  EXPECT_EQ(got.stats().num_subsequences, want.stats().num_subsequences)
      << where;
  EXPECT_EQ(got.stats().num_groups, want.stats().num_groups) << where;
  EXPECT_EQ(got.stats().num_length_classes, want.stats().num_length_classes)
      << where;
  EXPECT_EQ(got.stats().repaired_members, want.stats().repaired_members)
      << where;
  ASSERT_EQ(got.length_classes().size(), want.length_classes().size())
      << where;
  for (std::size_t c = 0; c < got.length_classes().size(); ++c) {
    const LengthClass& a = got.length_classes()[c];
    const LengthClass& b = want.length_classes()[c];
    ASSERT_EQ(a.length, b.length) << where;
    ASSERT_EQ(a.total_members, b.total_members) << where;
    const GroupStore& sa = *a.store;
    const GroupStore& sb = *b.store;
    ASSERT_EQ(sa.num_groups(), sb.num_groups()) << where;
    ASSERT_EQ(a.groups.size(), sa.num_groups()) << where;
    EXPECT_TRUE(SameBytes(sa.centroid_matrix(), sb.centroid_matrix()))
        << where << " centroids, length " << a.length;
    for (std::size_t g = 0; g < sa.num_groups(); ++g) {
      EXPECT_TRUE(SameBytes(sa.envelope(g).lower, sb.envelope(g).lower) &&
                  SameBytes(sa.envelope(g).upper, sb.envelope(g).upper))
          << where << " envelope, length " << a.length << " group " << g;
      EXPECT_TRUE(SameBytes(sa.centroid_envelope(g).lower,
                            sb.centroid_envelope(g).lower) &&
                  SameBytes(sa.centroid_envelope(g).upper,
                            sb.centroid_envelope(g).upper))
          << where << " centroid envelope, length " << a.length << " group "
          << g;
      ASSERT_EQ(sa.group_size(g), sb.group_size(g)) << where;
      const MemberView ma = sa.members(g);
      const MemberView mb = sb.members(g);
      for (std::size_t m = 0; m < ma.size(); ++m) {
        EXPECT_TRUE(ma[m] == mb[m]) << where << " member " << m;
      }
    }
  }
}

/// Every drift an extend reports equals the full scan's number for the
/// same length class.
void ExpectDriftMatchesScan(const ExtendResult& result,
                            const std::string& where) {
  const std::vector<LengthClassDrift> scan = ComputeDrift(result.base);
  for (const LengthClassDrift& d : result.drift) {
    const auto it = std::find_if(
        scan.begin(), scan.end(),
        [&](const LengthClassDrift& s) { return s.length == d.length; });
    ASSERT_NE(it, scan.end()) << where << " length " << d.length;
    EXPECT_EQ(d.members, it->members) << where << " length " << d.length;
    EXPECT_EQ(d.outliers, it->outliers) << where << " length " << d.length;
  }
}

/// One random write — single-series extend, batched extend with duplicate
/// targets, append (sometimes longer than every series so far) or a
/// regroup of a random subset of lengths — checked against both twins.
void RandomWrite(Rng* rng, OnexBase* base, const std::string& where) {
  const Dataset& ds = base->dataset();
  const double pick = rng->Uniform(0.0, 1.0);
  if (pick < 0.2) {
    const std::size_t len = 5 + rng->UniformIndex(12);
    Result<OnexBase> next = AppendSeries(
        *base, TimeSeries("a", testing::SmoothSeries(rng, len)));
    ASSERT_TRUE(next.ok()) << where << ": " << next.status();
    *base = *std::move(next);
  } else if (pick < 0.35) {
    std::vector<std::size_t> lengths;
    for (const LengthClass& cls : base->length_classes()) {
      if (rng->Bernoulli(0.4)) lengths.push_back(cls.length);
    }
    if (rng->Bernoulli(0.2)) lengths.push_back(1000);  // no such class
    Result<OnexBase> next = RegroupLengthClasses(*base, lengths);
    ASSERT_TRUE(next.ok()) << where << ": " << next.status();
    *base = *std::move(next);
  } else {
    std::vector<SeriesExtension> batch;
    const std::size_t specs =
        rng->Bernoulli(0.5) ? 1 : 2 + rng->UniformIndex(3);
    for (std::size_t i = 0; i < specs; ++i) {
      SeriesExtension ext;
      // A small pool of targets makes duplicate targets common.
      ext.series = rng->UniformIndex(std::min<std::size_t>(ds.size(), 3));
      ext.points = testing::SmoothSeries(rng, 1 + rng->UniformIndex(5));
      batch.push_back(std::move(ext));
    }
    Result<ExtendResult> next = ExtendSeries(*base, batch);
    ASSERT_TRUE(next.ok()) << where << ": " << next.status();
    ExpectDriftMatchesScan(*next, where);
    *base = std::move(next->base);
  }
  ExpectEqualsRestoreOfMemberships(*base, where);
}

enum class Start { kBuild, kMaterialized, kMapped };

/// Scopings that open new classes (max_length 0), skip starts (stride > 1)
/// and skip lengths (length_step > 1).
BaseBuildOptions TwinOptions(int variant, CentroidPolicy policy) {
  BaseBuildOptions opt;
  opt.st = kSt;
  opt.min_length = 4;
  opt.centroid_policy = policy;
  switch (variant) {
    case 0:
      opt.max_length = 0;
      opt.length_step = 2;
      break;
    case 1:
      opt.max_length = 10;
      opt.stride = 2;
      break;
    default:
      opt.max_length = 0;
      opt.stride = 3;
      opt.length_step = 3;
      break;
  }
  return opt;
}

class WriteTwinTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WriteTwinTest, EveryWriteEqualsRestoreOfItsMemberships) {
  const std::uint64_t seed = GetParam();
  int schedule = 0;
  for (const Start start : {Start::kBuild, Start::kMaterialized,
                            Start::kMapped}) {
    for (int policy = 0; policy < 3; ++policy) {
      for (int variant = 0; variant < 3; ++variant, ++schedule) {
        Rng rng(seed * 31'000 + static_cast<std::uint64_t>(schedule));
        const BaseBuildOptions opt =
            TwinOptions(variant, static_cast<CentroidPolicy>(policy));
        const std::string where =
            "seed " + std::to_string(seed) + " schedule " +
            std::to_string(schedule);

        Dataset seed_ds("twin");
        const std::size_t num = 3 + rng.UniformIndex(3);
        for (std::size_t s = 0; s < num; ++s) {
          seed_ds.Add(TimeSeries(
              std::to_string(s),
              testing::SmoothSeries(&rng, 8 + rng.UniformIndex(7))));
        }
        Result<OnexBase> built = OnexBase::Build(
            std::make_shared<const Dataset>(std::move(seed_ds)), opt);
        ASSERT_TRUE(built.ok()) << where << ": " << built.status();
        OnexBase base = *std::move(built);

        if (start != Start::kBuild) {
          // A checkpoint of a Build base or of an already written one, then
          // served straight off the arena bytes, which the stores pin. The
          // two arena starts realize alike; each keeps its own schedules.
          const std::size_t before = rng.UniformIndex(3);
          for (std::size_t i = 0; i < before; ++i) {
            RandomWrite(&rng, &base, where + " pre-checkpoint");
            if (::testing::Test::HasFatalFailure()) return;
          }
          auto bytes = std::make_shared<std::string>();
          Result<std::string> encoded = EncodeArena(
              base.dataset(), NormalizationKind::kNone, {}, base);
          ASSERT_TRUE(encoded.ok()) << where << ": " << encoded.status();
          *bytes = *std::move(encoded);
          Result<ArenaView> view = ParseArena(std::as_bytes(
              std::span<const char>(bytes->data(), bytes->size())));
          ASSERT_TRUE(view.ok()) << where << ": " << view.status();
          Result<RealizedArena> realized = RealizeArena(*view, bytes);
          ASSERT_TRUE(realized.ok()) << where << ": " << realized.status();
          base = *realized->base;
        }

        const std::size_t ops = 4 + rng.UniformIndex(5);
        for (std::size_t op = 0; op < ops; ++op) {
          RandomWrite(&rng, &base, where + " op " + std::to_string(op));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteTwinTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace onex
