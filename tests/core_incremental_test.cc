#include "onex/core/incremental.h"

#include <cstddef>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/core/arena_layout.h"
#include "onex/core/query_processor.h"
#include "onex/distance/euclidean.h"
#include "onex/gen/generators.h"
#include "onex/ts/normalization.h"
#include "test_util.h"

namespace onex {
namespace {

OnexBase MakeBase(std::size_t num = 6, std::size_t len = 16,
                  CentroidPolicy policy = CentroidPolicy::kRunningMean) {
  gen::SineFamilyOptions gopt;
  gopt.num_series = num;
  gopt.length = len;
  gopt.seed = 42;
  Result<Dataset> norm = Normalize(gen::MakeSineFamilies(gopt),
                                   NormalizationKind::kMinMaxDataset);
  auto ds = std::make_shared<const Dataset>(std::move(norm).value());
  BaseBuildOptions opt;
  opt.st = 0.2;
  opt.min_length = 4;
  opt.max_length = 0;  // dataset max: grows when a longer series arrives
  opt.length_step = 2;
  opt.centroid_policy = policy;
  return std::move(OnexBase::Build(ds, opt)).value();
}

TEST(IncrementalTest, AppendExtendsCoverage) {
  const OnexBase base = MakeBase();
  const std::size_t before_members = base.TotalMembers();

  Rng rng(7);
  TimeSeries fresh("fresh", testing::SmoothSeries(&rng, 16));
  Result<OnexBase> extended = AppendSeries(base, fresh);
  ASSERT_TRUE(extended.ok()) << extended.status();

  EXPECT_EQ(extended->dataset().size(), base.dataset().size() + 1);
  // Every subsequence of the extended dataset (per scoping) is a member.
  EXPECT_EQ(extended->TotalMembers(),
            extended->dataset().CountSubsequences(4, 16, 2, 1));
  EXPECT_GT(extended->TotalMembers(), before_members);

  // Membership is still a partition.
  std::set<SubseqRef> seen;
  for (const LengthClass& cls : extended->length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      for (const SubseqRef& ref : g.members()) {
        EXPECT_TRUE(seen.insert(ref).second);
      }
    }
  }
  EXPECT_EQ(seen.size(), extended->TotalMembers());
}

TEST(IncrementalTest, OriginalBaseIsUntouched) {
  const OnexBase base = MakeBase();
  const std::size_t groups_before = base.TotalGroups();
  const std::size_t members_before = base.TotalMembers();
  Rng rng(11);
  Result<OnexBase> extended =
      AppendSeries(base, TimeSeries("x", testing::SmoothSeries(&rng, 16)));
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(base.TotalGroups(), groups_before);
  EXPECT_EQ(base.TotalMembers(), members_before);
  EXPECT_EQ(base.dataset().size(), 6u);
}

TEST(IncrementalTest, LongerSeriesCreatesNewLengthClasses) {
  const OnexBase base = MakeBase();  // max length 16
  EXPECT_FALSE(base.FindLengthClass(20).ok());
  Rng rng(13);
  Result<OnexBase> extended =
      AppendSeries(base, TimeSeries("long", testing::SmoothSeries(&rng, 20)));
  ASSERT_TRUE(extended.ok());
  // New classes for lengths 18 and 20 (step 2), holding only the new series.
  Result<const LengthClass*> cls20 = extended->FindLengthClass(20);
  ASSERT_TRUE(cls20.ok());
  for (const SimilarityGroup& g : (*cls20)->groups) {
    for (const SubseqRef& ref : g.members()) {
      EXPECT_EQ(ref.series, 6u);
    }
  }
  // Length classes remain sorted.
  std::size_t prev = 0;
  for (const LengthClass& cls : extended->length_classes()) {
    EXPECT_GT(cls.length, prev);
    prev = cls.length;
  }
}

TEST(IncrementalTest, FixedLeaderInvariantHoldsAfterAppend) {
  const OnexBase base = MakeBase(6, 16, CentroidPolicy::kFixedLeader);
  Rng rng(17);
  Result<OnexBase> extended =
      AppendSeries(base, TimeSeries("y", testing::SmoothSeries(&rng, 16)));
  ASSERT_TRUE(extended.ok());
  const double radius = extended->options().st / 2.0;
  for (const LengthClass& cls : extended->length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      for (const SubseqRef& ref : g.members()) {
        EXPECT_LE(NormalizedEuclidean(g.centroid_span(),
                                      ref.Resolve(extended->dataset())),
                  radius + 1e-9);
      }
    }
  }
}

TEST(IncrementalTest, AppendedSubsequencesAreQueryable) {
  const OnexBase base = MakeBase();
  Rng rng(23);
  const std::vector<double> values = testing::SmoothSeries(&rng, 16);
  Result<OnexBase> extended =
      AppendSeries(base, TimeSeries("target", values));
  ASSERT_TRUE(extended.ok());

  QueryProcessor qp(&*extended);
  // Query a subsequence of the appended series: exhaustive search finds it
  // exactly (distance 0 at its own position).
  const std::span<const double> q =
      extended->dataset()[6].Slice(4, 8);
  QueryOptions opt;
  opt.exhaustive = true;
  Result<BestMatch> m = qp.BestMatchQuery(q, opt);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->normalized_dtw, 0.0, 1e-9);
}

TEST(IncrementalTest, ChainedAppendsMatchDatasetGrowth) {
  OnexBase base = MakeBase();
  Rng rng(29);
  for (int i = 0; i < 3; ++i) {
    Result<OnexBase> next = AppendSeries(
        base, TimeSeries("extra_" + std::to_string(i),
                         testing::SmoothSeries(&rng, 16)));
    ASSERT_TRUE(next.ok());
    base = std::move(next).value();
  }
  EXPECT_EQ(base.dataset().size(), 9u);
  EXPECT_EQ(base.TotalMembers(),
            base.dataset().CountSubsequences(4, 16, 2, 1));
}

TEST(IncrementalTest, RunningMeanCentroidsStayExactMeans) {
  const OnexBase base = MakeBase();
  Rng rng(31);
  Result<OnexBase> extended =
      AppendSeries(base, TimeSeries("z", testing::SmoothSeries(&rng, 16)));
  ASSERT_TRUE(extended.ok());
  for (const LengthClass& cls : extended->length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      std::vector<double> mean(cls.length, 0.0);
      for (const SubseqRef& ref : g.members()) {
        const std::span<const double> vals = ref.Resolve(extended->dataset());
        for (std::size_t i = 0; i < cls.length; ++i) mean[i] += vals[i];
      }
      for (double& v : mean) v /= static_cast<double>(g.size());
      for (std::size_t i = 0; i < cls.length; ++i) {
        EXPECT_NEAR(g.centroid()[i], mean[i], 1e-9);
      }
    }
  }
}

TEST(IncrementalTest, RejectsDegenerateSeries) {
  const OnexBase base = MakeBase();
  EXPECT_FALSE(AppendSeries(base, TimeSeries("tiny", {1.0})).ok());
  EXPECT_FALSE(AppendSeries(base, TimeSeries("empty", {})).ok());
}

TEST(IncrementalTest, ShortSeriesOnlyJoinsAdmissibleLengths) {
  const OnexBase base = MakeBase();
  Rng rng(37);
  // A 6-point series participates only in length classes 4 and 6.
  Result<OnexBase> extended =
      AppendSeries(base, TimeSeries("short", testing::SmoothSeries(&rng, 6)));
  ASSERT_TRUE(extended.ok());
  for (const LengthClass& cls : extended->length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      for (const SubseqRef& ref : g.members()) {
        if (ref.series == 6) {
          EXPECT_LE(cls.length, 6u);
        }
      }
    }
  }
}

// --- Writes pay for the groups they change --------------------------------

/// Groups of `next` that a write from `prev` had to recompute: every group
/// of a class `prev` lacks, and in the others every group that grew or is
/// new (group order is stable, so index g names the same group in both).
std::size_t ChangedGroups(const OnexBase& prev, const OnexBase& next) {
  std::size_t changed = 0;
  for (const LengthClass& cls : next.length_classes()) {
    Result<const LengthClass*> old = prev.FindLengthClass(cls.length);
    for (std::size_t g = 0; g < cls.groups.size(); ++g) {
      if (!old.ok() || g >= (*old)->groups.size() ||
          (*old)->groups[g].size() != cls.groups[g].size()) {
        ++changed;
      }
    }
  }
  return changed;
}

/// Classes of `next` that still hold `prev`'s store for their length.
std::set<std::size_t> SharedClasses(const OnexBase& prev,
                                    const OnexBase& next) {
  std::set<std::size_t> shared;
  for (const LengthClass& cls : next.length_classes()) {
    Result<const LengthClass*> old = prev.FindLengthClass(cls.length);
    if (old.ok() && (*old)->store.get() == cls.store.get()) {
      shared.insert(cls.length);
    }
  }
  return shared;
}

/// Six 16-point series and a 7-point one: extending the short series
/// touches only the classes up to its new length.
OnexBase MakeExactBaseWithShortSeries() {
  const OnexBase built = MakeBase();
  EXPECT_FALSE(built.centroids_exact());
  Rng rng(41);
  Result<OnexBase> written =
      AppendSeries(built, TimeSeries("short", testing::SmoothSeries(&rng, 7)));
  EXPECT_TRUE(written.ok()) << written.status();
  EXPECT_TRUE(written->centroids_exact());
  return *std::move(written);
}

TEST(IncrementalDeltaTest, ExtendRecomputesOnlyTheGroupsThatChanged) {
  OnexBase base = MakeExactBaseWithShortSeries();
  Rng rng(43);
  for (int tick = 0; tick < 6; ++tick) {
    const std::vector<double> points = testing::SmoothSeries(&rng, 1);
    Result<ExtendResult> next = ExtendSeries(base, /*series_id=*/6, points);
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_EQ(next->groups_recomputed, ChangedGroups(base, next->base))
        << "tick " << tick;
    EXPECT_LT(next->groups_recomputed, next->base.TotalGroups());

    // A class with no new member is shared, store and all; a class that
    // gained members has a new store.
    const std::size_t new_len = next->base.dataset()[6].length();
    const std::set<std::size_t> shared = SharedClasses(base, next->base);
    for (const LengthClass& cls : next->base.length_classes()) {
      EXPECT_EQ(shared.contains(cls.length), cls.length > new_len)
          << "tick " << tick << " length " << cls.length;
    }
    EXPECT_TRUE(next->base.centroids_exact());
    base = std::move(next->base);
  }
}

TEST(IncrementalDeltaTest, RegroupKeepsTheStoresOfClassesItDidNotName) {
  const OnexBase base = MakeExactBaseWithShortSeries();
  const std::vector<std::size_t> named = {4, 10};
  Result<OnexBase> regrouped = RegroupLengthClasses(base, named);
  ASSERT_TRUE(regrouped.ok()) << regrouped.status();
  EXPECT_TRUE(regrouped->centroids_exact());
  const std::set<std::size_t> shared = SharedClasses(base, *regrouped);
  for (const LengthClass& cls : regrouped->length_classes()) {
    EXPECT_EQ(shared.contains(cls.length), cls.length != 4 && cls.length != 10)
        << "length " << cls.length;
  }
}

TEST(IncrementalDeltaTest, FirstWriteAfterBuildRecomputesEveryGroup) {
  for (const CentroidPolicy policy :
       {CentroidPolicy::kFixedLeader, CentroidPolicy::kRunningMean,
        CentroidPolicy::kRunningMeanRepair}) {
    const OnexBase built = MakeBase(6, 16, policy);
    const std::vector<double> points = {0.5, 0.4};
    Result<ExtendResult> next = ExtendSeries(built, 0, points);
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_EQ(next->groups_recomputed, next->base.TotalGroups());
    EXPECT_TRUE(SharedClasses(built, next->base).empty());

    // A regroup straight after Build recomputes its other classes too.
    const std::vector<std::size_t> named = {4};
    Result<OnexBase> regrouped = RegroupLengthClasses(built, named);
    ASSERT_TRUE(regrouped.ok()) << regrouped.status();
    EXPECT_TRUE(SharedClasses(built, *regrouped).empty());
  }
}

TEST(IncrementalDeltaTest, FirstWriteAfterArenaLoadRecomputesEveryGroup) {
  const OnexBase exact = MakeExactBaseWithShortSeries();
  auto bytes = std::make_shared<std::string>();
  Result<std::string> encoded =
      EncodeArena(exact.dataset(), NormalizationKind::kNone, {}, exact);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  *bytes = *std::move(encoded);
  Result<ArenaView> view = ParseArena(
      std::as_bytes(std::span<const char>(bytes->data(), bytes->size())));
  ASSERT_TRUE(view.ok()) << view.status();
  Result<RealizedArena> loaded = RealizeArena(*view, bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const OnexBase& base = *loaded->base;
  EXPECT_FALSE(base.centroids_exact());
  const std::vector<double> points = {0.5};
  Result<ExtendResult> next = ExtendSeries(base, 6, points);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->groups_recomputed, next->base.TotalGroups());
  EXPECT_TRUE(SharedClasses(base, next->base).empty());
  // No span of the written base points into the arena.
  const auto in_arena = [&](const void* p) {
    const char* c = static_cast<const char*>(p);
    return c >= bytes->data() && c < bytes->data() + bytes->size();
  };
  for (const LengthClass& cls : next->base.length_classes()) {
    const GroupStore& store = *cls.store;
    for (std::size_t g = 0; g < store.num_groups(); ++g) {
      EXPECT_FALSE(in_arena(store.centroid(g).data()));
      EXPECT_FALSE(in_arena(store.envelope(g).lower.data()));
      EXPECT_FALSE(in_arena(store.envelope(g).upper.data()));
      EXPECT_FALSE(in_arena(store.centroid_envelope(g).lower.data()));
      EXPECT_FALSE(in_arena(store.centroid_envelope(g).upper.data()));
      EXPECT_FALSE(in_arena(store.members(g).rows().data()));
    }
  }
}

TEST(IncrementalDeltaTest, TrackedDriftEqualsTheScan) {
  for (const CentroidPolicy policy :
       {CentroidPolicy::kFixedLeader, CentroidPolicy::kRunningMean,
        CentroidPolicy::kRunningMeanRepair}) {
    OnexBase base = MakeBase(6, 16, policy);
    Rng rng(47);
    for (int op = 0; op < 12; ++op) {
      if (op % 4 == 3) {
        const std::vector<std::size_t> named = {6, 8};
        Result<OnexBase> next = RegroupLengthClasses(base, named);
        ASSERT_TRUE(next.ok()) << next.status();
        base = *std::move(next);
      } else {
        const std::vector<double> points =
            testing::SmoothSeries(&rng, 1 + rng.UniformIndex(3));
        Result<ExtendResult> next =
            ExtendSeries(base, rng.UniformIndex(6), points);
        ASSERT_TRUE(next.ok()) << next.status();
        base = std::move(next->base);
      }
      const std::vector<LengthClassDrift> tracked = TrackedDrift(base);
      const std::vector<LengthClassDrift> scan = ComputeDrift(base);
      ASSERT_EQ(tracked.size(), scan.size());
      for (std::size_t c = 0; c < scan.size(); ++c) {
        EXPECT_EQ(tracked[c].length, scan[c].length);
        EXPECT_EQ(tracked[c].members, scan[c].members);
        EXPECT_EQ(tracked[c].outliers, scan[c].outliers)
            << CentroidPolicyToString(policy) << " op " << op;
      }
    }
  }
}

}  // namespace
}  // namespace onex
