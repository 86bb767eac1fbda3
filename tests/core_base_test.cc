#include "onex/core/onex_base.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/distance/euclidean.h"
#include "onex/gen/generators.h"
#include "onex/ts/normalization.h"
#include "test_util.h"

namespace onex {
namespace {

std::shared_ptr<const Dataset> NormalizedWalks(std::size_t num = 8,
                                               std::size_t len = 20,
                                               std::uint64_t seed = 42) {
  gen::RandomWalkOptions opt;
  opt.num_series = num;
  opt.length = len;
  opt.seed = seed;
  Result<Dataset> norm =
      Normalize(gen::MakeRandomWalks(opt), NormalizationKind::kMinMaxDataset);
  return std::make_shared<const Dataset>(std::move(norm).value());
}

BaseBuildOptions SmallOptions() {
  BaseBuildOptions opt;
  opt.st = 0.2;
  opt.min_length = 4;
  opt.max_length = 10;
  return opt;
}

TEST(BaseBuildOptionsTest, Validation) {
  BaseBuildOptions opt;
  EXPECT_TRUE(opt.Validate().ok());
  opt.st = 0.0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = BaseBuildOptions();
  opt.st = -1.0;
  EXPECT_FALSE(opt.Validate().ok());
  opt = BaseBuildOptions();
  opt.min_length = 1;
  EXPECT_FALSE(opt.Validate().ok());
  opt = BaseBuildOptions();
  opt.max_length = 3;  // < min_length 4
  EXPECT_FALSE(opt.Validate().ok());
  opt = BaseBuildOptions();
  opt.length_step = 0;
  EXPECT_FALSE(opt.Validate().ok());
  opt = BaseBuildOptions();
  opt.stride = 0;
  EXPECT_FALSE(opt.Validate().ok());
}

TEST(OnexBaseTest, RejectsEmptyDataset) {
  auto empty = std::make_shared<const Dataset>();
  EXPECT_FALSE(OnexBase::Build(empty, SmallOptions()).ok());
  EXPECT_FALSE(OnexBase::Build(nullptr, SmallOptions()).ok());
}

TEST(OnexBaseTest, RejectsAllTooShortSeries) {
  Dataset ds("d");
  ds.Add(TimeSeries("a", {1.0, 2.0}));
  BaseBuildOptions opt = SmallOptions();
  opt.min_length = 10;
  opt.max_length = 12;
  Result<OnexBase> base =
      OnexBase::Build(std::make_shared<const Dataset>(ds), opt);
  EXPECT_FALSE(base.ok());
}

TEST(OnexBaseTest, EverySubsequenceLandsInExactlyOneGroup) {
  auto ds = NormalizedWalks();
  Result<OnexBase> base = OnexBase::Build(ds, SmallOptions());
  ASSERT_TRUE(base.ok());

  const std::size_t expected = ds->CountSubsequences(4, 10);
  EXPECT_EQ(base->TotalMembers(), expected);

  std::set<SubseqRef> seen;
  for (const LengthClass& cls : base->length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      EXPECT_FALSE(g.empty());
      for (const SubseqRef& ref : g.members()) {
        EXPECT_EQ(ref.length, cls.length);
        EXPECT_TRUE(seen.insert(ref).second)
            << ref.ToString() << " appears in two groups";
      }
    }
  }
  EXPECT_EQ(seen.size(), expected);
}

TEST(OnexBaseTest, FixedLeaderRadiusInvariantIsExact) {
  auto ds = NormalizedWalks(10, 24, 7);
  BaseBuildOptions opt = SmallOptions();
  opt.centroid_policy = CentroidPolicy::kFixedLeader;
  Result<OnexBase> base = OnexBase::Build(ds, opt);
  ASSERT_TRUE(base.ok());
  for (const LengthClass& cls : base->length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      for (const SubseqRef& ref : g.members()) {
        EXPECT_LE(NormalizedEuclidean(g.centroid_span(), ref.Resolve(*ds)),
                  opt.st / 2.0 + 1e-9);
      }
    }
  }
}

TEST(OnexBaseTest, RepairPolicyRestoresRadiusInvariant) {
  auto ds = NormalizedWalks(10, 24, 13);
  BaseBuildOptions opt = SmallOptions();
  opt.centroid_policy = CentroidPolicy::kRunningMeanRepair;
  Result<OnexBase> base = OnexBase::Build(ds, opt);
  ASSERT_TRUE(base.ok());
  for (const LengthClass& cls : base->length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      for (const SubseqRef& ref : g.members()) {
        EXPECT_LE(NormalizedEuclidean(g.centroid_span(), ref.Resolve(*ds)),
                  opt.st / 2.0 + 1e-9)
            << "repair pass left a member outside ST/2";
      }
    }
  }
  // Membership is still a partition after repair.
  EXPECT_EQ(base->TotalMembers(), ds->CountSubsequences(4, 10));
}

TEST(OnexBaseTest, PairwiseSimilarityWithinStUnderFixedLeader) {
  // Members within ST/2 of the representative are pairwise within ST by the
  // ED triangle inequality (the paper's §3.1 guarantee).
  auto ds = NormalizedWalks(6, 16, 3);
  BaseBuildOptions opt = SmallOptions();
  opt.max_length = 8;
  opt.centroid_policy = CentroidPolicy::kFixedLeader;
  Result<OnexBase> base = OnexBase::Build(ds, opt);
  ASSERT_TRUE(base.ok());
  for (const LengthClass& cls : base->length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      for (std::size_t i = 0; i < g.size(); ++i) {
        for (std::size_t j = i + 1; j < g.size(); ++j) {
          EXPECT_LE(NormalizedEuclidean(g.members()[i].Resolve(*ds),
                                        g.members()[j].Resolve(*ds)),
                    opt.st + 1e-9);
        }
      }
    }
  }
}

TEST(OnexBaseTest, CentroidIsMeanUnderRunningMeanPolicy) {
  auto ds = NormalizedWalks(5, 14, 23);
  BaseBuildOptions opt = SmallOptions();
  opt.max_length = 6;
  opt.centroid_policy = CentroidPolicy::kRunningMean;
  Result<OnexBase> base = OnexBase::Build(ds, opt);
  ASSERT_TRUE(base.ok());
  for (const LengthClass& cls : base->length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      std::vector<double> mean(cls.length, 0.0);
      for (const SubseqRef& ref : g.members()) {
        const std::span<const double> vals = ref.Resolve(*ds);
        for (std::size_t i = 0; i < cls.length; ++i) mean[i] += vals[i];
      }
      for (double& v : mean) v /= static_cast<double>(g.size());
      for (std::size_t i = 0; i < cls.length; ++i) {
        EXPECT_NEAR(g.centroid()[i], mean[i], 1e-9);
      }
    }
  }
}

TEST(OnexBaseTest, GroupEnvelopeContainsAllMembers) {
  auto ds = NormalizedWalks(6, 18, 29);
  Result<OnexBase> base = OnexBase::Build(ds, SmallOptions());
  ASSERT_TRUE(base.ok());
  for (const LengthClass& cls : base->length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      ASSERT_EQ(g.envelope().size(), cls.length);
      for (const SubseqRef& ref : g.members()) {
        const std::span<const double> vals = ref.Resolve(*ds);
        for (std::size_t i = 0; i < cls.length; ++i) {
          EXPECT_LE(g.envelope().lower[i], vals[i] + 1e-12);
          EXPECT_GE(g.envelope().upper[i], vals[i] - 1e-12);
        }
      }
    }
  }
}

TEST(OnexBaseTest, LargerThresholdYieldsFewerGroups) {
  auto ds = NormalizedWalks(10, 24, 31);
  std::size_t prev = std::numeric_limits<std::size_t>::max();
  for (const double st : {0.05, 0.15, 0.4, 1.0}) {
    BaseBuildOptions opt = SmallOptions();
    opt.st = st;
    Result<OnexBase> base = OnexBase::Build(ds, opt);
    ASSERT_TRUE(base.ok());
    EXPECT_LE(base->TotalGroups(), prev) << "st=" << st;
    prev = base->TotalGroups();
  }
}

TEST(OnexBaseTest, HugeThresholdCollapsesToOneGroupPerLength) {
  auto ds = NormalizedWalks(5, 12, 37);
  BaseBuildOptions opt = SmallOptions();
  opt.st = 1e6;
  opt.max_length = 8;
  Result<OnexBase> base = OnexBase::Build(ds, opt);
  ASSERT_TRUE(base.ok());
  for (const LengthClass& cls : base->length_classes()) {
    EXPECT_EQ(cls.groups.size(), 1u) << "length " << cls.length;
  }
  EXPECT_EQ(base->TotalGroups(), base->length_classes().size());
}

TEST(OnexBaseTest, StatsAreConsistent) {
  auto ds = NormalizedWalks();
  Result<OnexBase> base = OnexBase::Build(ds, SmallOptions());
  ASSERT_TRUE(base.ok());
  const BaseStats& stats = base->stats();
  EXPECT_EQ(stats.num_length_classes, base->length_classes().size());
  std::size_t groups = 0, members = 0;
  for (const LengthClass& cls : base->length_classes()) {
    groups += cls.groups.size();
    members += cls.total_members;
  }
  EXPECT_EQ(stats.num_groups, groups);
  EXPECT_EQ(stats.num_subsequences, members);
  EXPECT_GT(stats.build_seconds, 0.0);
  EXPECT_GT(stats.CompactionRatio(), 0.0);
  EXPECT_LE(stats.CompactionRatio(), 1.0);
}

TEST(OnexBaseTest, StrideAndLengthStepScoping) {
  auto ds = NormalizedWalks(4, 20, 41);
  BaseBuildOptions opt;
  opt.st = 0.2;
  opt.min_length = 4;
  opt.max_length = 12;
  opt.length_step = 4;  // lengths 4, 8, 12
  opt.stride = 3;
  Result<OnexBase> base = OnexBase::Build(ds, opt);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->length_classes().size(), 3u);
  EXPECT_EQ(base->TotalMembers(), ds->CountSubsequences(4, 12, 4, 3));
  for (const LengthClass& cls : base->length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      for (const SubseqRef& ref : g.members()) {
        EXPECT_EQ(ref.start % 3, 0u);  // stride respected
      }
    }
  }
}

TEST(OnexBaseTest, FindLengthClass) {
  auto ds = NormalizedWalks();
  Result<OnexBase> base = OnexBase::Build(ds, SmallOptions());
  ASSERT_TRUE(base.ok());
  Result<const LengthClass*> cls = base->FindLengthClass(5);
  ASSERT_TRUE(cls.ok());
  EXPECT_EQ((*cls)->length, 5u);
  EXPECT_EQ(base->FindLengthClass(999).status().code(), StatusCode::kNotFound);
}

TEST(OnexBaseTest, VariableLengthSeriesAreGrouped) {
  Dataset raw("ragged");
  Rng rng(51);
  raw.Add(TimeSeries("short", testing::SmoothSeries(&rng, 6)));
  raw.Add(TimeSeries("long", testing::SmoothSeries(&rng, 18)));
  Result<Dataset> norm = Normalize(raw, NormalizationKind::kMinMaxDataset);
  ASSERT_TRUE(norm.ok());
  auto ds = std::make_shared<const Dataset>(std::move(norm).value());
  BaseBuildOptions opt;
  opt.st = 0.3;
  opt.min_length = 4;
  Result<OnexBase> base = OnexBase::Build(ds, opt);
  ASSERT_TRUE(base.ok());
  // Length classes beyond 6 only contain the long series.
  Result<const LengthClass*> cls12 = base->FindLengthClass(12);
  ASSERT_TRUE(cls12.ok());
  for (const SimilarityGroup& g : (*cls12)->groups) {
    for (const SubseqRef& ref : g.members()) {
      EXPECT_EQ(ref.series, 1u);
    }
  }
  EXPECT_EQ(base->TotalMembers(), ds->CountSubsequences(4, 18));
}

TEST(OnexBaseTest, RestoreValidatesArguments) {
  auto ds = NormalizedWalks();
  const BaseBuildOptions opt = SmallOptions();
  // Null dataset.
  EXPECT_FALSE(OnexBase::Restore(nullptr, opt, {}, 0).ok());
  // No classes.
  EXPECT_FALSE(OnexBase::Restore(ds, opt, {}, 0).ok());
  // Unsorted classes.
  {
    std::vector<LengthClassDraft> classes(2);
    classes[0].length = 8;
    classes[1].length = 4;
    GroupBuilder g8(8), g4(4);
    g8.SetMembers({{0, 0}});
    g4.SetMembers({{0, 0}});
    classes[0].groups.push_back(g8);
    classes[1].groups.push_back(g4);
    EXPECT_FALSE(OnexBase::Restore(ds, opt, std::move(classes), 0).ok());
  }
  // A group's (so its members') length disagrees with its class.
  {
    std::vector<LengthClassDraft> classes(1);
    classes[0].length = 6;
    GroupBuilder g(4);
    g.SetMembers({{0, 0}});
    classes[0].groups.push_back(g);
    EXPECT_FALSE(OnexBase::Restore(ds, opt, std::move(classes), 0).ok());
  }
  // Only memberless classes: nothing to serve.
  {
    std::vector<LengthClassDraft> classes(1);
    classes[0].length = 4;
    EXPECT_FALSE(OnexBase::Restore(ds, opt, std::move(classes), 0).ok());
  }
  // A memberless class among real ones is skipped, never installed.
  {
    std::vector<LengthClassDraft> classes(3);
    classes[0].length = 4;
    classes[1].length = 5;
    classes[2].length = 6;
    GroupBuilder g4(4), g6(6);
    g4.SetMembers({{0, 0}});
    g6.SetMembers({{1, 2}});
    classes[0].groups.push_back(g4);
    classes[2].groups.push_back(g6);
    Result<OnexBase> base =
        OnexBase::Restore(ds, opt, std::move(classes), 0);
    ASSERT_TRUE(base.ok()) << base.status();
    ASSERT_EQ(base->length_classes().size(), 2u);
    EXPECT_EQ(base->length_classes()[0].length, 4u);
    EXPECT_EQ(base->length_classes()[1].length, 6u);
    EXPECT_EQ(base->TotalMembers(), 2u);
  }
}

TEST(CentroidPolicyTest, Names) {
  EXPECT_STREQ(CentroidPolicyToString(CentroidPolicy::kFixedLeader),
               "fixed-leader");
  EXPECT_STREQ(CentroidPolicyToString(CentroidPolicy::kRunningMean),
               "running-mean");
  EXPECT_STREQ(CentroidPolicyToString(CentroidPolicy::kRunningMeanRepair),
               "running-mean-repair");
  for (const CentroidPolicy policy :
       {CentroidPolicy::kFixedLeader, CentroidPolicy::kRunningMean,
        CentroidPolicy::kRunningMeanRepair}) {
    EXPECT_EQ(CentroidPolicyFromString(CentroidPolicyToString(policy)),
              policy);
  }
  for (const char* other : {"", "unknown", "Running-Mean", "running-mean "}) {
    EXPECT_FALSE(CentroidPolicyFromString(other).has_value()) << other;
  }
}

TEST(MemberRefTest, LimitCheckRefusesIndicesAndStartsPast32Bits) {
  // Sizes only: nothing of this size is ever allocated.
  constexpr std::size_t kFieldValues = std::size_t{1} << 32;
  EXPECT_TRUE(CheckMemberLimits(1, 2).ok());
  // 2^32 series index up to 2^32 - 1; a 2^32-point series starts below it.
  EXPECT_TRUE(CheckMemberLimits(kFieldValues, kFieldValues).ok());
  const Status many = CheckMemberLimits(kFieldValues + 1, 16);
  EXPECT_EQ(many.code(), StatusCode::kInvalidArgument) << many;
  EXPECT_NE(many.message().find("series"), std::string::npos) << many;
  const Status longest = CheckMemberLimits(4, kFieldValues + 1);
  EXPECT_EQ(longest.code(), StatusCode::kInvalidArgument) << longest;
  EXPECT_NE(longest.message().find("points"), std::string::npos) << longest;
  EXPECT_EQ(
      CheckMemberLimits(std::numeric_limits<std::size_t>::max(), 2).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      CheckMemberLimits(2, std::numeric_limits<std::size_t>::max()).code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(CheckMemberLimits(*NormalizedWalks()).ok());
}

TEST(MemberRefTest, MemoryUsageCountsEightBytesPerMember) {
  static_assert(sizeof(MemberRef) == 8);
  Result<OnexBase> base = OnexBase::Build(NormalizedWalks(), SmallOptions());
  ASSERT_TRUE(base.ok()) << base.status();
  for (const LengthClass& cls : base->length_classes()) {
    const GroupStore& store = *cls.store;
    const std::size_t cells = store.num_groups() * store.length();
    EXPECT_EQ(store.MemoryUsage(),
              sizeof(GroupStore) + 5 * cells * sizeof(double) +
                  (store.num_groups() + 1) * sizeof(std::size_t) +
                  store.total_members() * 8)
        << "length " << cls.length;
  }
}

TEST(MemberRefTest, MemberViewReadsBackTheBuildsSubseqRefs) {
  const auto ds = NormalizedWalks(6, 24);
  BaseBuildOptions opt = SmallOptions();
  opt.stride = 2;
  Result<OnexBase> base = OnexBase::Build(ds, opt);
  ASSERT_TRUE(base.ok()) << base.status();

  // Every subsequence the build enumerates, as the three-word refs groups
  // used to store.
  std::set<SubseqRef> want;
  for (const LengthClass& cls : base->length_classes()) {
    for (std::size_t s = 0; s < ds->size(); ++s) {
      for (std::size_t start = 0; start + cls.length <= (*ds)[s].length();
           start += opt.stride) {
        want.insert(SubseqRef{s, start, cls.length});
      }
    }
  }

  std::set<SubseqRef> got;
  for (const LengthClass& cls : base->length_classes()) {
    const GroupStore& store = *cls.store;
    for (std::size_t g = 0; g < store.num_groups(); ++g) {
      const MemberView view = store.members(g);
      ASSERT_EQ(view.size(), store.group_size(g));
      ASSERT_EQ(static_cast<std::size_t>(view.end() - view.begin()),
                view.size());
      EXPECT_TRUE(std::ranges::equal(view, cls.groups[g].members()));
      // Running-mean builds append members in enumeration order.
      EXPECT_TRUE(std::ranges::is_sorted(view));
      const std::vector<SubseqRef> by_iterator(view.begin(), view.end());
      ASSERT_EQ(by_iterator.size(), view.size());
      for (std::size_t i = 0; i < view.size(); ++i) {
        const SubseqRef ref = view[i];
        EXPECT_EQ(ref, by_iterator[i]);
        EXPECT_EQ(ref, view.begin()[static_cast<std::ptrdiff_t>(i)]);
        EXPECT_EQ(ref, *(view.end() - static_cast<std::ptrdiff_t>(
                                          view.size() - i)));
        EXPECT_EQ(ref.length, cls.length);
        EXPECT_EQ(ref.series, view.rows()[i].series);
        EXPECT_EQ(ref.start, view.rows()[i].start);
        EXPECT_TRUE(got.insert(ref).second) << ref.ToString() << " twice";
      }
      EXPECT_EQ(view.front(), view[0]);
    }
  }
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace onex
