/// Property suite for the streaming-maintenance invariants (DESIGN.md §12):
/// after arbitrary randomized extend sequences — including lengths the base
/// has never seen and extends that land on a mapped (demoted) slot — the
/// leader-rule ST/2 invariant (exact under kFixedLeader), group-envelope
/// containment (what makes LbKeoghGroup admissible over every member), the
/// membership partition and the drift accounting all hold.
#include "onex/core/incremental.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/common/string_utils.h"
#include "onex/core/onex_base.h"
#include "onex/core/query_processor.h"
#include "onex/distance/envelope.h"
#include "onex/distance/euclidean.h"
#include "onex/engine/engine.h"
#include "onex/ts/normalization.h"
#include "test_util.h"

namespace onex {
namespace {

BaseBuildOptions Options(CentroidPolicy policy, double st = 0.25) {
  BaseBuildOptions opt;
  opt.st = st;
  opt.min_length = 4;
  opt.max_length = 0;
  opt.length_step = 2;
  opt.centroid_policy = policy;
  return opt;
}

OnexBase MakeBase(Rng* rng, CentroidPolicy policy, std::size_t num = 5,
                  std::size_t len = 12) {
  Dataset ds("maint");
  for (std::size_t s = 0; s < num; ++s) {
    ds.Add(TimeSeries(StrFormat("s%zu", s),
                      testing::SmoothSeries(rng, len)));
  }
  return std::move(OnexBase::Build(std::make_shared<const Dataset>(std::move(ds)),
                                   Options(policy)))
      .value();
}

/// Applies a random extend schedule, returning the final base.
OnexBase RandomExtends(Rng* rng, OnexBase base, std::size_t ops) {
  for (std::size_t op = 0; op < ops; ++op) {
    std::vector<SeriesExtension> batch;
    const std::size_t specs = 1 + rng->UniformIndex(2);
    for (std::size_t i = 0; i < specs; ++i) {
      SeriesExtension ext;
      ext.series = rng->UniformIndex(base.dataset().size());
      ext.points = testing::SmoothSeries(rng, 1 + rng->UniformIndex(5));
      batch.push_back(std::move(ext));
    }
    Result<ExtendResult> next = ExtendSeries(base, batch);
    base = std::move(next.value().base);
  }
  return base;
}

/// The membership partition: every admissible subsequence grouped exactly
/// once, refs valid against the dataset.
void CheckPartition(const OnexBase& base) {
  std::set<SubseqRef> seen;
  for (const LengthClass& cls : base.length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      for (const SubseqRef& ref : g.members()) {
        ASSERT_TRUE(base.dataset()
                        .CheckRange(ref.series, ref.start, ref.length)
                        .ok())
            << ref.ToString();
        EXPECT_EQ(ref.length, cls.length);
        EXPECT_TRUE(seen.insert(ref).second) << ref.ToString();
      }
    }
  }
  EXPECT_EQ(seen.size(), base.TotalMembers());
  EXPECT_EQ(base.TotalMembers(),
            base.dataset().CountSubsequences(
                base.options().min_length, base.dataset().MaxLength(),
                base.options().length_step, base.options().stride));
}

/// Group-envelope containment: every member's values lie pointwise inside
/// the group's min/max envelope — the property that makes one LbKeoghGroup
/// evaluation an admissible bound for every member (DESIGN.md §7.3).
void CheckEnvelopeContainment(const OnexBase& base) {
  for (const LengthClass& cls : base.length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      const EnvelopeView env = g.envelope();
      for (const SubseqRef& ref : g.members()) {
        const std::span<const double> vals = ref.Resolve(base.dataset());
        for (std::size_t i = 0; i < cls.length; ++i) {
          EXPECT_LE(env.lower[i], vals[i] + 1e-12) << ref.ToString();
          EXPECT_GE(env.upper[i], vals[i] - 1e-12) << ref.ToString();
        }
      }
    }
  }
}

class MaintenancePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MaintenancePropertyTest, FixedLeaderInvariantSurvivesExtendSchedules) {
  Rng rng(GetParam());
  OnexBase base = MakeBase(&rng, CentroidPolicy::kFixedLeader);
  base = RandomExtends(&rng, std::move(base), 6);

  const double radius = base.options().st / 2.0;
  for (const LengthClass& cls : base.length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      for (const SubseqRef& ref : g.members()) {
        EXPECT_LE(NormalizedEuclidean(g.centroid_span(),
                                      ref.Resolve(base.dataset())),
                  radius + 1e-9)
            << ref.ToString();
      }
    }
  }
  // The exact invariant means zero drift, and the report must agree.
  for (const LengthClassDrift& d : ComputeDrift(base)) {
    EXPECT_EQ(d.outliers, 0u) << "length " << d.length;
  }
  CheckPartition(base);
}

TEST_P(MaintenancePropertyTest, EnvelopesContainEveryMemberForAllPolicies) {
  for (const CentroidPolicy policy :
       {CentroidPolicy::kFixedLeader, CentroidPolicy::kRunningMean,
        CentroidPolicy::kRunningMeanRepair}) {
    Rng rng(GetParam() + static_cast<std::uint64_t>(policy) * 97);
    OnexBase base = MakeBase(&rng, policy);
    base = RandomExtends(&rng, std::move(base), 5);
    CheckEnvelopeContainment(base);
    CheckPartition(base);
  }
}

TEST_P(MaintenancePropertyTest, ExtendPastEveryKnownLengthOpensFreshClasses) {
  Rng rng(GetParam() + 31);
  OnexBase base = MakeBase(&rng, CentroidPolicy::kRunningMean, 4, 10);
  const std::size_t old_max = base.dataset().MaxLength();
  ASSERT_FALSE(base.FindLengthClass(old_max + 2).ok());

  // Grow one series far past anything the base has seen: classes for the
  // new lengths appear, hold only that series' tail subsequences, and every
  // invariant still holds.
  const std::size_t target = rng.UniformIndex(base.dataset().size());
  Result<ExtendResult> grown =
      ExtendSeries(base, target, testing::SmoothSeries(&rng, 8));
  ASSERT_TRUE(grown.ok()) << grown.status();
  base = std::move(grown->base);

  Result<const LengthClass*> fresh = base.FindLengthClass(old_max + 2);
  ASSERT_TRUE(fresh.ok());
  for (const SimilarityGroup& g : (*fresh)->groups) {
    for (const SubseqRef& ref : g.members()) {
      EXPECT_EQ(ref.series, target);
    }
  }
  // The extend reported the classes it touched, fresh lengths included.
  bool reported = false;
  for (const LengthClassDrift& d : grown->drift) {
    reported = reported || d.length == old_max + 2;
  }
  EXPECT_TRUE(reported);
  CheckPartition(base);
  CheckEnvelopeContainment(base);
}

TEST_P(MaintenancePropertyTest, RegroupPreservesPartitionAndRestoresInvariant) {
  for (const CentroidPolicy policy :
       {CentroidPolicy::kFixedLeader, CentroidPolicy::kRunningMean}) {
    Rng rng(GetParam() + 59);
    OnexBase base = MakeBase(&rng, policy);
    base = RandomExtends(&rng, std::move(base), 6);
    const std::size_t members_before = base.TotalMembers();

    std::vector<std::size_t> lengths;
    for (const LengthClass& cls : base.length_classes()) {
      lengths.push_back(cls.length);
    }
    Result<OnexBase> regrouped = RegroupLengthClasses(base, lengths);
    ASSERT_TRUE(regrouped.ok()) << regrouped.status();

    EXPECT_EQ(regrouped->TotalMembers(), members_before);
    CheckPartition(*regrouped);
    CheckEnvelopeContainment(*regrouped);
    if (policy == CentroidPolicy::kFixedLeader) {
      for (const LengthClassDrift& d : ComputeDrift(*regrouped)) {
        EXPECT_EQ(d.outliers, 0u);
      }
    }
  }
}

TEST_P(MaintenancePropertyTest, ExtendWhileMappedMatchesResidentTwin) {
  // The registry path: a base served off its mapped checkpoint receives
  // tail points that also open lengths it never saw. The extend must fold
  // them in with the frozen normalization, the promoted base must satisfy
  // every maintenance invariant, and raw values, normalized values,
  // normalization parameters and an exhaustive MATCH on the tail must match
  // a twin that never left memory bit for bit — live and after a restart.
  Rng rng(GetParam() + 83);
  Dataset ds("live");
  for (std::size_t s = 0; s < 4; ++s) {
    ds.Add(TimeSeries("feed_" + std::to_string(s),
                      testing::SmoothSeries(&rng, 12)));
  }
  // 8 points keep 12 + 8 = 20 on the build's step-2 length grid.
  const std::vector<double> tail = testing::SmoothSeries(&rng, 8);
  const BaseBuildOptions opt = Options(CentroidPolicy::kFixedLeader);
  QuerySpec spec;
  spec.series = 0;
  spec.start = 12;
  spec.length = tail.size();

  const auto transcript = [&](Engine& engine) {
    Result<std::shared_ptr<const PreparedDataset>> snap = engine.Get("live");
    EXPECT_TRUE(snap.ok()) << snap.status();
    if (!snap.ok() || !(*snap)->prepared()) return std::string("<unprepared>");
    std::string out = testing::NormalizationTranscript(
        *(*snap)->raw, *(*snap)->normalized, (*snap)->norm_params);
    QueryOptions qopt;
    qopt.exhaustive = true;
    Result<MatchResult> match = engine.SimilaritySearch("live", spec, qopt);
    EXPECT_TRUE(match.ok()) << match.status();
    if (!match.ok()) return out;
    EXPECT_NEAR(match->match.normalized_dtw, 0.0, 1e-9);
    return out + match->match.ref.ToString() +
           StrFormat(":%.17g", match->match.dtw);
  };

  Engine twin;
  ASSERT_TRUE(twin.LoadDataset("live", ds).ok());
  ASSERT_TRUE(twin.Prepare("live", opt).ok());
  ASSERT_TRUE(twin.ExtendSeries("live", 0, tail).ok());
  const std::string expected = transcript(twin);

  DurabilityOptions durability;
  durability.dir = ::testing::TempDir() + "/onex_maint_prop_" +
                   std::to_string(GetParam());
  durability.checkpoint_every = 0;
  durability.fsync = false;
  std::filesystem::remove_all(durability.dir);
  {
    Engine engine;
    ASSERT_TRUE(engine.EnableDurability(durability).ok());
    ASSERT_TRUE(engine.LoadDataset("live", ds).ok());
    ASSERT_TRUE(engine.Prepare("live", opt).ok());
    ASSERT_TRUE(engine.registry().Checkpoint("live").ok());
    ASSERT_TRUE(engine.registry().Demote("live").ok());
    ASSERT_EQ(*engine.registry().Tier("live"), "mapped");

    Result<Engine::ExtendSummary> summary =
        engine.ExtendSeries("live", 0, tail);
    ASSERT_TRUE(summary.ok()) << summary.status();
    EXPECT_EQ(summary->points_appended, tail.size());
    EXPECT_GT(summary->new_members, 0u);  // the mapped base grouped them
    EXPECT_EQ(*engine.registry().Tier("live"), "resident");

    Result<std::shared_ptr<const PreparedDataset>> prepared =
        engine.Get("live");
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    const OnexBase& base = *(*prepared)->base;
    EXPECT_EQ(base.dataset()[0].length(), 12u + tail.size());
    CheckPartition(base);
    CheckEnvelopeContainment(base);
    ASSERT_TRUE(base.FindLengthClass(12 + tail.size()).ok());

    // The normalized tail is the frozen parameters applied to the raw
    // points, exactly.
    const NormalizationParams& params = (*prepared)->norm_params;
    const TimeSeries& norm0 = (*(*prepared)->normalized)[0];
    for (std::size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(norm0[12 + i], NormalizeValue(params, 0, tail[i]));
    }
    EXPECT_EQ(transcript(engine), expected);
  }
  Engine restarted;
  ASSERT_TRUE(restarted.EnableDurability(durability).ok());
  EXPECT_EQ(transcript(restarted), expected);
  std::filesystem::remove_all(durability.dir);
}

/// Regression: a length grid that outruns the data (explicit max_length and
/// stride leaving grid lengths with zero subsequences) must never install a
/// 0-member length class, and the drift report over such a base must stay
/// finite — a 0-member class reports fraction 0.0, never NaN or inf.
TEST(DriftEmptyClassTest, LengthGridBeyondTheDataStaysFinite) {
  Rng rng(7);
  Dataset ds("sparse");
  ds.Add(TimeSeries("short_a", testing::SmoothSeries(&rng, 8)));
  ds.Add(TimeSeries("short_b", testing::SmoothSeries(&rng, 9)));

  BaseBuildOptions opt;
  opt.st = 0.25;
  opt.min_length = 4;
  opt.max_length = 24;  // grid lengths 10..24 have no subsequences at all
  opt.length_step = 2;
  opt.stride = 3;
  Result<OnexBase> built =
      OnexBase::Build(std::make_shared<const Dataset>(std::move(ds)), opt);
  ASSERT_TRUE(built.ok()) << built.status();
  const OnexBase& base = *built;

  for (const LengthClass& cls : base.length_classes()) {
    EXPECT_GT(cls.total_members, 0u) << "length " << cls.length;
    EXPECT_LE(cls.length, 9u);
  }
  const std::vector<LengthClassDrift> drift = ComputeDrift(base);
  EXPECT_EQ(drift.size(), base.length_classes().size());
  for (const LengthClassDrift& d : drift) {
    EXPECT_GE(d.members, 1u);
    EXPECT_TRUE(std::isfinite(d.fraction())) << "length " << d.length;
    EXPECT_GE(d.fraction(), 0.0);
    EXPECT_LE(d.fraction(), 1.0);
  }

  // Belt assert on the accessor itself: the 0-member case is defined as
  // exactly 0.0, not 0/0.
  LengthClassDrift empty;
  empty.length = 24;
  EXPECT_EQ(empty.fraction(), 0.0);
  empty.outliers = 3;  // inconsistent input still must not divide by zero
  EXPECT_EQ(empty.fraction(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenancePropertyTest,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace onex
