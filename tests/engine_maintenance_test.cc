/// Engine/registry layer of the streaming-maintenance subsystem
/// (DESIGN.md §12): ExtendSeries summaries, batched multi-extend, the
/// drift-triggered background regroup with its ticket lifecycle, the
/// frozen-normalization contract on a mapped slot against a resident twin,
/// and the acceptance property that a query running concurrently with a
/// regroup never observes a torn snapshot (run under TSan in CI).
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/core/incremental.h"
#include "onex/engine/engine.h"
#include "test_util.h"

namespace onex {
namespace {

constexpr char kName[] = "feed";

BaseBuildOptions Opt(CentroidPolicy policy = CentroidPolicy::kRunningMean) {
  BaseBuildOptions opt;
  opt.st = 0.25;
  opt.min_length = 4;
  opt.max_length = 0;
  opt.length_step = 2;
  opt.centroid_policy = policy;
  return opt;
}

void LoadAndPrepare(Engine* engine, std::size_t num = 6, std::size_t len = 14,
                    CentroidPolicy policy = CentroidPolicy::kRunningMean) {
  ASSERT_TRUE(
      engine->LoadDataset(kName, testing::SmallDataset(num, len, 7)).ok());
  ASSERT_TRUE(engine->Prepare(kName, Opt(policy)).ok());
}

/// A fresh durability root under the test temp dir.
DurabilityOptions FreshDurability(const std::string& tag) {
  DurabilityOptions opt;
  opt.dir = ::testing::TempDir() + "/onex_maintenance_" + tag;
  opt.checkpoint_every = 0;
  opt.fsync = false;
  std::filesystem::remove_all(opt.dir);
  return opt;
}

/// Checkpoints the slot and swaps its base for the mapped arena, so the next
/// write lands on a mapped slot.
void CheckpointAndDemote(Engine* engine) {
  ASSERT_TRUE(engine->registry().Checkpoint(kName).ok());
  ASSERT_TRUE(engine->registry().Demote(kName).ok());
  Result<std::string> tier = engine->registry().Tier(kName);
  ASSERT_TRUE(tier.ok());
  ASSERT_EQ(*tier, "mapped");
}

/// The slot's frozen-normalization contract (raw and normalized values,
/// normalization parameters) plus an exhaustive MATCH of `tail`, which must
/// find itself at distance zero. String-equal transcripts = same bits.
std::string ContractTranscript(Engine& engine, const QuerySpec& tail) {
  Result<std::shared_ptr<const PreparedDataset>> snap = engine.Get(kName);
  EXPECT_TRUE(snap.ok()) << snap.status();
  if (!snap.ok() || !(*snap)->prepared()) return "<unprepared>";
  std::string out = testing::NormalizationTranscript(
      *(*snap)->raw, *(*snap)->normalized, (*snap)->norm_params);
  QueryOptions exhaustive;
  exhaustive.exhaustive = true;
  Result<MatchResult> m = engine.SimilaritySearch(kName, tail, exhaustive);
  EXPECT_TRUE(m.ok()) << m.status();
  if (!m.ok()) return out;
  EXPECT_NEAR(m->match.normalized_dtw, 0.0, 1e-9);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%zu.%zu.%zu:%.17g", m->match.ref.series,
                m->match.ref.start, m->match.ref.length, m->match.dtw);
  return out + buf;
}

TEST(EngineMaintenanceTest, ExtendSummaryCountsMatchSubsequenceGrowth) {
  Engine engine;
  LoadAndPrepare(&engine);
  Result<std::shared_ptr<const PreparedDataset>> before = engine.Get(kName);
  ASSERT_TRUE(before.ok());
  const std::size_t members_before = (*before)->base->TotalMembers();
  const std::size_t count_before = (*before)->normalized->CountSubsequences(
      4, (*before)->normalized->MaxLength(), 2, 1);

  Rng rng(3);
  Result<Engine::ExtendSummary> summary =
      engine.ExtendSeries(kName, 2, testing::SmoothSeries(&rng, 4));
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->series_extended, 1u);
  EXPECT_EQ(summary->points_appended, 4u);

  Result<std::shared_ptr<const PreparedDataset>> after = engine.Get(kName);
  ASSERT_TRUE(after.ok());
  const std::size_t count_after = (*after)->normalized->CountSubsequences(
      4, (*after)->normalized->MaxLength(), 2, 1);
  EXPECT_EQ(summary->new_members, count_after - count_before);
  EXPECT_EQ((*after)->base->TotalMembers(),
            members_before + summary->new_members);
  EXPECT_EQ((*after)->raw->operator[](2).length(), 18u);
  // Raw and normalized stay in lockstep.
  EXPECT_EQ((*after)->normalized->operator[](2).length(), 18u);
  // Drift was reported for the touched classes only, all of which exist.
  EXPECT_FALSE(summary->drift.empty());
  for (const LengthClassDrift& d : summary->drift) {
    EXPECT_TRUE((*after)->base->FindLengthClass(d.length).ok());
    EXPECT_GE(summary->max_drift, 0.0);
  }
}

TEST(EngineMaintenanceTest, ExtendedTailIsSearchableExactly) {
  Engine engine;
  LoadAndPrepare(&engine);
  Rng rng(11);
  ASSERT_TRUE(
      engine.ExtendSeries(kName, 0, testing::SmoothSeries(&rng, 6)).ok());

  QuerySpec spec;
  spec.series = 0;
  spec.start = 14;  // the appended region
  spec.length = 6;
  QueryOptions qopt;
  qopt.exhaustive = true;
  Result<MatchResult> match = engine.SimilaritySearch(kName, spec, qopt);
  ASSERT_TRUE(match.ok()) << match.status();
  EXPECT_NEAR(match->match.normalized_dtw, 0.0, 1e-9);
}

TEST(EngineMaintenanceTest, BatchExtendMatchesMergedGrowth) {
  Engine engine;
  LoadAndPrepare(&engine);
  Rng rng(17);
  std::vector<Engine::ExtendSpec> batch(3);
  batch[0].series = 1;
  batch[0].points = testing::SmoothSeries(&rng, 3);
  batch[1].series = 4;
  batch[1].points = testing::SmoothSeries(&rng, 2);
  batch[2].series = 1;  // duplicate target: concatenates in order
  batch[2].points = testing::SmoothSeries(&rng, 2);

  Result<Engine::ExtendSummary> summary =
      engine.ExtendSeries(kName, std::move(batch));
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->series_extended, 2u);
  EXPECT_EQ(summary->points_appended, 7u);

  Result<std::shared_ptr<const PreparedDataset>> after = engine.Get(kName);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->raw->operator[](1).length(), 19u);
  EXPECT_EQ((*after)->raw->operator[](4).length(), 16u);
  EXPECT_EQ((*after)->base->TotalMembers(),
            (*after)->normalized->CountSubsequences(
                4, (*after)->normalized->MaxLength(), 2, 1));
}

TEST(EngineMaintenanceTest, ExtendRejectsBadInput) {
  Engine engine;
  LoadAndPrepare(&engine);
  EXPECT_FALSE(engine.ExtendSeries("nope", 0, {1.0, 2.0}).ok());
  EXPECT_FALSE(engine.ExtendSeries(kName, 99, {1.0, 2.0}).ok());
  EXPECT_FALSE(engine.ExtendSeries(kName, 0, {}).ok());
  EXPECT_FALSE(
      engine.ExtendSeries(kName, std::vector<Engine::ExtendSpec>{}).ok());
}

TEST(EngineMaintenanceTest, ExtendOnUnpreparedDatasetGrowsRawOnly) {
  Engine engine;
  ASSERT_TRUE(
      engine.LoadDataset(kName, testing::SmallDataset(4, 10, 5)).ok());
  Rng rng(23);
  Result<Engine::ExtendSummary> summary =
      engine.ExtendSeries(kName, 1, testing::SmoothSeries(&rng, 3));
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->new_members, 0u);
  EXPECT_FALSE(summary->regroup_scheduled);
  Result<std::shared_ptr<const PreparedDataset>> snap = engine.Get(kName);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->raw->operator[](1).length(), 13u);
  EXPECT_FALSE((*snap)->prepared());
}

TEST(EngineMaintenanceTest, DriftPolicySchedulesRegroupAboveThreshold) {
  Engine engine;
  LoadAndPrepare(&engine);
  DatasetRegistry& registry = engine.registry();
  registry.SetDriftThreshold(0.5);
  EXPECT_DOUBLE_EQ(registry.drift_threshold(), 0.5);

  // Below threshold: drift is recorded, nothing scheduled.
  std::vector<LengthClassDrift> calm{{6, 10, 2}};
  RegroupTicket none = registry.MaybeScheduleRegroup(kName, calm);
  EXPECT_FALSE(none.valid());
  Result<DatasetSlotInfo> status = registry.Describe(kName);
  ASSERT_TRUE(status.ok());
  EXPECT_DOUBLE_EQ(status->last_max_drift, 0.2);
  EXPECT_FALSE(status->regrouping);

  // Above threshold: a background regroup of the offending class runs and
  // completes; the counters show it.
  std::vector<LengthClassDrift> hot{{6, 10, 9}};
  RegroupTicket job = registry.MaybeScheduleRegroup(kName, hot);
  ASSERT_TRUE(job.valid());
  ASSERT_TRUE(job.Wait().ok()) << job.Wait();
  status = registry.Describe(kName);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->regroups_completed, 1u);
  EXPECT_FALSE(status->regrouping);

  // The regrouped base still answers and keeps the membership partition.
  Result<std::shared_ptr<const PreparedDataset>> after = engine.Get(kName);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE((*after)->prepared());
  EXPECT_EQ((*after)->base->TotalMembers(),
            (*after)->normalized->CountSubsequences(
                4, (*after)->normalized->MaxLength(), 2, 1));

  // Threshold 0 disables the policy entirely.
  registry.SetDriftThreshold(0.0);
  EXPECT_FALSE(registry.MaybeScheduleRegroup(kName, hot).valid());
}

TEST(EngineMaintenanceTest, RegroupTicketLifecycle) {
  Engine engine;
  LoadAndPrepare(&engine);
  DatasetRegistry& registry = engine.registry();

  // Unknown dataset: a completed ticket carrying the error.
  RegroupTicket missing = registry.RegroupAsync("nope", {6});
  ASSERT_TRUE(missing.valid());
  EXPECT_FALSE(missing.Wait().ok());

  RegroupTicket job = registry.RegroupAsync(kName, {4, 6, 8});
  ASSERT_TRUE(job.valid());
  EXPECT_TRUE(job.Wait().ok()) << job.Wait();

  // A slot that was never prepared has no base to regroup.
  ASSERT_TRUE(engine.LoadDataset("raw", testing::SmallDataset(3, 10, 5)).ok());
  EXPECT_EQ(registry.RegroupAsync("raw", {4}).Wait().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineMaintenanceTest, ExtendAfterDemoteThenQueryReachesNewTail) {
  // An extend on a mapped slot joins the base like a resident one: same
  // members, same normalized tail, same answers as a twin that never left
  // memory — live and after a restart on the same directory.
  Rng rng(29);
  const std::vector<double> tail = testing::SmoothSeries(&rng, 4);
  QuerySpec spec;
  spec.series = 3;
  spec.start = 14;
  spec.length = 4;

  Engine twin;
  LoadAndPrepare(&twin);
  Result<Engine::ExtendSummary> twin_summary =
      twin.ExtendSeries(kName, 3, tail);
  ASSERT_TRUE(twin_summary.ok()) << twin_summary.status();
  const std::string expected = ContractTranscript(twin, spec);

  const DurabilityOptions durability = FreshDurability("extend_mapped");
  {
    Engine subject;
    ASSERT_TRUE(subject.EnableDurability(durability).ok());
    LoadAndPrepare(&subject);
    CheckpointAndDemote(&subject);
    Result<Engine::ExtendSummary> summary =
        subject.ExtendSeries(kName, 3, tail);
    ASSERT_TRUE(summary.ok()) << summary.status();
    EXPECT_GT(summary->new_members, 0u);
    EXPECT_EQ(summary->new_members, twin_summary->new_members);
    EXPECT_EQ(ContractTranscript(subject, spec), expected);
  }
  Engine restarted;
  ASSERT_TRUE(restarted.EnableDurability(durability).ok());
  EXPECT_EQ(ContractTranscript(restarted, spec), expected);
  std::filesystem::remove_all(durability.dir);
}

TEST(EngineMaintenanceTest,
     AppendThenExtendWhileMappedMatchesResidentNormalization) {
  // The frozen-normalization contract under per-series parameters: a series
  // appended to a mapped slot and then extended after the slot was mapped
  // again must end up with exactly the values and parameters the resident
  // path produces — the newcomer's offset/scale freeze at its pre-extend
  // extrema either way.
  Rng rng(41);
  const TimeSeries newcomer("late", testing::SmoothSeries(&rng, 10));
  const std::vector<double> tail = testing::SmoothSeries(&rng, 4);
  QuerySpec spec;
  spec.series = 4;
  spec.start = newcomer.length();
  spec.length = tail.size();

  auto run = [&](Engine* engine, bool demote) {
    ASSERT_TRUE(
        engine->LoadDataset(kName, testing::SmallDataset(4, 12, 19)).ok());
    ASSERT_TRUE(engine
                    ->Prepare(kName, Opt(CentroidPolicy::kFixedLeader),
                              NormalizationKind::kMinMaxSeries)
                    .ok());
    if (demote) CheckpointAndDemote(engine);
    ASSERT_TRUE(engine->AppendSeries(kName, newcomer).ok());
    if (demote) CheckpointAndDemote(engine);
    ASSERT_TRUE(engine->ExtendSeries(kName, 4, tail).ok());
  };

  Engine twin;
  run(&twin, /*demote=*/false);
  if (HasFatalFailure()) return;
  const std::string expected = ContractTranscript(twin, spec);

  const DurabilityOptions durability = FreshDurability("append_mapped");
  {
    Engine subject;
    ASSERT_TRUE(subject.EnableDurability(durability).ok());
    run(&subject, /*demote=*/true);
    if (HasFatalFailure()) return;
    EXPECT_EQ(ContractTranscript(subject, spec), expected);
  }
  Engine restarted;
  ASSERT_TRUE(restarted.EnableDurability(durability).ok());
  EXPECT_EQ(ContractTranscript(restarted, spec), expected);
  std::filesystem::remove_all(durability.dir);
}

/// Acceptance: queries racing extends and drift-triggered regroups never
/// observe a torn snapshot. Readers hammer SimilaritySearch while one
/// writer streams tails and another repeatedly schedules regroups of every
/// class; every query must succeed against some consistent snapshot. TSan
/// (CI) verifies the absence of data races on top of the assertions here.
TEST(EngineMaintenanceConcurrencyTest, QueriesRaceExtendsAndRegroups) {
  Engine engine;
  ASSERT_TRUE(
      engine.LoadDataset(kName, testing::SmallDataset(8, 24, 13)).ok());
  BaseBuildOptions opt = Opt();
  opt.max_length = 16;
  ASSERT_TRUE(engine.Prepare(kName, opt).ok());
  engine.registry().SetDriftThreshold(1e-6);  // hair trigger

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> queries_done{0};
  std::atomic<std::size_t> query_failures{0};

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&engine, &stop, &queries_done, &query_failures, r] {
      QuerySpec spec;
      spec.series = static_cast<std::size_t>(r);
      spec.start = 2;
      spec.length = 8;
      while (!stop.load()) {
        Result<MatchResult> match = engine.SimilaritySearch(kName, spec);
        if (!match.ok() || !(match->match.normalized_dtw >= 0.0)) {
          query_failures.fetch_add(1);
        }
        queries_done.fetch_add(1);
      }
    });
  }

  std::thread writer([&engine] {
    Rng rng(31);
    for (int i = 0; i < 12; ++i) {
      const std::size_t series = rng.UniformIndex(8);
      Result<Engine::ExtendSummary> summary = engine.ExtendSeries(
          kName, series, testing::SmoothSeries(&rng, 1 + rng.UniformIndex(3)));
      ASSERT_TRUE(summary.ok()) << summary.status();
      if (summary->regroup_scheduled) {
        EXPECT_TRUE(summary->regroup.Wait().ok());
      }
    }
  });

  std::thread regrouper([&engine, &stop] {
    while (!stop.load()) {
      Result<std::shared_ptr<const PreparedDataset>> snap =
          engine.registry().GetPrepared(kName);
      if (!snap.ok()) continue;
      std::vector<std::size_t> lengths;
      for (const LengthClass& cls : (*snap)->base->length_classes()) {
        lengths.push_back(cls.length);
      }
      RegroupTicket job =
          engine.registry().RegroupAsync(kName, std::move(lengths));
      if (job.valid()) (void)job.Wait();  // FailedPrecondition races are fine
    }
  });

  writer.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  regrouper.join();

  EXPECT_GT(queries_done.load(), 0u);
  EXPECT_EQ(query_failures.load(), 0u);

  // The surviving snapshot is whole: raw, normalized and base agree on the
  // final lengths, and the partition covers exactly the admissible space.
  Result<std::shared_ptr<const PreparedDataset>> final_snap =
      engine.registry().GetPrepared(kName);
  ASSERT_TRUE(final_snap.ok());
  const PreparedDataset& ds = **final_snap;
  ASSERT_EQ(ds.raw->size(), ds.normalized->size());
  for (std::size_t s = 0; s < ds.raw->size(); ++s) {
    EXPECT_EQ((*ds.raw)[s].length(), (*ds.normalized)[s].length());
  }
  EXPECT_EQ(ds.base->TotalMembers(),
            ds.normalized->CountSubsequences(4, 16, 2, 1));
}

}  // namespace
}  // namespace onex
