/// Differential battery for the mapped serving tier (DESIGN.md §17).
///
/// The contract under test: a dataset served off its mmap'd arena
/// checkpoint answers EVERY query — MATCH, KNN and BATCH, under every
/// cascade toggle combination — bitwise identically to a resident twin
/// that replayed the same acknowledged history, QueryStats included; a
/// mutation against a mapped slot promotes it copy-on-write back to the
/// resident tier and stays oracle-equal from then on, while a checkpoint
/// leaves it mapped; budget pressure maps a durable slot (checkpointing it
/// first if its WAL is dirty) and never strips it; and a crash between
/// the arena file landing on disk and the WAL rotation that would adopt it
/// recovers the pre-checkpoint state exactly (the dangling arena is inert).
/// Runs under ASan and TSan in CI.
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/common/string_utils.h"
#include "onex/engine/engine.h"
#include "onex/json/json.h"
#include "onex/net/protocol.h"
#include "test_util.h"

namespace onex {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/onex_tier_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

DurabilityOptions TestDurability(const std::string& dir) {
  DurabilityOptions opt;
  opt.dir = dir;
  opt.checkpoint_every = 0;  // checkpoints are explicit in this battery
  opt.fsync = false;
  return opt;
}

BaseBuildOptions SmallOptions(double st = 0.25) {
  BaseBuildOptions opt;
  opt.st = st;
  opt.min_length = 4;
  opt.max_length = 10;
  return opt;
}

void AppendStats(std::ostringstream& out, const QueryStats& s) {
  out << s.groups_total << ',' << s.groups_pruned_lb << ','
      << s.rep_dtw_evaluations << ',' << s.member_dtw_evaluations << ','
      << s.members_pruned_lb << ',' << s.pruned_kim << ',' << s.pruned_keogh
      << ',' << s.dtw_evals << '|';
}

void AppendMatch(std::ostringstream& out, const MatchResult& m) {
  out << m.match.ref.series << '.' << m.match.ref.start << '.'
      << m.match.ref.length << ':' << m.match.group_index << ':'
      << StrFormat("%.17g,%.17g,%.17g,%.17g", m.match.dtw,
                   m.match.normalized_dtw, m.match.rep_dtw,
                   m.match.normalized_rep_dtw)
      << ':' << m.matched_series_name << ':';
  for (const double v : m.query_values) out << StrFormat("%.17g,", v);
  out << ':';
  for (const double v : m.match_values) out << StrFormat("%.17g,", v);
  out << ':';
  AppendStats(out, m.stats);
  out << ';';
}

/// The full differential transcript of one engine's answers for `name`:
/// every query spec under every cascade toggle combination, as MATCH, KNN
/// and one BATCH per variant, with distances, values and QueryStats all
/// printed at %.17g / exact-integer fidelity. Two engines serve the same
/// bits iff their transcripts are string-equal.
std::string QueryTranscript(Engine& engine, const std::string& name) {
  std::vector<QuerySpec> specs;
  {
    QuerySpec a;
    a.series = 0;
    a.start = 2;
    a.length = 8;
    specs.push_back(a);
    QuerySpec b;
    b.series = 1;
    b.start = 5;
    b.length = 6;
    specs.push_back(b);
    QuerySpec c;
    c.series = 2;
    c.start = 0;
    c.length = 9;
    specs.push_back(c);
    QuerySpec inl;  // inline values exercise the resolve-and-normalize path
    inl.inline_values = {0.3, 0.1, -0.2, -0.4, -0.1, 0.2, 0.5};
    specs.push_back(inl);
  }

  // Every cascade toggle the ablation bench knows.
  std::vector<std::pair<std::string, QueryOptions>> variants;
  {
    QueryOptions full;
    variants.emplace_back("full", full);
    QueryOptions no_lb = full;
    no_lb.use_lower_bounds = false;
    variants.emplace_back("no_lb", no_lb);
    QueryOptions no_ea = full;
    no_ea.use_early_abandon = false;
    variants.emplace_back("no_ea", no_ea);
    QueryOptions bare = full;
    bare.use_lower_bounds = false;
    bare.use_early_abandon = false;
    variants.emplace_back("bare", bare);
    QueryOptions wide = full;
    wide.exhaustive = true;
    wide.explore_top_groups = 2;
    variants.emplace_back("exhaustive", wide);
    QueryOptions windowed = full;
    windowed.window = 3;
    variants.emplace_back("window3", windowed);
  }

  std::ostringstream out;
  for (const auto& [tag, options] : variants) {
    out << '[' << tag << "]\n";
    for (std::size_t q = 0; q < specs.size(); ++q) {
      out << "MATCH " << q << ' ';
      Result<MatchResult> match =
          engine.SimilaritySearch(name, specs[q], options);
      EXPECT_TRUE(match.ok()) << tag << " q=" << q << ": " << match.status();
      if (match.ok()) AppendMatch(out, *match);
      out << '\n';

      out << "KNN " << q << ' ';
      Result<std::vector<MatchResult>> knn =
          engine.Knn(name, specs[q], 3, options);
      EXPECT_TRUE(knn.ok()) << tag << " q=" << q << ": " << knn.status();
      if (knn.ok()) {
        for (const MatchResult& m : *knn) AppendMatch(out, m);
      }
      out << '\n';
    }
    out << "BATCH ";
    Result<std::vector<MatchResult>> batch =
        engine.SimilaritySearchBatch(name, specs, options);
    EXPECT_TRUE(batch.ok()) << tag << " batch: " << batch.status();
    if (batch.ok()) {
      for (const MatchResult& m : *batch) AppendMatch(out, m);
    }
    out << '\n';
  }
  return out.str();
}

std::string TierOf(Engine& engine, const std::string& name) {
  Result<std::string> tier = engine.registry().Tier(name);
  EXPECT_TRUE(tier.ok()) << tier.status();
  return tier.ok() ? *tier : std::string("<error>");
}

/// One seeded mutation schedule, expressed as data so the subject and its
/// twin replay the identical acknowledged history (mirrors the recovery
/// oracle in engine_recovery_test.cc).
std::vector<std::function<void(Engine&)>> SeededSchedule(std::uint64_t seed) {
  std::vector<std::function<void(Engine&)>> schedule;
  schedule.push_back([seed](Engine& e) {
    ASSERT_TRUE(
        e.LoadDataset("A", onex::testing::SmallDataset(4, 18, seed)).ok());
    ASSERT_TRUE(e.Prepare("A", SmallOptions()).ok());
  });
  Rng gen(seed * 104729);
  const std::size_t ops = 6 + gen.UniformIndex(6);
  for (std::size_t i = 0; i < ops; ++i) {
    const double roll = gen.Uniform();
    if (roll < 0.55) {
      const std::size_t series = gen.UniformIndex(4);
      const std::size_t n = 1 + gen.UniformIndex(4);
      std::vector<double> points;
      for (std::size_t p = 0; p < n; ++p) {
        points.push_back(gen.Uniform(-1.5, 1.5));
      }
      schedule.push_back([series, points](Engine& e) {
        ASSERT_TRUE(e.ExtendSeries("A", series, points).ok());
      });
    } else if (roll < 0.75) {
      const std::vector<double> values =
          onex::testing::RandomSeries(&gen, 8 + gen.UniformIndex(8));
      const std::string name = "app_" + std::to_string(i);
      schedule.push_back([name, values](Engine& e) {
        ASSERT_TRUE(e.AppendSeries("A", TimeSeries(name, values)).ok());
      });
    } else if (roll < 0.9) {
      schedule.push_back([](Engine& e) {
        ASSERT_TRUE(e.registry().RegroupAsync("A", {4, 5, 6}).Wait().ok());
      });
    } else {
      const double st = 0.15 + 0.1 * gen.Uniform();
      schedule.push_back([st](Engine& e) {
        ASSERT_TRUE(e.Prepare("A", SmallOptions(st)).ok());
      });
    }
  }
  // A final checkpoint leaves the WAL clean (records_since_ckpt == 0), the
  // precondition for both the restart-mapped path and manual Demote.
  schedule.push_back([](Engine& e) {
    ASSERT_TRUE(e.registry().Checkpoint("A").ok());
  });
  return schedule;
}

/// The core acceptance criterion, 8 seeded schedules deep: after an
/// identical history, a restart that serves A off its arena mapping and a
/// twin that kept A resident produce string-equal query transcripts.
TEST(EngineTierDiff, MappedColdStartMatchesResidentTwinBitwise) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(StrFormat("seed=%llu",
                           static_cast<unsigned long long>(seed)));
    const std::string subject_dir =
        FreshDir("cold_subject_" + std::to_string(seed));
    const std::string twin_dir = FreshDir("cold_twin_" + std::to_string(seed));
    const auto schedule = SeededSchedule(seed);

    {
      Engine subject;
      ASSERT_TRUE(subject.EnableDurability(TestDurability(subject_dir)).ok());
      for (const auto& op : schedule) {
        op(subject);
        if (::testing::Test::HasFatalFailure()) return;
      }
      // The subject "restarts" here: its resident state dies with it.
    }
    Engine twin;
    ASSERT_TRUE(twin.EnableDurability(TestDurability(twin_dir)).ok());
    for (const auto& op : schedule) {
      op(twin);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(TierOf(twin, "A"), "resident");

    Engine mapped;
    ASSERT_TRUE(mapped.EnableDurability(TestDurability(subject_dir)).ok());
    ASSERT_EQ(TierOf(mapped, "A"), "mapped")
        << "clean-WAL restart must serve off the arena";
    EXPECT_GT(mapped.registry().mapped_bytes(), 0u);

    EXPECT_EQ(QueryTranscript(mapped, "A"), QueryTranscript(twin, "A"))
        << "mapped answers diverged from the resident twin";
    // Read-only traffic must not promote the slot.
    EXPECT_EQ(TierOf(mapped, "A"), "mapped");

    fs::remove_all(subject_dir);
    fs::remove_all(twin_dir);
  }
}

/// Manual demote (the TIER verb's demote=1): the same engine, before and
/// after swapping its resident base for the arena mapping, answers
/// identically — and a later mutation promotes copy-on-write and stays
/// oracle-equal against a twin that never left the resident tier.
TEST(EngineTierDiff, DemoteServesSameBitsAndExtendPromotesCopyOnWrite) {
  const std::string dir = FreshDir("demote");
  const std::string twin_dir = FreshDir("demote_twin");
  const auto schedule = SeededSchedule(3);

  Engine subject;
  ASSERT_TRUE(subject.EnableDurability(TestDurability(dir)).ok());
  Engine twin;
  ASSERT_TRUE(twin.EnableDurability(TestDurability(twin_dir)).ok());
  for (const auto& op : schedule) {
    op(subject);
    op(twin);
    if (::testing::Test::HasFatalFailure()) return;
  }

  const std::string resident_transcript = QueryTranscript(subject, "A");
  ASSERT_EQ(TierOf(subject, "A"), "resident");
  ASSERT_TRUE(subject.registry().Demote("A").ok());
  ASSERT_EQ(TierOf(subject, "A"), "mapped");
  EXPECT_GT(subject.registry().mapped_bytes(), 0u);
  EXPECT_EQ(QueryTranscript(subject, "A"), resident_transcript)
      << "demote changed answers";

  // Copy-on-write promotion: one extend, applied to both engines. The
  // mapped subject must end resident again (writers replace the snapshot
  // with one that owns its storage) and keep matching the twin.
  const std::vector<double> tail = {0.42, -0.17, 0.09};
  ASSERT_TRUE(subject.ExtendSeries("A", 1, tail).ok());
  ASSERT_TRUE(twin.ExtendSeries("A", 1, tail).ok());
  EXPECT_EQ(TierOf(subject, "A"), "resident")
      << "a mutation must promote the mapped slot";
  EXPECT_EQ(subject.registry().mapped_bytes(), 0u);
  EXPECT_EQ(QueryTranscript(subject, "A"), QueryTranscript(twin, "A"))
      << "post-promotion answers diverged";

  fs::remove_all(dir);
  fs::remove_all(twin_dir);
}

/// Budget pressure downgrades instead of stripping: with durability on and
/// a clean checkpoint, shrinking the budget moves the victim to the mapped
/// tier (first query = page-in, not rebuild) and its answers do not move.
TEST(EngineTierDiff, BudgetEvictionDowngradesToMappedTier) {
  const std::string dir = FreshDir("budget");
  Engine engine;
  ASSERT_TRUE(engine.EnableDurability(TestDurability(dir)).ok());
  ASSERT_TRUE(
      engine.LoadDataset("A", onex::testing::SmallDataset(4, 18, 21)).ok());
  ASSERT_TRUE(engine.Prepare("A", SmallOptions()).ok());
  ASSERT_TRUE(engine.registry().Checkpoint("A").ok());

  const std::string before = QueryTranscript(engine, "A");
  engine.registry().SetPreparedBudget(1);  // force A over budget
  EXPECT_EQ(TierOf(engine, "A"), "mapped")
      << "durable clean slot must downgrade, not strip";
  EXPECT_EQ(engine.registry().prepared_bytes(), 0u);
  EXPECT_GT(engine.registry().mapped_bytes(), 0u);
  EXPECT_EQ(QueryTranscript(engine, "A"), before);

  // A pinned slot is exempt: promote it back via a mutation, pin, shrink.
  engine.registry().SetPreparedBudget(0);
  ASSERT_TRUE(engine.ExtendSeries("A", 0, {0.5}).ok());
  ASSERT_EQ(TierOf(engine, "A"), "resident");
  ASSERT_TRUE(engine.registry().SetPinned("A", true).ok());
  engine.registry().SetPreparedBudget(1);
  EXPECT_EQ(TierOf(engine, "A"), "resident") << "pinned slots never move";
  ASSERT_TRUE(engine.registry().SetPinned("A", false).ok());

  fs::remove_all(dir);
}

DatasetSlotInfo SlotInfo(Engine& engine, const std::string& name) {
  for (const DatasetSlotInfo& info : engine.registry().Describe()) {
    if (info.name == name) return info;
  }
  ADD_FAILURE() << "no slot " << name;
  return {};
}

/// A durable slot leaves memory only through its checkpoint: budget
/// pressure on a slot whose WAL is dirty checkpoints it first, then maps
/// it — never strips it — and neither the answers nor the restarted state
/// move.
TEST(EngineTierDiff, BudgetEvictionCheckpointsADirtySlotThenMapsIt) {
  const std::string dir = FreshDir("budget_dirty");
  std::string live_transcript;
  {
    Engine engine;
    ASSERT_TRUE(engine.EnableDurability(TestDurability(dir)).ok());
    for (const auto& op : SeededSchedule(5)) {
      op(engine);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_TRUE(engine.ExtendSeries("A", 1, {0.21, -0.4, 0.05}).ok());
    const DatasetSlotInfo before = SlotInfo(engine, "A");
    ASSERT_GT(before.wal_dirty, 0u);
    live_transcript = QueryTranscript(engine, "A");

    engine.registry().SetPreparedBudget(1);
    const DatasetSlotInfo after = SlotInfo(engine, "A");
    EXPECT_EQ(after.tier, "mapped") << "a durable slot must never strip";
    EXPECT_EQ(after.wal_dirty, 0u);
    EXPECT_EQ(after.checkpoints, before.checkpoints + 1);
    EXPECT_EQ(engine.registry().prepared_bytes(), 0u);
    EXPECT_EQ(QueryTranscript(engine, "A"), live_transcript);
  }
  Engine recovered;
  ASSERT_TRUE(recovered.EnableDurability(TestDurability(dir)).ok());
  EXPECT_EQ(TierOf(recovered, "A"), "mapped");
  EXPECT_EQ(QueryTranscript(recovered, "A"), live_transcript)
      << "restart diverged from the live transcript";
  fs::remove_all(dir);
}

/// A victim whose checkpoint cannot be written has no durable image to
/// serve from, so it stays resident (over budget) with its WAL intact.
TEST(EngineTierDiff, VictimWhoseCheckpointFailsStaysResident) {
  const std::string dir = FreshDir("budget_ckpt_fails");
  Engine engine;
  ASSERT_TRUE(engine.EnableDurability(TestDurability(dir)).ok());
  ASSERT_TRUE(
      engine.LoadDataset("A", onex::testing::SmallDataset(4, 18, 31)).ok());
  ASSERT_TRUE(engine.Prepare("A", SmallOptions()).ok());
  const std::string transcript = QueryTranscript(engine, "A");
  const DatasetSlotInfo before = SlotInfo(engine, "A");
  ASSERT_GT(before.wal_dirty, 0u);

  // A regular file where the slot directory was: the checkpoint's temp
  // file cannot be created.
  fs::remove_all(dir + "/A");
  std::ofstream(dir + "/A") << "not a directory";
  engine.registry().SetPreparedBudget(1);

  const DatasetSlotInfo after = SlotInfo(engine, "A");
  EXPECT_EQ(after.tier, "resident");
  EXPECT_EQ(after.wal_dirty, before.wal_dirty);
  EXPECT_EQ(after.checkpoints, before.checkpoints);
  EXPECT_GT(engine.registry().prepared_bytes(), 0u);
  EXPECT_EQ(QueryTranscript(engine, "A"), transcript);
  fs::remove_all(dir);
}

/// Demote preconditions: no durability, a dirty WAL, a pin, and an
/// unprepared slot are each a structured FailedPrecondition, never a
/// silent wrong-tier swap.
TEST(EngineTierDiff, DemoteRequiresCleanDurableResidentUnpinnedSlot) {
  {
    Engine ephemeral;  // no durability at all
    ASSERT_TRUE(
        ephemeral.LoadDataset("A", onex::testing::SmallDataset(3, 12, 5))
            .ok());
    ASSERT_TRUE(ephemeral.Prepare("A", SmallOptions()).ok());
    EXPECT_FALSE(ephemeral.registry().Demote("A").ok());
    EXPECT_EQ(TierOf(ephemeral, "A"), "resident");
  }
  const std::string dir = FreshDir("preconds");
  Engine engine;
  ASSERT_TRUE(engine.EnableDurability(TestDurability(dir)).ok());
  ASSERT_TRUE(
      engine.LoadDataset("A", onex::testing::SmallDataset(3, 12, 5)).ok());
  EXPECT_FALSE(engine.registry().Demote("A").ok()) << "unprepared slot";
  ASSERT_TRUE(engine.Prepare("A", SmallOptions()).ok());
  EXPECT_FALSE(engine.registry().Demote("A").ok())
      << "dirty WAL (no checkpoint yet) must refuse: the arena is stale";
  ASSERT_TRUE(engine.registry().Checkpoint("A").ok());
  ASSERT_TRUE(engine.registry().SetPinned("A", true).ok());
  EXPECT_FALSE(engine.registry().Demote("A").ok()) << "pinned slot";
  ASSERT_TRUE(engine.registry().SetPinned("A", false).ok());
  ASSERT_TRUE(engine.registry().Demote("A").ok());
  EXPECT_TRUE(engine.registry().Demote("A").ok())
      << "demote of an already-mapped slot is idempotent";
  EXPECT_FALSE(engine.registry().Demote("nope").ok()) << "unknown dataset";
  fs::remove_all(dir);
}

/// The crash-matrix row ISSUE.md names: kill between the arena checkpoint
/// file landing on disk and the WAL rotation that would reference it. The
/// dangling newer arena (and a garbage sibling) must be ignored — recovery
/// replays the WAL against the checkpoint it actually references and
/// reproduces the acknowledged battery exactly.
TEST(EngineTierDiff, CrashBetweenArenaWriteAndWalRotationIsInert) {
  const std::string dir = FreshDir("crashrow");
  std::string live_transcript;
  std::string adopted_ckpt;
  {
    Engine subject;
    ASSERT_TRUE(subject.EnableDurability(TestDurability(dir)).ok());
    ASSERT_TRUE(
        subject.LoadDataset("A", onex::testing::SmallDataset(4, 18, 13)).ok());
    ASSERT_TRUE(subject.Prepare("A", SmallOptions()).ok());
    ASSERT_TRUE(subject.registry().Checkpoint("A").ok());
    // Mutations after the adopted checkpoint: the WAL now carries records
    // beyond it, exactly the window an interrupted re-checkpoint leaves.
    ASSERT_TRUE(subject.ExtendSeries("A", 0, {0.7, -0.3}).ok());
    ASSERT_TRUE(subject.ExtendSeries("A", 2, {0.1}).ok());
    live_transcript = QueryTranscript(subject, "A");
    for (const auto& entry : fs::directory_iterator(dir + "/A")) {
      const std::string base = entry.path().filename().string();
      if (base.rfind("ckpt-", 0) == 0) adopted_ckpt = entry.path().string();
    }
    ASSERT_FALSE(adopted_ckpt.empty());
  }
  // The "crash": a newer arena landed (seq far past the rotation marker's)
  // but the WAL was never rotated to reference it — plus a torn garbage
  // twin, the other half-written possibility.
  fs::copy_file(adopted_ckpt, dir + "/A/ckpt-9999");
  std::ofstream(dir + "/A/ckpt-10000", std::ios::binary)
      << "ONEXARNA\x01\x00\x00\x00 torn arena prefix";

  Engine recovered;
  ASSERT_TRUE(recovered.EnableDurability(TestDurability(dir)).ok());
  EXPECT_EQ(TierOf(recovered, "A"), "resident")
      << "recovery maps the checkpoint and replays the dirty WAL tail on "
         "it, so the slot must come up resident";
  EXPECT_EQ(QueryTranscript(recovered, "A"), live_transcript)
      << "dangling arena files changed recovered answers";
  fs::remove_all(dir);
}

/// A checkpoint writes the live snapshot as it is and installs nothing (the
/// arena stores centroids and envelopes exactly). Under the default
/// running-mean policy, after streamed extends whose incremental centroids
/// a recompute-from-members would move by ulps: the slot keeps the very
/// snapshot it had, a demoted slot stays mapped across a CHECKPOINT with
/// the same mapped bytes and answers, and a restart reproduces the live
/// transcript exactly.
TEST(EngineTierDiff, CheckpointLeavesTheSlotAsItIs) {
  const std::string dir = FreshDir("ckpt_in_place");
  ASSERT_EQ(SmallOptions().centroid_policy, CentroidPolicy::kRunningMean);
  std::string live_transcript;
  {
    Engine subject;
    ASSERT_TRUE(subject.EnableDurability(TestDurability(dir)).ok());
    ASSERT_TRUE(
        subject.LoadDataset("A", onex::testing::SmallDataset(4, 18, 23)).ok());
    ASSERT_TRUE(subject.Prepare("A", SmallOptions()).ok());
    ASSERT_TRUE(subject.registry().Checkpoint("A").ok());
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          subject.ExtendSeries("A", i % 4, {0.13 * i, -0.07 * i, 0.31}).ok());
    }

    Result<std::shared_ptr<const PreparedDataset>> before = subject.Get("A");
    ASSERT_TRUE(before.ok());
    live_transcript = QueryTranscript(subject, "A");
    ASSERT_TRUE(subject.registry().Checkpoint("A").ok());
    Result<std::shared_ptr<const PreparedDataset>> after = subject.Get("A");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->get(), before->get())
        << "a checkpoint must not re-install the slot's snapshot";
    EXPECT_EQ(QueryTranscript(subject, "A"), live_transcript);

    // Demote through the TIER verb, then checkpoint again through the
    // CHECKPOINT verb: the slot stays on its mapping.
    const json::Value demoted = net::ExecuteCommand(
        &subject, *net::ParseCommandLine("TIER A demote=1"));
    ASSERT_TRUE(demoted["ok"].as_bool()) << demoted.Dump();
    ASSERT_EQ(demoted["tier"].as_string(), "mapped");
    const std::size_t mapped_bytes = subject.registry().mapped_bytes();
    EXPECT_GT(mapped_bytes, 0u);
    EXPECT_EQ(QueryTranscript(subject, "A"), live_transcript);

    const json::Value ckpt = net::ExecuteCommand(
        &subject, *net::ParseCommandLine("CHECKPOINT A"));
    ASSERT_TRUE(ckpt["ok"].as_bool()) << ckpt.Dump();
    EXPECT_EQ(TierOf(subject, "A"), "mapped")
        << "a checkpoint must not promote a mapped slot";
    EXPECT_EQ(subject.registry().mapped_bytes(), mapped_bytes);
    EXPECT_EQ(QueryTranscript(subject, "A"), live_transcript);
  }
  Engine recovered;
  ASSERT_TRUE(recovered.EnableDurability(TestDurability(dir)).ok());
  EXPECT_EQ(QueryTranscript(recovered, "A"), live_transcript)
      << "restart diverged from the live transcript";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace onex
