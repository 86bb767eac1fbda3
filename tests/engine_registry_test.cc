/// DatasetRegistry behavior (DESIGN.md §11): LRU eviction under a prepared-
/// base byte budget (a durable victim serves from its mapped checkpoint; a
/// memory-only registry evicts nothing), the destructor's drain of
/// background jobs, and the per-slot locking contract — queries on one
/// dataset proceed while another is being prepared.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/string_utils.h"
#include "onex/engine/dataset_registry.h"
#include "onex/engine/engine.h"
#include "onex/gen/generators.h"
#include "test_util.h"

namespace onex {
namespace {

Dataset MakeData(std::size_t num, std::size_t len, std::uint64_t seed) {
  gen::SineFamilyOptions opt;
  opt.num_series = num;
  opt.length = len;
  opt.seed = seed;
  return gen::MakeSineFamilies(opt);
}

BaseBuildOptions Quick() {
  BaseBuildOptions opt;
  opt.st = 0.2;
  opt.min_length = 4;
  opt.max_length = 10;
  return opt;
}

std::map<std::string, DatasetSlotInfo> DescribeByName(const Engine& engine) {
  std::map<std::string, DatasetSlotInfo> out;
  for (const DatasetSlotInfo& info : engine.registry().Describe()) {
    out[info.name] = info;
  }
  return out;
}

QuerySpec SmallQuery(std::size_t series = 0) {
  QuerySpec spec;
  spec.series = series;
  spec.start = 0;
  spec.length = 8;
  return spec;
}

std::string TierOf(const Engine& engine, const std::string& name) {
  Result<std::string> tier = engine.registry().Tier(name);
  EXPECT_TRUE(tier.ok()) << tier.status();
  return tier.ok() ? *tier : std::string("<error>");
}

/// A durable engine rooted in a fresh directory under the test temp dir:
/// the budget applies only where an evicted base has a checkpoint to serve
/// from.
class DurableEngine {
 public:
  explicit DurableEngine(const std::string& tag)
      : dir_(::testing::TempDir() + "/onex_registry_" + tag) {
    std::filesystem::remove_all(dir_);
    DurabilityOptions opt;
    opt.dir = dir_;
    opt.checkpoint_every = 0;
    opt.fsync = false;
    EXPECT_TRUE(engine_.EnableDurability(opt).ok());
  }
  ~DurableEngine() { std::filesystem::remove_all(dir_); }

  Engine& engine() { return engine_; }

  /// Loads and prepares `name`, then checkpoints it so an eviction maps
  /// the clean arena straight away.
  void LoadPrepared(const std::string& name, Dataset data) {
    ASSERT_TRUE(engine_.LoadDataset(name, std::move(data)).ok());
    ASSERT_TRUE(engine_.Prepare(name, Quick()).ok());
    ASSERT_TRUE(engine_.registry().Checkpoint(name).ok());
  }

 private:
  std::string dir_;
  Engine engine_;
};

TEST(MemoryUsageTest, StoreAndBaseFootprintsAgree) {
  auto ds = std::make_shared<const Dataset>(testing::SmallDataset());
  Result<OnexBase> base = OnexBase::Build(ds, Quick());
  ASSERT_TRUE(base.ok());
  std::size_t sum = 0;
  for (const LengthClass& cls : base->length_classes()) {
    ASSERT_NE(cls.store, nullptr);
    EXPECT_GT(cls.store->MemoryUsage(), 0u);
    sum += cls.store->MemoryUsage();
    sum += cls.groups.size() * sizeof(SimilarityGroup);
  }
  EXPECT_EQ(base->MemoryUsage(), sum);
  EXPECT_GT(base->MemoryUsage(), 0u);
}

TEST(EngineRegistryTest, UnlimitedBudgetKeepsEveryBaseResident) {
  Engine engine;
  for (int d = 0; d < 3; ++d) {
    const std::string name = "ds" + std::to_string(d);
    ASSERT_TRUE(
        engine.LoadDataset(name, MakeData(6, 24, 10 + static_cast<std::uint64_t>(d)))
            .ok());
    ASSERT_TRUE(engine.Prepare(name, Quick()).ok());
  }
  const auto info = DescribeByName(engine);
  for (const auto& [name, slot] : info) {
    EXPECT_TRUE(slot.prepared) << name;
    EXPECT_EQ(slot.tier, "resident") << name;
    EXPECT_GT(slot.prepared_bytes, 0u) << name;
  }
  EXPECT_EQ(engine.registry().prepared_budget(), 0u);
  EXPECT_GT(engine.registry().prepared_bytes(), 0u);
}

TEST(EngineRegistryTest, LruEvictionHonorsBudgetAndServesFromCheckpoint) {
  DurableEngine durable("lru");
  Engine& engine = durable.engine();
  durable.LoadPrepared("a", MakeData(6, 24, 1));
  const std::size_t bytes_a = engine.registry().prepared_bytes();
  ASSERT_GT(bytes_a, 0u);
  durable.LoadPrepared("b", MakeData(6, 24, 2));
  const std::size_t bytes_b = engine.registry().prepared_bytes() - bytes_a;
  ASSERT_GT(bytes_b, 0u);
  const Result<MatchResult> before = engine.SimilaritySearch("a", SmallQuery());
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_TRUE(engine.SimilaritySearch("b", SmallQuery()).ok());

  // Room for exactly one base (whichever is larger): shrinking the budget
  // must evict the least recently used of the two, which is a.
  const std::size_t budget = std::max(bytes_a, bytes_b) * 5 / 4;
  engine.registry().SetPreparedBudget(budget);

  auto info = DescribeByName(engine);
  EXPECT_EQ(info.at("b").tier, "resident");
  EXPECT_EQ(info.at("a").tier, "mapped");
  EXPECT_TRUE(info.at("a").prepared);  // mapped still serves
  EXPECT_LE(engine.registry().prepared_bytes(), budget);

  // Queries on the evicted dataset are served off its checkpoint — the
  // caller never sees FailedPrecondition — with the resident answer's bits.
  Result<MatchResult> m = engine.SimilaritySearch("a", SmallQuery());
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->match.ref.series, before->match.ref.series);
  EXPECT_EQ(m->match.ref.start, before->match.ref.start);
  EXPECT_EQ(m->match.normalized_dtw, before->match.normalized_dtw);

  // A write promotes a back to resident, and the LRU rolls over to b.
  ASSERT_TRUE(engine.ExtendSeries("a", 0, {0.25}).ok());
  info = DescribeByName(engine);
  EXPECT_EQ(info.at("a").tier, "resident");
  EXPECT_EQ(info.at("b").tier, "mapped");
  EXPECT_LE(engine.registry().prepared_bytes(), budget);
}

TEST(EngineRegistryTest, QueryTouchProtectsHotDatasetFromEviction) {
  DurableEngine durable("touch");
  Engine& engine = durable.engine();
  durable.LoadPrepared("a", MakeData(6, 24, 1));
  durable.LoadPrepared("b", MakeData(6, 24, 2));
  // c is deliberately smaller than a and b so admitting it evicts exactly
  // one victim.
  ASSERT_TRUE(engine.LoadDataset("c", MakeData(3, 20, 3)).ok());

  // Budget exactly fits a and b, then touch a so b is the LRU victim.
  engine.registry().SetPreparedBudget(engine.registry().prepared_bytes());
  ASSERT_TRUE(engine.SimilaritySearch("a", SmallQuery()).ok());
  ASSERT_TRUE(engine.Prepare("c", Quick()).ok());

  const auto info = DescribeByName(engine);
  EXPECT_EQ(info.at("a").tier, "resident")
      << "recently queried dataset evicted";
  EXPECT_EQ(info.at("c").tier, "resident");
  EXPECT_EQ(info.at("b").tier, "mapped");
}

TEST(EngineRegistryTest, ShrinkingBudgetEvictsImmediately) {
  DurableEngine durable("shrink");
  Engine& engine = durable.engine();
  durable.LoadPrepared("a", MakeData(6, 24, 1));
  ASSERT_GT(engine.registry().prepared_bytes(), 0u);

  engine.registry().SetPreparedBudget(1);
  // A single resident base is never the protected installee here, so the
  // shrink evicts it outright.
  EXPECT_EQ(engine.registry().prepared_bytes(), 0u);
  EXPECT_EQ(TierOf(engine, "a"), "mapped");
}

TEST(EngineRegistryTest, MemoryOnlyRegistryEvictsNothing) {
  // Without durability an evicted base would have no checkpoint to serve
  // from, so the budget is recorded but never enforced.
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", MakeData(6, 24, 1)).ok());
  ASSERT_TRUE(engine.Prepare("a", Quick()).ok());
  const std::size_t bytes = engine.registry().prepared_bytes();
  ASSERT_GT(bytes, 0u);

  engine.registry().SetPreparedBudget(1);
  EXPECT_EQ(engine.registry().prepared_budget(), 1u);
  EXPECT_EQ(engine.registry().prepared_bytes(), bytes);
  EXPECT_EQ(TierOf(engine, "a"), "resident");
  EXPECT_TRUE(engine.SimilaritySearch("a", SmallQuery()).ok());
}

TEST(EngineRegistryTest, ExplicitRePrepareRebaselinesNormalization) {
  // The flip side of the frozen contract: a resident append keeps the old
  // extrema (newcomer squeezed through them), and an analyst's explicit
  // re-PREPARE is the one knob that folds the new values into the scale.
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", MakeData(6, 24, 1)).ok());
  ASSERT_TRUE(engine.Prepare("a", Quick()).ok());
  const double frozen_max = (*engine.Get("a"))->norm_params.max;
  ASSERT_LT(frozen_max, 10.0);  // sine families stay near [-1, 1]

  std::vector<double> big;
  for (int i = 0; i < 24; ++i) big.push_back(50.0 + 0.5 * i);
  ASSERT_TRUE(
      engine.AppendSeries("a", TimeSeries("late", std::move(big))).ok());
  // Resident append froze the parameters...
  EXPECT_DOUBLE_EQ((*engine.Get("a"))->norm_params.max, frozen_max);

  // ...and re-preparing re-baselines them over the extended raw data.
  ASSERT_TRUE(engine.Prepare("a", Quick()).ok());
  EXPECT_GE((*engine.Get("a"))->norm_params.max, 50.0);
  EXPECT_EQ((*engine.Get("a"))->normalized->size(), 7u);
}

TEST(EngineRegistryTest, NeverPreparedDatasetStillFailsPrecondition) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("raw", MakeData(4, 16, 9)).ok());
  const Result<MatchResult> m = engine.SimilaritySearch("raw", SmallQuery());
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineRegistryTest, DropReleasesAccountedBytes) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", MakeData(6, 24, 1)).ok());
  ASSERT_TRUE(engine.Prepare("a", Quick()).ok());
  ASSERT_GT(engine.registry().prepared_bytes(), 0u);
  ASSERT_TRUE(engine.DropDataset("a").ok());
  EXPECT_EQ(engine.registry().prepared_bytes(), 0u);
  EXPECT_TRUE(engine.registry().Describe().empty());
}

TEST(EngineRegistryTest, DestructionDrainsInFlightRegroupJobs) {
  // The registry destructor must wait for scheduled jobs; under ASan this
  // catches any use-after-free of slots or accounting.
  {
    Engine engine;
    ASSERT_TRUE(engine.LoadDataset("big", MakeData(10, 64, 5)).ok());
    BaseBuildOptions opt;
    opt.st = 0.2;
    ASSERT_TRUE(engine.Prepare("big", opt).ok());
    std::vector<std::size_t> lengths;
    for (std::size_t len = 4; len <= 64; ++len) lengths.push_back(len);
    RegroupTicket ticket = engine.registry().RegroupAsync("big", lengths);
    ASSERT_TRUE(ticket.valid());
  }  // engine destroyed with the job possibly still running
  SUCCEED();
}

TEST(EngineRegistryTest, MatchOnAIsNotBlockedByPrepareOfB) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", MakeData(6, 24, 1)).ok());
  ASSERT_TRUE(engine.Prepare("a", Quick()).ok());
  // Warm up: caches touched, one query verified.
  ASSERT_TRUE(engine.SimilaritySearch("a", SmallQuery()).ok());

  BaseBuildOptions heavy;
  heavy.st = 0.15;
  heavy.min_length = 4;
  heavy.max_length = 0;  // every length up to the longest series

  // A full-length sweep over b is orders of magnitude heavier than one
  // query on a, so queries must observably complete while it builds.
  // Wall-clock overlap can still be starved on a loaded one-core runner,
  // so escalate b's size until at least one query lands mid-prepare
  // instead of asserting on a single timing.
  int overlapped = 0;
  for (std::size_t weight = 16; weight <= 128 && overlapped == 0;
       weight *= 2) {
    const std::string bname = StrFormat("b%zu", weight);
    gen::RandomWalkOptions wopt;
    wopt.num_series = weight;
    wopt.length = 96;
    wopt.seed = 11;
    ASSERT_TRUE(engine.LoadDataset(bname, gen::MakeRandomWalks(wopt)).ok());

    std::atomic<bool> done{false};
    Status prepared = Status::Internal("prepare never ran");
    std::thread preparer([&] {
      prepared = engine.Prepare(bname, heavy);
      done.store(true);
    });
    // No ASSERT while the preparer runs: leaving the test with a joinable
    // thread would terminate the process.
    Status queried = Status::OK();
    int issued = 0;
    while (!done.load() && queried.ok()) {
      Result<MatchResult> m = engine.SimilaritySearch(
          "a", SmallQuery(static_cast<std::size_t>(issued % 6)));
      queried = m.status();
      ++issued;
      if (queried.ok() && !done.load()) ++overlapped;
    }
    preparer.join();
    ASSERT_TRUE(queried.ok()) << queried.ToString();
    ASSERT_TRUE(prepared.ok()) << prepared.ToString();
    ASSERT_TRUE(DescribeByName(engine).at(bname).prepared);
  }
  EXPECT_GT(overlapped, 0)
      << "no query on dataset a completed while any prepare of b ran — "
         "per-slot isolation is broken";
}

TEST(EngineRegistryTest, RegistryOptionsConstructorAppliesBudget) {
  DatasetRegistryOptions opt;
  opt.prepared_budget_bytes = 123456;
  Engine engine(opt);
  EXPECT_EQ(engine.registry().prepared_budget(), 123456u);
}

}  // namespace
}  // namespace onex
