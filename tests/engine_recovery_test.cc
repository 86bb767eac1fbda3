/// Crash-injection harness for the durability layer (DESIGN.md §13).
///
/// The contract under test: once a mutation is acknowledged, a crash at ANY
/// later byte of WAL history recovers a slot whose fixed query battery —
/// raw and normalized values, group membership class for class, per-class
/// drift, MATCH/KNN distances — is bit-identical to the pre-crash in-memory
/// engine; a crash mid-append loses exactly the one un-acknowledged write
/// and nothing else; and corrupted logs (random flips, truncations,
/// duplicated tails) recover either a clean prefix of true history or a
/// structured error — never UB, a hang, or a silently different base. Run
/// under ASan and TSan in CI.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/common/string_utils.h"
#include "onex/core/incremental.h"
#include "onex/engine/engine.h"
#include "onex/engine/snapshot_ops.h"
#include "onex/engine/wal.h"
#include "onex/net/protocol.h"
#include "test_util.h"

namespace onex {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/onex_recovery_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void CopyDir(const std::string& src, const std::string& dst) {
  fs::remove_all(dst);
  fs::copy(src, dst, fs::copy_options::recursive);
}

DurabilityOptions TestDurability(const std::string& dir,
                                 std::uint64_t every = 0) {
  DurabilityOptions opt;
  opt.dir = dir;
  opt.checkpoint_every = every;
  // No fsync in tests: a simulated crash copies flushed file contents, so
  // nothing is lost, and the matrix runs hundreds of recoveries.
  opt.fsync = false;
  return opt;
}

/// The fixed query battery: every observable the acceptance criterion
/// compares bit-for-bit between a recovered engine and its uncrashed twin.
struct Battery {
  bool present = false;
  bool prepared = false;
  std::vector<std::string> names;
  std::vector<std::vector<double>> raw;
  std::vector<std::vector<double>> normalized;
  double norm_min = 0.0, norm_max = 0.0;
  std::vector<std::pair<double, double>> per_series;
  std::size_t groups = 0, members = 0, classes = 0;
  /// Per class: length, then per-group member (series,start) refs.
  std::vector<std::pair<std::size_t, std::vector<std::vector<
      std::pair<std::size_t, std::size_t>>>>> membership;
  std::vector<double> drift;  ///< Per-class outlier fractions.
  /// Flattened KNN answers: (match series, start, length, dtw,
  /// normalized_dtw) for each fixed query spec.
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t, double,
                         double>> knn;
};

Battery Capture(Engine& engine, const std::string& name) {
  Battery b;
  Result<std::shared_ptr<const PreparedDataset>> got = engine.Get(name);
  if (!got.ok()) return b;
  const PreparedDataset& ds = **got;
  b.present = true;
  b.prepared = ds.prepared();
  for (const TimeSeries& ts : ds.raw->series()) {
    b.names.push_back(ts.name());
    b.raw.push_back(ts.values());
  }
  if (ds.normalized != nullptr) {
    for (const TimeSeries& ts : ds.normalized->series()) {
      b.normalized.push_back(ts.values());
    }
    b.norm_min = ds.norm_params.min;
    b.norm_max = ds.norm_params.max;
    b.per_series = ds.norm_params.per_series;
  }
  if (!b.prepared) return b;

  b.groups = ds.base->stats().num_groups;
  b.members = ds.base->stats().num_subsequences;
  b.classes = ds.base->stats().num_length_classes;
  for (const LengthClass& cls : ds.base->length_classes()) {
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> groups;
    for (const SimilarityGroup& g : cls.groups) {
      std::vector<std::pair<std::size_t, std::size_t>> refs;
      for (const SubseqRef& ref : g.members()) {
        refs.emplace_back(ref.series, ref.start);
      }
      groups.push_back(std::move(refs));
    }
    b.membership.emplace_back(cls.length, std::move(groups));
  }
  for (const LengthClassDrift& d : ComputeDrift(*ds.base)) {
    b.drift.push_back(d.fraction());
  }

  // Fixed MATCH/KNN battery over series that exist from the first op.
  const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> specs =
      {{0, 2, 8}, {1, 5, 6}, {2, 0, 9}};
  for (const auto& [series, start, len] : specs) {
    QuerySpec spec;
    spec.series = series;
    spec.start = start;
    spec.length = len;
    Result<std::vector<MatchResult>> knn = engine.Knn(name, spec, 3);
    EXPECT_TRUE(knn.ok()) << knn.status();
    if (!knn.ok()) continue;
    for (const MatchResult& m : *knn) {
      b.knn.emplace_back(m.match.ref.series, m.match.ref.start,
                         m.match.ref.length, m.match.dtw,
                         m.match.normalized_dtw);
    }
  }
  return b;
}

void ExpectBatteryEq(const Battery& want, const Battery& got,
                     const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(want.present, got.present);
  if (!want.present) return;
  EXPECT_EQ(want.prepared, got.prepared);
  EXPECT_EQ(want.names, got.names);
  ASSERT_EQ(want.raw, got.raw) << "raw values diverged";
  ASSERT_EQ(want.normalized, got.normalized) << "normalized values diverged";
  EXPECT_EQ(want.norm_min, got.norm_min);
  EXPECT_EQ(want.norm_max, got.norm_max);
  EXPECT_EQ(want.per_series, got.per_series);
  if (!want.prepared) return;
  EXPECT_EQ(want.groups, got.groups);
  EXPECT_EQ(want.members, got.members);
  EXPECT_EQ(want.classes, got.classes);
  ASSERT_EQ(want.membership, got.membership) << "group membership diverged";
  ASSERT_EQ(want.drift, got.drift);
  ASSERT_EQ(want.knn, got.knn) << "query answers diverged";
}

std::string Fingerprint(const Battery& b) {
  std::ostringstream out;
  out << b.present << '|' << b.prepared << '|';
  for (const auto& v : b.raw) {
    for (double x : v) out << StrFormat("%.17g,", x);
    out << ';';
  }
  for (const auto& v : b.normalized) {
    for (double x : v) out << StrFormat("%.17g,", x);
    out << ';';
  }
  out << b.groups << '|' << b.members << '|';
  for (const auto& [len, groups] : b.membership) {
    out << len << ':';
    for (const auto& g : groups) {
      for (const auto& [s, st] : g) out << s << '.' << st << ',';
      out << '/';
    }
  }
  for (const auto& [s, st, len, dtw, ndtw] : b.knn) {
    out << s << ',' << st << ',' << len << ','
        << StrFormat("%.17g,%.17g;", dtw, ndtw);
  }
  return out.str();
}

BaseBuildOptions SmallOptions(double st = 0.25) {
  BaseBuildOptions opt;
  opt.st = st;
  opt.min_length = 4;
  opt.max_length = 10;
  return opt;
}

/// One scripted mutation, applied identically to any engine. Keeping the
/// script as data lets the subject, its crash copies and the uncrashed
/// twin replay exactly the same acknowledged history.
struct Op {
  std::string description;
  std::function<void(Engine&)> apply;
};

std::vector<Op> ScriptedOps(const std::string& save_path) {
  std::vector<Op> ops;
  auto add = [&ops](std::string what, std::function<void(Engine&)> fn) {
    ops.push_back(Op{std::move(what), std::move(fn)});
  };
  add("load A", [](Engine& e) {
    ASSERT_TRUE(
        e.LoadDataset("A", onex::testing::SmallDataset(5, 20, 11)).ok());
  });
  add("prepare A", [](Engine& e) {
    ASSERT_TRUE(e.Prepare("A", SmallOptions()).ok());
  });
  add("extend A s0", [](Engine& e) {
    ASSERT_TRUE(e.ExtendSeries("A", 0, {0.31, -0.2, 0.11, 0.4}).ok());
  });
  add("append A", [](Engine& e) {
    Rng rng(77);
    ASSERT_TRUE(
        e.AppendSeries(
             "A", TimeSeries("newcomer",
                             onex::testing::SmoothSeries(&rng, 12), "x"))
            .ok());
  });
  add("checkpoint A", [](Engine& e) {
    ASSERT_TRUE(e.registry().Checkpoint("A").ok());
  });
  add("extend A s2", [](Engine& e) {
    ASSERT_TRUE(e.ExtendSeries("A", 2, {0.9, 0.85, 0.8}).ok());
  });
  add("regroup A", [](Engine& e) {
    ASSERT_TRUE(e.registry().RegroupAsync("A", {4, 5, 6}).Wait().ok());
  });
  add("re-prepare A", [](Engine& e) {
    ASSERT_TRUE(e.Prepare("A", SmallOptions(0.2)).ok());
  });
  add("batch extend A", [](Engine& e) {
    std::vector<Engine::ExtendSpec> specs(2);
    specs[0].series = 1;
    specs[0].points = {0.05, 0.1};
    specs[1].series = 3;
    specs[1].points = {-0.4, -0.35, -0.3, -0.25, -0.2};
    ASSERT_TRUE(e.ExtendSeries("A", std::move(specs)).ok());
  });
  add("load+prepare B", [](Engine& e) {
    ASSERT_TRUE(
        e.LoadDataset("B", onex::testing::SmallDataset(4, 16, 23)).ok());
    ASSERT_TRUE(e.Prepare("B", SmallOptions()).ok());
  });
  add("save+loadbase C", [save_path](Engine& e) {
    ASSERT_TRUE(e.SavePrepared("A", save_path).ok());
    ASSERT_TRUE(e.LoadPrepared("C", save_path).ok());
  });
  add("checkpoint and map all under budget", [](Engine& e) {
    e.registry().SetPreparedBudget(1);
    e.registry().SetPreparedBudget(0);
  });
  add("query A off its mapping", [](Engine& e) {
    QuerySpec spec;
    spec.series = 0;
    spec.start = 2;
    spec.length = 8;
    ASSERT_TRUE(e.SimilaritySearch("A", spec).ok());
  });
  add("checkpoint A again", [](Engine& e) {
    ASSERT_TRUE(e.registry().Checkpoint("A").ok());
  });
  add("extend A after ckpt", [](Engine& e) {
    ASSERT_TRUE(e.ExtendSeries("A", 4, {1.1, 1.15}).ok());
  });
  return ops;
}

const std::vector<std::string> kDatasets = {"A", "B", "C"};

std::vector<Battery> CaptureAll(Engine& engine) {
  std::vector<Battery> out;
  for (const std::string& name : kDatasets) {
    out.push_back(Capture(engine, name));
  }
  return out;
}

void ExpectAllEq(const std::vector<Battery>& want,
                 const std::vector<Battery>& got, const std::string& where) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ExpectBatteryEq(want[i], got[i], where + " dataset " + kDatasets[i]);
  }
}

/// The crash matrix: run the script on a durable subject, snapshotting the
/// data dir after every acknowledged op; recovering any snapshot must
/// reproduce the subject's in-memory battery at that op, bit for bit, with
/// zero acknowledged writes lost.
TEST(EngineRecovery, CrashAtEveryRecordBoundaryRecoversBitIdentically) {
  const std::string dir = FreshDir("matrix");
  const std::string save_path = dir + "-savebase.onex";
  const std::vector<Op> ops = ScriptedOps(save_path);

  std::vector<std::vector<Battery>> at_op;
  {
    Engine subject;
    ASSERT_TRUE(subject.EnableDurability(TestDurability(dir)).ok());
    for (std::size_t k = 0; k < ops.size(); ++k) {
      ops[k].apply(subject);
      if (::testing::Test::HasFatalFailure()) return;
      at_op.push_back(CaptureAll(subject));
      CopyDir(dir, dir + "-crash-" + std::to_string(k));
    }
  }

  for (std::size_t k = 0; k < ops.size(); ++k) {
    const std::string crash_dir = dir + "-crash-" + std::to_string(k);
    Engine recovered;
    Status s = recovered.EnableDurability(TestDurability(crash_dir));
    ASSERT_TRUE(s.ok()) << "recovery after '" << ops[k].description
                        << "': " << s;
    ExpectAllEq(at_op[k], CaptureAll(recovered),
                "crash after '" + ops[k].description + "'");
    fs::remove_all(crash_dir);
  }
  fs::remove_all(dir);
  std::remove(save_path.c_str());
}

/// Torn writes: cut the WAL mid-record at several offsets inside the last
/// appended record; recovery must land exactly on the previous op's state —
/// the torn write was never acknowledged, everything before it was.
TEST(EngineRecovery, TornTailLosesExactlyTheUnacknowledgedWrite) {
  const std::string dir = FreshDir("torn");
  Engine subject;
  ASSERT_TRUE(subject.EnableDurability(TestDurability(dir)).ok());
  const std::string wal = dir + "/A/wal";

  ASSERT_TRUE(
      subject.LoadDataset("A", onex::testing::SmallDataset(5, 20, 3)).ok());
  ASSERT_TRUE(subject.Prepare("A", SmallOptions()).ok());

  struct Step {
    std::string what;
    std::size_t before = 0, after = 0;
    Battery battery_before;
  };
  std::vector<Step> steps;
  auto mutate = [&](const std::string& what, auto&& fn) {
    Step step;
    step.what = what;
    step.before = fs::file_size(wal);
    step.battery_before = Capture(subject, "A");
    fn();
    step.after = fs::file_size(wal);
    steps.push_back(std::move(step));
    CopyDir(dir, dir + "-post-" + std::to_string(steps.size() - 1));
  };
  mutate("extend", [&] {
    ASSERT_TRUE(subject.ExtendSeries("A", 0, {0.5, 0.6, 0.7}).ok());
  });
  mutate("append", [&] {
    Rng rng(5);
    ASSERT_TRUE(subject
                    .AppendSeries("A", TimeSeries("n", onex::testing::
                                                           SmoothSeries(
                                                               &rng, 10)))
                    .ok());
  });
  mutate("regroup", [&] {
    ASSERT_TRUE(subject.registry().RegroupAsync("A", {4, 5}).Wait().ok());
  });

  for (std::size_t k = 0; k < steps.size(); ++k) {
    const Step& step = steps[k];
    ASSERT_GT(step.after, step.before) << step.what;
    const std::vector<std::size_t> cuts = {
        step.before + 1, (step.before + step.after) / 2, step.after - 1};
    for (const std::size_t cut : cuts) {
      const std::string crash_dir = dir + "-torncase";
      CopyDir(dir + "-post-" + std::to_string(k), crash_dir);
      fs::resize_file(crash_dir + "/A/wal", cut);
      Engine recovered;
      Status s = recovered.EnableDurability(TestDurability(crash_dir));
      ASSERT_TRUE(s.ok()) << step.what << " cut=" << cut << ": " << s;
      ExpectBatteryEq(
          step.battery_before, Capture(recovered, "A"),
          StrFormat("torn %s cut=%zu", step.what.c_str(), cut));
      fs::remove_all(crash_dir);
    }
    fs::remove_all(dir + "-post-" + std::to_string(k));
  }
  fs::remove_all(dir);
}

/// Differential recovery oracle (8 seeded random schedules): run an
/// identical randomized schedule on a durable subject and a durable twin in
/// separate dirs, crash the subject at a random acknowledged-op boundary,
/// recover, and compare the full battery against the uncrashed twin's state
/// at that boundary.
TEST(EngineRecovery, SeededRandomSchedulesMatchUncrashedTwin) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(StrFormat("seed=%llu",
                           static_cast<unsigned long long>(seed)));
    const std::string subject_dir =
        FreshDir("diff_subject_" + std::to_string(seed));
    const std::string twin_dir = FreshDir("diff_twin_" + std::to_string(seed));

    constexpr std::size_t kOps = 25;
    Rng pick(seed * 7919);
    const std::size_t crash_at = pick.UniformIndex(kOps);

    // One deterministic schedule, expressed as data so both engines replay
    // the identical acknowledged history.
    std::vector<std::function<void(Engine&)>> schedule;
    schedule.push_back([seed](Engine& e) {
      ASSERT_TRUE(
          e.LoadDataset("A", onex::testing::SmallDataset(4, 18, seed)).ok());
      ASSERT_TRUE(e.Prepare("A", SmallOptions()).ok());
    });
    Rng gen(seed * 104729);
    for (std::size_t i = 1; i < kOps; ++i) {
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
      } else if (roll < 0.70) {
        const std::vector<double> values =
            onex::testing::RandomSeries(&gen, 8 + gen.UniformIndex(8));
        const std::string name = "app_" + std::to_string(i);
        schedule.push_back([name, values](Engine& e) {
          ASSERT_TRUE(e.AppendSeries("A", TimeSeries(name, values)).ok());
        });
      } else if (roll < 0.80) {
        schedule.push_back([](Engine& e) {
          ASSERT_TRUE(e.registry().RegroupAsync("A", {4, 5, 6, 7})
                          .Wait()
                          .ok());
        });
      } else if (roll < 0.90) {
        schedule.push_back([](Engine& e) {
          ASSERT_TRUE(e.registry().Checkpoint("A").ok());
        });
      } else {
        const double st = 0.15 + 0.1 * gen.Uniform();
        schedule.push_back([st](Engine& e) {
          ASSERT_TRUE(e.Prepare("A", SmallOptions(st)).ok());
        });
      }
    }

    Battery twin_at_crash;
    {
      Engine twin;
      ASSERT_TRUE(twin.EnableDurability(TestDurability(twin_dir)).ok());
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        schedule[i](twin);
        if (::testing::Test::HasFatalFailure()) return;
        if (i == crash_at) twin_at_crash = Capture(twin, "A");
      }
    }
    {
      Engine subject;
      ASSERT_TRUE(subject.EnableDurability(TestDurability(subject_dir)).ok());
      for (std::size_t i = 0; i <= crash_at; ++i) {
        schedule[i](subject);
        if (::testing::Test::HasFatalFailure()) return;
      }
      // The "crash": the subject dies here with its files as they are.
    }
    Engine recovered;
    Status s = recovered.EnableDurability(TestDurability(subject_dir));
    ASSERT_TRUE(s.ok()) << s;
    ExpectBatteryEq(twin_at_crash, Capture(recovered, "A"),
                    StrFormat("crash at op %zu", crash_at));

    fs::remove_all(subject_dir);
    fs::remove_all(twin_dir);
  }
}

/// Fuzzed WAL corruption: random byte flips, truncations and duplicated
/// tails over a real data dir. Every attempt must end in a structured error
/// or a recovery whose battery matches SOME acknowledged state of true
/// history — never UB, never a hang, never a novel base.
TEST(EngineRecovery, FuzzedCorruptionNeverRecoversSilentlyWrongState) {
  const std::string dir = FreshDir("fuzz");
  std::set<std::string> legal;  // fingerprints of every acknowledged state
  {
    Engine subject;
    ASSERT_TRUE(subject.EnableDurability(TestDurability(dir)).ok());
    ASSERT_TRUE(
        subject.LoadDataset("A", onex::testing::SmallDataset(4, 16, 9)).ok());
    legal.insert(Fingerprint(Capture(subject, "A")));
    ASSERT_TRUE(subject.Prepare("A", SmallOptions()).ok());
    legal.insert(Fingerprint(Capture(subject, "A")));
    ASSERT_TRUE(subject.registry().Checkpoint("A").ok());
    legal.insert(Fingerprint(Capture(subject, "A")));
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(subject.ExtendSeries("A", i, {0.1 * i, 0.2, -0.1}).ok());
      legal.insert(Fingerprint(Capture(subject, "A")));
    }
  }
  std::string wal_bytes;
  {
    std::ifstream in(dir + "/A/wal", std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    wal_bytes = buf.str();
  }

  Rng rng(4242);
  int errors = 0, recoveries = 0;
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = wal_bytes;
    switch (rng.UniformIndex(3)) {
      case 0: {  // byte flip
        const std::size_t pos = rng.UniformIndex(mutated.size());
        mutated[pos] = static_cast<char>(
            mutated[pos] ^ static_cast<char>(1 << rng.UniformIndex(8)));
        break;
      }
      case 1:  // truncation
        mutated.resize(rng.UniformIndex(mutated.size()));
        break;
      default: {  // duplicated tail
        const std::size_t tail = 1 + rng.UniformIndex(mutated.size() - 1);
        mutated += mutated.substr(mutated.size() - tail);
        break;
      }
    }
    const std::string crash_dir = dir + "-fuzzcase";
    CopyDir(dir, crash_dir);
    {
      std::ofstream out(crash_dir + "/A/wal",
                        std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    Engine recovered;
    Status s = recovered.EnableDurability(TestDurability(crash_dir));
    if (!s.ok()) {
      ++errors;  // clean structured rejection
    } else {
      Battery b = Capture(recovered, "A");
      if (b.present) {
        EXPECT_TRUE(legal.contains(Fingerprint(b)))
            << "trial " << trial
            << " recovered a state that was never acknowledged";
      }
      ++recoveries;
    }
    fs::remove_all(crash_dir);
  }
  // Both outcomes must actually occur for the fuzz to mean anything.
  EXPECT_GT(errors, 0);
  EXPECT_GT(recoveries, 0);
  fs::remove_all(dir);
}

/// Durability is a property a dataset has from birth: an engine that
/// already holds a dataset refuses to enable it, stays memory-only, keeps
/// answering as before and creates nothing under the dir. A fresh engine
/// then enables durability there (once).
TEST(EngineRecovery, EnableDurabilityAfterALoadIsRefused) {
  const std::string dir = FreshDir("late_enable") + "/data";
  Engine subject;
  ASSERT_TRUE(
      subject.LoadDataset("A", onex::testing::SmallDataset(4, 18, 31)).ok());
  ASSERT_TRUE(subject.Prepare("A", SmallOptions()).ok());
  ASSERT_TRUE(subject.ExtendSeries("A", 1, {0.2, 0.3}).ok());
  const Battery before = Capture(subject, "A");

  const Status refused = subject.EnableDurability(TestDurability(dir));
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;
  EXPECT_FALSE(subject.registry().durable());
  EXPECT_TRUE(subject.registry().data_dir().empty());
  Result<DatasetSlotInfo> d = subject.registry().Describe("A");
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->durable);
  ExpectBatteryEq(before, Capture(subject, "A"), "after the refusal");
  EXPECT_FALSE(fs::exists(dir)) << "a refused enable must create nothing";

  Engine fresh;
  ASSERT_TRUE(fresh.EnableDurability(TestDurability(dir)).ok());
  EXPECT_EQ(fresh.EnableDurability(TestDurability(dir)).code(),
            StatusCode::kFailedPrecondition)
      << "second enable must be FailedPrecondition";
  fs::remove_all(fs::path(dir).parent_path());
}

/// PERSIST racing the first slot births (GEN, then LOADBASE) on another
/// thread. Every round ends in exactly one of two states: PERSIST won, the
/// registry is durable, every slot has journaled its birth and a restart
/// reproduces both; or PERSIST was refused and nothing was journaled.
/// Never a durable registry holding an unjournaled slot. Runs under TSan
/// and ASan in CI.
TEST(EngineRecovery, PersistRacingFirstLoadsNeverLeavesAnUnjournaledSlot) {
  const std::string root = FreshDir("persist_race");
  const std::string base_path = root + "/b.base";
  {
    Engine maker;
    ASSERT_TRUE(
        maker.LoadDataset("b", onex::testing::SmallDataset(3, 14, 12)).ok());
    ASSERT_TRUE(maker.Prepare("b", SmallOptions()).ok());
    ASSERT_TRUE(maker.SavePrepared("b", base_path).ok());
  }
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE(StrFormat("round=%d", round));
    const std::string dir = root + "/data-" + std::to_string(round);
    std::vector<Battery> live;
    json::Value persisted;
    {
      Engine engine;
      std::atomic<int> ready{0};
      auto run = [&engine](const std::string& line) {
        return net::ExecuteCommand(&engine, *net::ParseCommandLine(line));
      };
      std::thread persister([&] {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        // A per-round head start for the loads, so both outcomes occur.
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::microseconds(round % 20 * 2);
        while (std::chrono::steady_clock::now() < until) {
        }
        persisted = run("PERSIST dir=" + dir + " fsync=0");
      });
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      const json::Value gen = run("GEN g sine num=3 len=16 seed=5");
      const json::Value loadbase = run("LOADBASE b " + base_path);
      persister.join();
      ASSERT_TRUE(gen["ok"].as_bool()) << gen.Dump();
      ASSERT_TRUE(loadbase["ok"].as_bool()) << loadbase.Dump();

      const std::vector<DatasetSlotInfo> slots = engine.registry().Describe();
      ASSERT_EQ(slots.size(), 2u);
      if (persisted["ok"].as_bool()) {
        EXPECT_TRUE(engine.registry().durable());
        for (const DatasetSlotInfo& slot : slots) {
          EXPECT_TRUE(slot.durable) << slot.name;
          EXPECT_GE(slot.wal_seq, 1u) << slot.name;
        }
        live = {Capture(engine, "g"), Capture(engine, "b")};
      } else {
        EXPECT_EQ(persisted["code"].as_string(), "FailedPrecondition")
            << persisted.Dump();
        EXPECT_FALSE(engine.registry().durable());
        for (const DatasetSlotInfo& slot : slots) {
          EXPECT_FALSE(slot.durable) << slot.name;
          EXPECT_EQ(slot.wal_seq, 0u) << slot.name;
        }
        EXPECT_FALSE(fs::exists(dir)) << "a refused PERSIST journaled";
      }
    }
    if (!live.empty()) {
      Engine recovered;
      ASSERT_TRUE(recovered.EnableDurability(TestDurability(dir)).ok());
      ExpectBatteryEq(live[0], Capture(recovered, "g"), "restart g");
      ExpectBatteryEq(live[1], Capture(recovered, "b"), "restart b");
    }
    fs::remove_all(dir);
    if (::testing::Test::HasFailure()) break;
  }
  fs::remove_all(root);
}

/// Dropped datasets stay dropped: DROP removes the journal, and restart
/// does not resurrect the slot.
TEST(EngineRecovery, DropRemovesDurableState) {
  const std::string dir = FreshDir("drop");
  {
    Engine subject;
    ASSERT_TRUE(subject.EnableDurability(TestDurability(dir)).ok());
    ASSERT_TRUE(
        subject.LoadDataset("A", onex::testing::SmallDataset(3, 12, 2)).ok());
    ASSERT_TRUE(
        subject.LoadDataset("B", onex::testing::SmallDataset(3, 12, 4)).ok());
    ASSERT_TRUE(subject.DropDataset("A").ok());
  }
  Engine recovered;
  ASSERT_TRUE(recovered.EnableDurability(TestDurability(dir)).ok());
  EXPECT_FALSE(recovered.Get("A").ok());
  EXPECT_TRUE(recovered.Get("B").ok());
  fs::remove_all(dir);
}

/// A crash at slot birth (directory with a torn or header-only WAL) left
/// nothing acknowledged: recovery must clear the husk so the name stays
/// loadable, not wedge it forever.
TEST(EngineRecovery, CrashAtSlotBirthDoesNotWedgeTheName) {
  const std::string dir = FreshDir("birth");
  for (const std::string& content : {std::string("ONEXW"),  // torn header
                                     std::string()}) {      // empty wal
    fs::remove_all(dir + "/A");
    fs::create_directories(dir + "/A");
    std::ofstream(dir + "/A/wal", std::ios::binary) << content;
    Engine recovered;
    ASSERT_TRUE(recovered.EnableDurability(TestDurability(dir)).ok());
    EXPECT_FALSE(recovered.Get("A").ok()) << "no write was acknowledged";
    // The name must be reusable immediately.
    ASSERT_TRUE(
        recovered.LoadDataset("A", onex::testing::SmallDataset(3, 12, 6))
            .ok());
    ASSERT_TRUE(recovered.Prepare("A", SmallOptions()).ok());
    ASSERT_TRUE(recovered.DropDataset("A").ok());
  }
  fs::remove_all(dir);
}

/// Two slot directories whose logs name the same dataset are corrupt
/// state, not two slots: recovery refuses them with a structured error and
/// registers nothing, so the engine stays memory-only and retryable.
TEST(EngineRecovery, TwoDirectoriesHoldingOneDatasetAreRefused) {
  const std::string dir = FreshDir("dup_name");
  {
    Engine subject;
    ASSERT_TRUE(subject.EnableDurability(TestDurability(dir)).ok());
    ASSERT_TRUE(
        subject.LoadDataset("A", onex::testing::SmallDataset(3, 12, 7)).ok());
  }
  CopyDir(dir + "/" + SlotDirName("A"), dir + "/copy-of-A");
  Engine recovered;
  const Status s = recovered.EnableDurability(TestDurability(dir));
  EXPECT_EQ(s.code(), StatusCode::kParseError) << s;
  EXPECT_FALSE(recovered.registry().durable());
  EXPECT_TRUE(recovered.ListDatasets().empty());
  fs::remove_all(dir + "/copy-of-A");
  EXPECT_TRUE(recovered.EnableDurability(TestDurability(dir)).ok());
  EXPECT_TRUE(recovered.Get("A").ok());
  fs::remove_all(dir);
}

/// Background checkpoints racing live queries and extends: the TSan
/// acceptance test for the checkpoint's capture-and-rotate critical
/// section. After the dust settles, a restart still answers identically.
TEST(EngineRecovery, CheckpointsRaceQueriesWithoutTornState) {
  const std::string dir = FreshDir("race");
  Battery live;
  {
    Engine subject;
    ASSERT_TRUE(subject
                    .EnableDurability(TestDurability(dir, /*every=*/3))
                    .ok());
    ASSERT_TRUE(
        subject.LoadDataset("A", onex::testing::SmallDataset(4, 18, 55)).ok());
    ASSERT_TRUE(subject.Prepare("A", SmallOptions()).ok());

    std::atomic<bool> stop{false};
    std::atomic<int> queries_ok{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
      readers.emplace_back([&subject, &stop, &queries_ok] {
        QuerySpec spec;
        spec.series = 0;
        spec.start = 2;
        spec.length = 8;
        while (!stop.load()) {
          Result<MatchResult> r = subject.SimilaritySearch("A", spec);
          ASSERT_TRUE(r.ok()) << r.status();
          ++queries_ok;
        }
      });
    }
    // At least 24 extends, and keep going until every reader has answered
    // at least once so the race is real (mirrors the engine_concurrency
    // fix: never assert on readers that might not have started yet).
    for (int i = 0; i < 24 || queries_ok.load() < 3; ++i) {
      ASSERT_TRUE(
          subject.ExtendSeries("A", i % 4, {0.01 * i, -0.02 * i}).ok());
    }
    stop.store(true);
    for (std::thread& t : readers) t.join();
    EXPECT_GT(queries_ok.load(), 0);

    // Fold the tail into one last checkpoint (a still-retiring background
    // checkpoint leaves the slot untouched, so this is stable), then
    // capture what a restart must reproduce.
    ASSERT_TRUE(subject.registry().Checkpoint("A").ok());
    live = Capture(subject, "A");
  }
  Engine recovered;
  ASSERT_TRUE(recovered.EnableDurability(TestDurability(dir)).ok());
  ExpectBatteryEq(live, Capture(recovered, "A"), "post-race restart");
  fs::remove_all(dir);
}

/// A checkpoint taken with no write since the last one, whose log rotation
/// then fails, must leave the live log's replay floor in place: every
/// acknowledged record, before and after the failure, survives a restart.
TEST(EngineRecovery, RepeatedCheckpointWhoseRotationFailsKeepsTheFloor) {
  const std::string dir = FreshDir("ckpt_twice");
  const std::string slot_dir = dir + "/" + SlotDirName("A");
  Battery live;
  {
    Engine subject;
    ASSERT_TRUE(subject.EnableDurability(TestDurability(dir)).ok());
    ASSERT_TRUE(
        subject.LoadDataset("A", onex::testing::SmallDataset(4, 16, 9)).ok());
    ASSERT_TRUE(subject.Prepare("A", SmallOptions()).ok());
    ASSERT_TRUE(subject.ExtendSeries("A", 1, {0.2, 0.4}).ok());
    ASSERT_TRUE(subject.registry().Checkpoint("A").ok());
    // The rotation writes the fresh log through wal.tmp; a directory there
    // makes that write fail after the new checkpoint file is in place.
    fs::create_directory(slot_dir + "/wal.tmp");
    EXPECT_FALSE(subject.registry().Checkpoint("A").ok());
    fs::remove(slot_dir + "/wal.tmp");
    ASSERT_TRUE(subject.ExtendSeries("A", 2, {0.6, 0.1}).ok());
    live = Capture(subject, "A");
  }
  Engine recovered;
  ASSERT_TRUE(recovered.EnableDurability(TestDurability(dir)).ok());
  ExpectBatteryEq(live, Capture(recovered, "A"), "after a failed rotation");
  fs::remove_all(dir);
}

/// Quick end-to-end smoke for scripts/check.sh: load, prepare, stream,
/// restart, same answers.
TEST(EngineRecovery, SmokeRestart) {
  const std::string dir = FreshDir("smoke");
  Battery live;
  {
    Engine subject;
    ASSERT_TRUE(subject.EnableDurability(TestDurability(dir)).ok());
    ASSERT_TRUE(
        subject.LoadDataset("A", onex::testing::SmallDataset(4, 16, 1)).ok());
    ASSERT_TRUE(subject.Prepare("A", SmallOptions()).ok());
    ASSERT_TRUE(subject.ExtendSeries("A", 0, {0.4, 0.5}).ok());
    live = Capture(subject, "A");
  }
  Engine recovered;
  ASSERT_TRUE(recovered.EnableDurability(TestDurability(dir)).ok());
  ExpectBatteryEq(live, Capture(recovered, "A"), "smoke");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace onex
