/// Saving and loading an OnexBase. The one on-disk form of a base is the
/// ONEXARENA blob (core/arena_layout.h), written and read as a file by
/// WriteCheckpointFile/ReadCheckpointFile (the SAVEBASE/LOADBASE and
/// checkpoint path). These cases pin what a save/load round trip keeps —
/// structure, exact values, names, build options and query answers — and
/// that bad files and paths fail cleanly. Byte stability and the
/// truncation/flip fuzzing live in core_arena_golden_test.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/string_utils.h"
#include "onex/core/arena_layout.h"
#include "onex/core/onex_base.h"
#include "onex/core/query_processor.h"
#include "onex/distance/euclidean.h"
#include "onex/engine/dataset_registry.h"
#include "onex/engine/engine.h"
#include "onex/engine/file_ops.h"
#include "onex/engine/snapshot_ops.h"
#include "onex/engine/wal.h"
#include "onex/gen/generators.h"
#include "onex/ts/normalization.h"

namespace onex {
namespace {

/// A prepared sine-family dataset: raw values, frozen min-max
/// normalization and the base built on the normalized copy.
struct Prepared {
  Dataset raw;
  NormalizationParams params;
  std::shared_ptr<const OnexBase> base;
};

Prepared MakePrepared(Dataset raw,
                      CentroidPolicy policy = CentroidPolicy::kRunningMean) {
  Prepared p;
  p.raw = std::move(raw);
  Result<Dataset> norm =
      Normalize(p.raw, NormalizationKind::kMinMaxDataset, &p.params);
  EXPECT_TRUE(norm.ok()) << norm.status();
  auto ds = std::make_shared<const Dataset>(*std::move(norm));
  BaseBuildOptions opt;
  opt.st = 0.2;
  opt.min_length = 4;
  opt.max_length = 10;
  opt.length_step = 2;
  opt.centroid_policy = policy;
  Result<OnexBase> base = OnexBase::Build(ds, opt);
  EXPECT_TRUE(base.ok()) << base.status();
  p.base = std::make_shared<const OnexBase>(*std::move(base));
  return p;
}

Prepared MakeSines(CentroidPolicy policy = CentroidPolicy::kRunningMean) {
  gen::SineFamilyOptions gopt;
  gopt.num_series = 6;
  gopt.length = 20;
  gopt.seed = 42;
  return MakePrepared(gen::MakeSineFamilies(gopt), policy);
}

std::string Save(const Prepared& p) {
  Result<std::string> bytes = EncodeArena(
      p.raw, NormalizationKind::kMinMaxDataset, p.params, *p.base);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return *std::move(bytes);
}

/// Parses a copy of `bytes` and realizes it; the stores pin the copy.
Result<RealizedArena> Load(const std::string& bytes) {
  auto buffer = std::make_shared<const std::string>(bytes);
  Result<ArenaView> view = ParseArena(
      std::as_bytes(std::span<const char>(buffer->data(), buffer->size())));
  if (!view.ok()) return view.status();
  return RealizeArena(*view, std::move(buffer));
}

void ExpectBasesEquivalent(const OnexBase& a, const OnexBase& b) {
  ASSERT_EQ(a.length_classes().size(), b.length_classes().size());
  EXPECT_EQ(a.TotalGroups(), b.TotalGroups());
  EXPECT_EQ(a.TotalMembers(), b.TotalMembers());
  for (std::size_t c = 0; c < a.length_classes().size(); ++c) {
    const LengthClass& ca = a.length_classes()[c];
    const LengthClass& cb = b.length_classes()[c];
    ASSERT_EQ(ca.length, cb.length);
    ASSERT_EQ(ca.groups.size(), cb.groups.size());
    for (std::size_t g = 0; g < ca.groups.size(); ++g) {
      EXPECT_TRUE(std::ranges::equal(ca.groups[g].members(),
                                     cb.groups[g].members()));
      // The arena stores centroids as raw doubles: bit-exact.
      EXPECT_TRUE(std::ranges::equal(ca.groups[g].centroid_span(),
                                     cb.groups[g].centroid_span()))
          << "class " << c << " group " << g;
    }
  }
}

TEST(BaseIoTest, SaveLoadRoundTripsStructure) {
  const Prepared p = MakeSines();
  Result<RealizedArena> back = Load(Save(p));
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectBasesEquivalent(*p.base, *back->base);
  EXPECT_EQ(back->base->options().st, p.base->options().st);
  EXPECT_EQ(back->base->options().min_length, p.base->options().min_length);
  EXPECT_EQ(back->base->options().max_length, p.base->options().max_length);
  EXPECT_EQ(back->base->options().length_step, p.base->options().length_step);
  EXPECT_EQ(back->base->options().centroid_policy,
            p.base->options().centroid_policy);
  EXPECT_EQ(back->base->dataset().name(), p.base->dataset().name());
  EXPECT_EQ(back->base->dataset().size(), p.base->dataset().size());
}

TEST(BaseIoTest, RoundTripPreservesDatasetValuesExactly) {
  const Prepared p = MakeSines();
  Result<RealizedArena> back = Load(Save(p));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->raw->size(), p.raw.size());
  for (std::size_t s = 0; s < p.raw.size(); ++s) {
    EXPECT_EQ(p.raw[s].values(), (*back->raw)[s].values()) << "series " << s;
    EXPECT_EQ(p.base->dataset()[s].values(), back->base->dataset()[s].values())
        << "normalized series " << s;
    EXPECT_EQ(p.raw[s].name(), (*back->raw)[s].name());
    EXPECT_EQ(p.raw[s].label(), (*back->raw)[s].label());
  }
}

TEST(BaseIoTest, RoundTripPreservesQueryAnswers) {
  const Prepared p = MakeSines();
  Result<RealizedArena> back = Load(Save(p));
  ASSERT_TRUE(back.ok()) << back.status();

  QueryProcessor before(p.base.get());
  QueryProcessor after(back->base.get());
  const std::span<const double> q = p.base->dataset()[2].Slice(3, 8);
  QueryOptions opt;
  opt.exhaustive = true;
  Result<BestMatch> m0 = before.BestMatchQuery(q, opt);
  Result<BestMatch> m1 = after.BestMatchQuery(q, opt);
  ASSERT_TRUE(m0.ok());
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m0->ref, m1->ref);
  EXPECT_EQ(m0->normalized_dtw, m1->normalized_dtw);
}

TEST(BaseIoTest, FixedLeaderCentroidSurvivesRoundTrip) {
  const Prepared p = MakeSines(CentroidPolicy::kFixedLeader);
  Result<RealizedArena> back = Load(Save(p));
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectBasesEquivalent(*p.base, *back->base);
  // The leader invariant holds after restore: members within ST/2.
  const OnexBase& base = *back->base;
  for (const LengthClass& cls : base.length_classes()) {
    for (const SimilarityGroup& g : cls.groups) {
      for (const SubseqRef& ref : g.members()) {
        EXPECT_LE(NormalizedEuclidean(g.centroid_span(),
                                      ref.Resolve(base.dataset())),
                  base.options().st / 2.0 + 1e-9);
      }
    }
  }
}

TEST(BaseIoTest, QuotedNamesWithSpecialCharacters) {
  Dataset raw("data \"set\" with\ttabs");
  raw.Add(TimeSeries("series \"x\"", {0.1, 0.2, 0.3, 0.4, 0.5}, "l\\bel"));
  raw.Add(TimeSeries("plain", {0.5, 0.4, 0.3, 0.2, 0.1}));
  const Prepared p = MakePrepared(std::move(raw));
  Result<RealizedArena> back = Load(Save(p));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->raw->name(), "data \"set\" with\ttabs");
  EXPECT_EQ((*back->raw)[0].name(), "series \"x\"");
  EXPECT_EQ((*back->raw)[0].label(), "l\\bel");
  EXPECT_EQ(back->base->dataset()[0].name(), "series \"x\"");
}

PreparedDataset AsPrepared(const Prepared& p) {
  PreparedDataset ds;
  ds.name = "sines";
  ds.raw = std::make_shared<const Dataset>(p.raw);
  ds.normalized = p.base->shared_dataset();
  ds.norm_params = p.params;
  ds.norm_kind = NormalizationKind::kMinMaxDataset;
  ds.base = p.base;
  ds.build_options = p.base->options();
  return ds;
}

TEST(BaseIoTest, FileRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/onex_base_io_test.onexarena";
  const Prepared p = MakeSines();
  ASSERT_TRUE(WriteCheckpointFile(AsPrepared(p), path, /*sync=*/false).ok());
  Result<PreparedDataset> back = ReadCheckpointFile(path, "reloaded");
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->name, "reloaded");
  ASSERT_TRUE(back->prepared());
  EXPECT_FALSE(back->mapped());
  ExpectBasesEquivalent(*p.base, *back->base);
  ASSERT_EQ(back->raw->size(), p.raw.size());
  for (std::size_t s = 0; s < p.raw.size(); ++s) {
    EXPECT_EQ(p.raw[s].values(), (*back->raw)[s].values()) << "series " << s;
  }
  std::remove(path.c_str());
}

/// Every column of `store` — matrices, members and group sizes — in one
/// vector, so two reads can be compared.
std::vector<double> ReadColumns(const GroupStore& store) {
  std::vector<double> out;
  const auto append = [&out](std::span<const double> row) {
    out.insert(out.end(), row.begin(), row.end());
  };
  for (std::size_t g = 0; g < store.num_groups(); ++g) {
    append(store.centroid(g));
    append(store.envelope(g).lower);
    append(store.envelope(g).upper);
    append(store.centroid_envelope(g).lower);
    append(store.centroid_envelope(g).upper);
    out.push_back(static_cast<double>(store.group_size(g)));
    for (const SubseqRef& ref : store.members(g)) {
      out.push_back(static_cast<double>(ref.series));
      out.push_back(static_cast<double>(ref.start));
      out.push_back(static_cast<double>(ref.length));
    }
  }
  append(store.centroid_matrix());
  return out;
}

/// A store pins the bytes it reads. Stores copied out of a mapped, a read
/// and a written snapshot serve every column after the snapshot, its base
/// and the file are gone.
TEST(BaseIoTest, AStoreOutlivesItsBase) {
  const std::string path =
      ::testing::TempDir() + "/onex_store_outlives.onexarena";
  ASSERT_TRUE(
      WriteCheckpointFile(AsPrepared(MakeSines()), path, /*sync=*/false).ok());
  const auto written = [&]() -> Result<PreparedDataset> {
    ONEX_ASSIGN_OR_RETURN(PreparedDataset read, ReadCheckpointFile(path, "w"));
    const std::vector<SeriesExtension> ext = {{0, {0.3, 0.6}}, {2, {0.1}}};
    ONEX_ASSIGN_OR_RETURN(ExtendOutcome outcome, ApplyExtend(read, ext));
    return *outcome.snapshot;
  };
  const std::vector<
      std::pair<std::string, std::function<Result<PreparedDataset>()>>>
      sources = {
          {"mapped",
           [&] { return MapCheckpointFile(PosixFiles(), path, "m"); }},
          {"read", [&] { return ReadCheckpointFile(path, "r"); }},
          {"written", written}};
  std::vector<std::shared_ptr<const GroupStore>> stores;
  std::vector<std::vector<double>> want;
  for (const auto& [kind, load] : sources) {
    Result<PreparedDataset> snapshot = load();
    ASSERT_TRUE(snapshot.ok()) << kind << ": " << snapshot.status();
    EXPECT_EQ(snapshot->mapped(), kind == "mapped");
    for (const LengthClass& cls : snapshot->base->length_classes()) {
      stores.push_back(cls.store);
      want.push_back(ReadColumns(*cls.store));
    }
  }  // every snapshot, base and mapping handle but the stores' is gone
  ASSERT_EQ(std::remove(path.c_str()), 0);
  for (std::size_t i = 0; i < stores.size(); ++i) {
    EXPECT_EQ(ReadColumns(*stores[i]), want[i]) << "store " << i;
  }
}

/// LOADBASE reads the file into memory: once it returns, the file can be
/// overwritten and deleted, and the loaded slot answers as before.
TEST(BaseIoTest, LoadedBaseOutlivesItsFile) {
  const std::string path =
      ::testing::TempDir() + "/onex_loadbase_outlives.onexarena";
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("s", MakeSines().raw).ok());
  ASSERT_TRUE(engine.Prepare("s", BaseBuildOptions{}).ok());
  ASSERT_TRUE(engine.SavePrepared("s", path).ok());
  ASSERT_TRUE(engine.LoadPrepared("b", path).ok());
  const auto answers = [&engine] {
    std::string out;
    for (std::size_t series = 0; series < 4; ++series) {
      QuerySpec q;
      q.series = series;
      q.start = 1 + series;
      q.length = 6 + series;
      Result<std::vector<MatchResult>> knn = engine.Knn("b", q, 3);
      EXPECT_TRUE(knn.ok()) << knn.status();
      if (!knn.ok()) continue;
      for (const MatchResult& m : *knn) {
        out += StrFormat("%s %zu %a %a\n", m.match.ref.ToString().c_str(),
                         m.match.group_index, m.match.dtw,
                         m.match.rep_dtw);
      }
    }
    return out;
  };
  const std::string before = answers();
  ASSERT_FALSE(before.empty());
  {
    std::ofstream clobber(path, std::ios::binary | std::ios::trunc);
    clobber << std::string(4096, 'x');
  }
  EXPECT_EQ(answers(), before) << "the loaded slot read its file again";
  ASSERT_EQ(std::remove(path.c_str()), 0);
  EXPECT_EQ(answers(), before) << "the loaded slot read its file again";
}

TEST(BaseIoTest, MissingFileFails) {
  EXPECT_EQ(ReadCheckpointFile("/no/such/base.onexarena", "x").status().code(),
            StatusCode::kIoError);
  const Prepared p = MakeSines();
  EXPECT_EQ(WriteCheckpointFile(AsPrepared(p), "/no/such/dir/base.onexarena",
                                /*sync=*/false)
                .code(),
            StatusCode::kIoError);
}

TEST(BaseIoTest, RejectsCorruptedInput) {
  const std::string good = Save(MakeSines());
  ASSERT_GT(good.size(), 16u);

  // Wrong magic.
  {
    std::string bad = good;
    std::memcpy(bad.data(), "NOTABASE", 8);
    EXPECT_EQ(Load(bad).status().code(), StatusCode::kParseError);
  }
  // Unsupported version.
  {
    std::string bad = good;
    const std::uint32_t version = 99;
    std::memcpy(bad.data() + 8, &version, sizeof(version));
    EXPECT_EQ(Load(bad).status().code(), StatusCode::kParseError);
  }
  // Truncated file (cut in the middle).
  EXPECT_FALSE(Load(good.substr(0, good.size() / 2)).ok());
  // A flipped payload byte breaks the checksum.
  {
    std::string bad = good;
    bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x5a);
    EXPECT_FALSE(Load(bad).ok());
  }
  // Empty input.
  EXPECT_FALSE(Load(std::string()).ok());
}

}  // namespace
}  // namespace onex
