#include "onex/engine/engine.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "onex/gen/economic_panel.h"
#include "onex/gen/generators.h"
#include "test_util.h"

namespace onex {
namespace {

Dataset SmallSines(std::size_t num = 6, std::size_t len = 18,
                   std::uint64_t seed = 42) {
  gen::SineFamilyOptions opt;
  opt.num_series = num;
  opt.length = len;
  opt.seed = seed;
  return gen::MakeSineFamilies(opt);
}

BaseBuildOptions QuickBuild() {
  BaseBuildOptions opt;
  opt.st = 0.2;
  opt.min_length = 4;
  opt.max_length = 10;
  return opt;
}

TEST(EngineTest, LoadListDrop) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  ASSERT_TRUE(engine.LoadDataset("b", SmallSines(4)).ok());
  EXPECT_EQ(engine.ListDatasets(), (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(engine.DropDataset("a").ok());
  EXPECT_EQ(engine.ListDatasets(), (std::vector<std::string>{"b"}));
  EXPECT_EQ(engine.DropDataset("a").code(), StatusCode::kNotFound);
}

TEST(EngineTest, LoadRejectsDuplicatesAndEmpties) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  EXPECT_EQ(engine.LoadDataset("a", SmallSines()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.LoadDataset("", SmallSines()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.LoadDataset("empty", Dataset()).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, GetReturnsSnapshot) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  Result<std::shared_ptr<const PreparedDataset>> ds = engine.Get("a");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ((*ds)->name, "a");
  EXPECT_FALSE((*ds)->prepared());
  EXPECT_EQ(engine.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, QueriesRequirePreparation) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  QuerySpec spec;
  spec.series = 0;
  spec.length = 8;
  EXPECT_EQ(engine.SimilaritySearch("a", spec).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Seasonal("a", 0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Overview("a").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, PrepareThenSearchEndToEnd) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  ASSERT_TRUE(engine.Prepare("a", QuickBuild()).ok());

  QuerySpec spec;
  spec.series = 1;
  spec.start = 2;
  spec.length = 8;
  QueryOptions exhaustive;
  exhaustive.exhaustive = true;
  Result<MatchResult> match = engine.SimilaritySearch("a", spec, exhaustive);
  ASSERT_TRUE(match.ok());
  // The query is a base member: perfect match.
  EXPECT_NEAR(match->match.normalized_dtw, 0.0, 1e-9);
  EXPECT_FALSE(match->matched_series_name.empty());
  EXPECT_EQ(match->query_values.size(), 8u);
  EXPECT_EQ(match->match_values.size(), match->match.ref.length);
  EXPECT_GT(match->elapsed_ms, 0.0);
  EXPECT_GT(match->stats.groups_total, 0u);
}

TEST(EngineTest, PrepareIsReentrant) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  ASSERT_TRUE(engine.Prepare("a", QuickBuild()).ok());
  Result<std::shared_ptr<const PreparedDataset>> first = engine.Get("a");
  ASSERT_TRUE(first.ok());
  const std::size_t groups_before = (*first)->base->TotalGroups();

  BaseBuildOptions coarse = QuickBuild();
  coarse.st = 1.0;
  ASSERT_TRUE(engine.Prepare("a", coarse).ok());
  Result<std::shared_ptr<const PreparedDataset>> second = engine.Get("a");
  ASSERT_TRUE(second.ok());
  EXPECT_LE((*second)->base->TotalGroups(), groups_before);
  // The first snapshot remains usable (immutable snapshot semantics).
  EXPECT_EQ((*first)->base->TotalGroups(), groups_before);
}

TEST(EngineTest, WholeSeriesQueryWithLengthZero) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  ASSERT_TRUE(engine.Prepare("a", QuickBuild()).ok());
  QuerySpec spec;
  spec.series = 0;
  spec.start = 10;
  spec.length = 0;  // rest of the series: 8 points
  Result<MatchResult> match = engine.SimilaritySearch("a", spec);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->query_values.size(), 8u);
}

TEST(EngineTest, InlineQueryIsNormalizedIntoDatasetSpace) {
  Engine engine;
  Dataset raw = SmallSines();
  ASSERT_TRUE(engine.LoadDataset("a", raw).ok());
  ASSERT_TRUE(engine.Prepare("a", QuickBuild()).ok());

  // Take raw values of a known subsequence and submit them inline: the
  // engine must normalize them identically and find the same subsequence.
  QuerySpec inline_spec;
  const std::span<const double> raw_vals = raw[2].Slice(3, 8);
  inline_spec.inline_values.assign(raw_vals.begin(), raw_vals.end());
  QueryOptions exhaustive;
  exhaustive.exhaustive = true;
  Result<MatchResult> match =
      engine.SimilaritySearch("a", inline_spec, exhaustive);
  ASSERT_TRUE(match.ok());
  EXPECT_NEAR(match->match.normalized_dtw, 0.0, 1e-9);
}

TEST(EngineTest, CrossDatasetQuery) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("target", SmallSines(6, 18, 1)).ok());
  ASSERT_TRUE(engine.LoadDataset("other", SmallSines(3, 18, 2)).ok());
  ASSERT_TRUE(engine.Prepare("target", QuickBuild()).ok());
  QuerySpec spec;
  spec.dataset = "other";
  spec.series = 0;
  spec.start = 0;
  spec.length = 8;
  Result<MatchResult> match = engine.SimilaritySearch("target", spec);
  ASSERT_TRUE(match.ok());
  EXPECT_LT(match->match.normalized_dtw,
            std::numeric_limits<double>::infinity());
}

TEST(EngineTest, QuerySpecValidation) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  ASSERT_TRUE(engine.Prepare("a", QuickBuild()).ok());
  QuerySpec bad;
  bad.series = 99;
  EXPECT_EQ(engine.SimilaritySearch("a", bad).status().code(),
            StatusCode::kOutOfRange);
  bad = QuerySpec();
  bad.series = 0;
  bad.start = 100;
  bad.length = 5;
  EXPECT_EQ(engine.SimilaritySearch("a", bad).status().code(),
            StatusCode::kOutOfRange);
  QuerySpec tiny;
  tiny.inline_values = {1.0};
  EXPECT_EQ(engine.SimilaritySearch("a", tiny).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, KnnOrderingAndSize) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines(8, 20)).ok());
  ASSERT_TRUE(engine.Prepare("a", QuickBuild()).ok());
  QuerySpec spec;
  spec.series = 0;
  spec.length = 8;
  Result<std::vector<MatchResult>> knn = engine.Knn("a", spec, 4);
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn->size(), 4u);
  for (std::size_t i = 1; i < knn->size(); ++i) {
    EXPECT_LE((*knn)[i - 1].match.normalized_dtw,
              (*knn)[i].match.normalized_dtw);
  }
}

TEST(EngineTest, SeasonalAndOverviewAndThreshold) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines(6, 24, 9)).ok());
  ASSERT_TRUE(engine.Prepare("a", QuickBuild()).ok());

  Result<std::vector<SeasonalPattern>> seasonal = engine.Seasonal("a", 0);
  ASSERT_TRUE(seasonal.ok());

  Result<std::vector<OverviewEntry>> overview = engine.Overview("a");
  ASSERT_TRUE(overview.ok());
  EXPECT_FALSE(overview->empty());

  Result<ThresholdReport> thresholds = engine.RecommendThresholds("a");
  ASSERT_TRUE(thresholds.ok());
  EXPECT_FALSE(thresholds->recommendations.empty());
  // Prepared dataset: recommendations are in normalized units (<= ~1).
  EXPECT_LT(thresholds->recommendations.back().st, 2.0);
}

TEST(EngineTest, ChartBuildersProduceRenderableData) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  ASSERT_TRUE(engine.Prepare("a", QuickBuild()).ok());
  QuerySpec spec;
  spec.series = 0;
  spec.length = 10;
  QueryOptions exhaustive;
  exhaustive.exhaustive = true;
  Result<MatchResult> match = engine.SimilaritySearch("a", spec, exhaustive);
  ASSERT_TRUE(match.ok());

  Result<viz::MultiLineChartData> ml = engine.MatchMultiLineChart("a", *match);
  ASSERT_TRUE(ml.ok());
  EXPECT_EQ(ml->series_a.size(), match->query_values.size());
  EXPECT_FALSE(ml->links.empty());

  Result<viz::RadialChartData> radial = engine.MatchRadialChart("a", *match);
  ASSERT_TRUE(radial.ok());
  EXPECT_EQ(radial->points_a.size(), match->query_values.size());

  Result<viz::ConnectedScatterData> scatter =
      engine.MatchConnectedScatter("a", *match);
  ASSERT_TRUE(scatter.ok());
  // Perfect match: points on the diagonal.
  EXPECT_NEAR(scatter->diagonal_deviation, 0.0, 1e-9);

  Result<viz::SeasonalViewData> seasonal = engine.SeasonalView("a", 0, {});
  ASSERT_TRUE(seasonal.ok());
  EXPECT_EQ(seasonal->series.size(), 18u);
}

TEST(EngineTest, EconomicPanelFindsPlantedPartner) {
  // The demo walkthrough: prepare MATTERS growth rates, query MA, expect the
  // planted partner state as best match.
  Engine engine;
  gen::EconomicPanelOptions gopt;
  gopt.years = 25;
  ASSERT_TRUE(engine.LoadDataset("matters", gen::MakeEconomicPanel(gopt)).ok());
  BaseBuildOptions bopt;
  bopt.st = 0.1;
  bopt.min_length = 6;
  bopt.max_length = 25;
  ASSERT_TRUE(engine.Prepare("matters", bopt).ok());

  Result<std::shared_ptr<const PreparedDataset>> ds = engine.Get("matters");
  ASSERT_TRUE(ds.ok());
  const std::size_t ma = *(*ds)->raw->FindByName("Massachusetts");

  QuerySpec spec;
  spec.series = ma;
  spec.length = 0;  // whole MA series
  // The demo compares whole state series, so pin the searched length to the
  // full horizon (otherwise MA's own overlapping subsequences fill the
  // top-k with trivial self-matches).
  QueryOptions qopt;
  qopt.min_length = gopt.years;
  qopt.max_length = gopt.years;
  qopt.exhaustive = true;
  Result<std::vector<MatchResult>> knn = engine.Knn("matters", spec, 3, qopt);
  ASSERT_TRUE(knn.ok());
  ASSERT_GE(knn->size(), 2u);
  // Best match is MA itself (distance 0); the planted partner follows.
  EXPECT_EQ(knn->front().matched_series_name, "Massachusetts");
  EXPECT_NEAR(knn->front().match.normalized_dtw, 0.0, 1e-9);
  bool saw_partner = false;
  for (const MatchResult& m : *knn) {
    if (m.matched_series_name == gopt.partner_state) saw_partner = true;
  }
  EXPECT_TRUE(saw_partner)
      << "planted partner state not in top-3 matches for MA";
}


TEST(EngineTest, CatalogListsSeriesWithPreviews) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  Result<std::vector<Engine::CatalogEntry>> catalog = engine.Catalog("a", 8);
  ASSERT_TRUE(catalog.ok());
  ASSERT_EQ(catalog->size(), 6u);
  for (const Engine::CatalogEntry& e : *catalog) {
    EXPECT_FALSE(e.series_name.empty());
    EXPECT_EQ(e.length, 18u);
    EXPECT_EQ(e.preview.size(), 8u);
  }
  // Works without preparation and validates arguments.
  EXPECT_FALSE(engine.Catalog("a", 0).ok());
  EXPECT_EQ(engine.Catalog("missing").status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, AppendSeriesToUnpreparedDataset) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  Rng rng(3);
  ASSERT_TRUE(
      engine.AppendSeries("a", TimeSeries("new", testing::SmoothSeries(&rng, 18)))
          .ok());
  Result<std::shared_ptr<const PreparedDataset>> ds = engine.Get("a");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ((*ds)->raw->size(), 7u);
  EXPECT_FALSE((*ds)->prepared());
}

TEST(EngineTest, AppendSeriesToPreparedDatasetUpdatesBase) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  ASSERT_TRUE(engine.Prepare("a", QuickBuild()).ok());
  Result<std::shared_ptr<const PreparedDataset>> before = engine.Get("a");
  ASSERT_TRUE(before.ok());
  const std::size_t members_before = (*before)->base->TotalMembers();

  Rng rng(5);
  ASSERT_TRUE(engine
                  .AppendSeries("a", TimeSeries("new",
                                                testing::SmoothSeries(&rng, 18)))
                  .ok());
  Result<std::shared_ptr<const PreparedDataset>> after = engine.Get("a");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE((*after)->prepared());
  EXPECT_EQ((*after)->raw->size(), 7u);
  EXPECT_EQ((*after)->normalized->size(), 7u);
  EXPECT_GT((*after)->base->TotalMembers(), members_before);
  // Old snapshot untouched.
  EXPECT_EQ((*before)->base->TotalMembers(), members_before);

  // The appended series is immediately queryable.
  QuerySpec spec;
  spec.series = 6;
  spec.start = 0;
  spec.length = 8;
  QueryOptions exhaustive;
  exhaustive.exhaustive = true;
  Result<MatchResult> match = engine.SimilaritySearch("a", spec, exhaustive);
  ASSERT_TRUE(match.ok());
  EXPECT_NEAR(match->match.normalized_dtw, 0.0, 1e-9);
}

TEST(EngineTest, AppendSeriesValidation) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  EXPECT_EQ(engine.AppendSeries("missing", TimeSeries("x", {1.0, 2.0})).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.AppendSeries("a", TimeSeries("x", {1.0})).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, SaveAndLoadPreparedRoundTrip) {
  const std::string path = ::testing::TempDir() + "/onex_prepared_test.onex";
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  ASSERT_TRUE(engine.Prepare("a", QuickBuild()).ok());
  ASSERT_TRUE(engine.SavePrepared("a", path).ok());

  Engine fresh;
  ASSERT_TRUE(fresh.LoadPrepared("b", path).ok());
  Result<std::shared_ptr<const PreparedDataset>> loaded = fresh.Get("b");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE((*loaded)->prepared());
  EXPECT_FALSE((*loaded)->mapped()) << "LOADBASE never serves off a mapping";

  // Same groups, same centroids, same answers as the original engine.
  Result<std::shared_ptr<const PreparedDataset>> orig = engine.Get("a");
  ASSERT_TRUE(orig.ok());
  EXPECT_EQ((*loaded)->base->TotalGroups(), (*orig)->base->TotalGroups());
  EXPECT_EQ((*loaded)->base->TotalMembers(), (*orig)->base->TotalMembers());
  std::size_t centroid_mismatches = 0;
  for (std::size_t c = 0; c < (*orig)->base->length_classes().size(); ++c) {
    const LengthClass& want = (*orig)->base->length_classes()[c];
    const LengthClass& got = (*loaded)->base->length_classes()[c];
    for (std::size_t g = 0; g < want.groups.size(); ++g) {
      const std::span<const double> w = want.groups[g].centroid();
      const std::span<const double> v = got.groups[g].centroid();
      centroid_mismatches += !std::equal(w.begin(), w.end(), v.begin(),
                                         v.end());
    }
  }
  EXPECT_EQ(centroid_mismatches, 0u);

  QuerySpec spec;
  spec.series = 2;
  spec.start = 1;
  spec.length = 8;
  QueryOptions exhaustive;
  exhaustive.exhaustive = true;
  Result<MatchResult> m0 = engine.SimilaritySearch("a", spec, exhaustive);
  Result<MatchResult> m1 = fresh.SimilaritySearch("b", spec, exhaustive);
  ASSERT_TRUE(m0.ok());
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m0->match.ref, m1->match.ref);
  EXPECT_EQ(m0->match.dtw, m1->match.dtw);
  EXPECT_EQ(m0->match.normalized_dtw, m1->match.normalized_dtw);

  // Raw values come back bit for bit (stored, not denormalized).
  const Dataset raw = SmallSines();
  ASSERT_EQ((*loaded)->raw->size(), raw.size());
  std::size_t raw_mismatches = 0;
  for (std::size_t s = 0; s < raw.size(); ++s) {
    raw_mismatches += (*(*loaded)->raw)[s].values() != raw[s].values();
  }
  EXPECT_EQ(raw_mismatches, 0u);
  std::remove(path.c_str());
}

/// SAVEBASE writes a temp file and renames it into place: a write that
/// cannot land reports IoError and leaves nothing behind.
TEST(EngineTest, SavePreparedFailureLeavesNoFile) {
  namespace fs = std::filesystem;
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  ASSERT_TRUE(engine.Prepare("a", QuickBuild()).ok());
  const std::string missing_dir = ::testing::TempDir() + "/onex_no_such_dir";
  fs::remove_all(missing_dir);
  const std::string path = missing_dir + "/base.onex";
  EXPECT_EQ(engine.SavePrepared("a", path).code(), StatusCode::kIoError);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_FALSE(fs::exists(missing_dir));

  // A directory in the way of the target: the rename fails, the temp file
  // is cleaned up and the directory is untouched.
  const std::string dir_target = ::testing::TempDir() + "/onex_dir_target";
  fs::remove_all(dir_target);
  fs::create_directories(dir_target);
  EXPECT_EQ(engine.SavePrepared("a", dir_target).code(), StatusCode::kIoError);
  EXPECT_TRUE(fs::is_directory(dir_target));
  EXPECT_FALSE(fs::exists(dir_target + ".tmp"));
  // Loading a directory is a clean IoError too, never a giant allocation.
  EXPECT_EQ(engine.LoadPrepared("d", dir_target).code(), StatusCode::kIoError);
  fs::remove_all(dir_target);
}

TEST(EngineTest, SavePreparedRequiresPreparation) {
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  EXPECT_EQ(engine.SavePrepared("a", "/tmp/whatever.onex").code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, LoadPreparedRejectsCollisionsAndGarbage) {
  const std::string path = ::testing::TempDir() + "/onex_prepared_test2.onex";
  Engine engine;
  ASSERT_TRUE(engine.LoadDataset("a", SmallSines()).ok());
  ASSERT_TRUE(engine.Prepare("a", QuickBuild()).ok());
  ASSERT_TRUE(engine.SavePrepared("a", path).ok());
  EXPECT_EQ(engine.LoadPrepared("a", path).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.LoadPrepared("x", "/no/such/file").code(),
            StatusCode::kIoError);

  const std::string junk = ::testing::TempDir() + "/onex_junk.onex";
  {
    std::ofstream out(junk);
    out << "this is not a prepared dataset\n";
  }
  EXPECT_EQ(engine.LoadPrepared("y", junk).code(), StatusCode::kParseError);
  std::remove(path.c_str());
  std::remove(junk.c_str());
}

}  // namespace
}  // namespace onex
