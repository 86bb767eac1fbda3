/// Engine batch API crosscheck: SimilaritySearchBatch / KnnBatch fan
/// independent queries across the engine's task pool but must return
/// exactly what the one-at-a-time calls return, in query order.
#include "onex/engine/engine.h"

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "onex/gen/generators.h"

namespace onex {
namespace {

void PrepareEngine(Engine* engine, const char* name,
                   std::uint64_t seed = 3) {
  gen::SineFamilyOptions opt;
  opt.num_series = 8;
  opt.length = 30;
  opt.seed = seed;
  ASSERT_TRUE(engine->LoadDataset(name, gen::MakeSineFamilies(opt)).ok());
  BaseBuildOptions bopt;
  bopt.st = 0.2;
  bopt.min_length = 4;
  bopt.max_length = 14;
  bopt.length_step = 2;
  ASSERT_TRUE(engine->Prepare(name, bopt).ok());
}

std::vector<QuerySpec> MakeQueries() {
  std::vector<QuerySpec> queries;
  for (const auto& [series, start, len] :
       {std::tuple{0u, 0u, 8u}, std::tuple{1u, 3u, 10u},
        std::tuple{2u, 5u, 6u}, std::tuple{5u, 2u, 12u},
        std::tuple{7u, 10u, 9u}}) {
    QuerySpec spec;
    spec.series = series;
    spec.start = start;
    spec.length = len;
    queries.push_back(spec);
  }
  return queries;
}

void ExpectSameMatch(const MatchResult& a, const MatchResult& b) {
  EXPECT_EQ(a.match.ref, b.match.ref);
  EXPECT_EQ(a.match.dtw, b.match.dtw);
  EXPECT_EQ(a.match.normalized_dtw, b.match.normalized_dtw);
  EXPECT_EQ(a.match.path, b.match.path);
  EXPECT_EQ(a.matched_series_name, b.matched_series_name);
  EXPECT_EQ(a.query_values, b.query_values);
  EXPECT_EQ(a.match_values, b.match_values);
  EXPECT_EQ(a.stats.groups_total, b.stats.groups_total);
  EXPECT_EQ(a.stats.member_dtw_evaluations, b.stats.member_dtw_evaluations);
}

TEST(EngineBatchTest, BatchSimilaritySearchMatchesOneAtATimeCalls) {
  Engine engine;
  PrepareEngine(&engine, "batch");
  const std::vector<QuerySpec> queries = MakeQueries();

  Result<std::vector<MatchResult>> batch =
      engine.SimilaritySearchBatch("batch", queries);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), queries.size());

  for (std::size_t i = 0; i < queries.size(); ++i) {
    Result<MatchResult> single = engine.SimilaritySearch("batch", queries[i]);
    ASSERT_TRUE(single.ok());
    ExpectSameMatch(*single, (*batch)[i]);
  }
}

TEST(EngineBatchTest, KnnBatchMatchesOneAtATimeCalls) {
  Engine engine;
  PrepareEngine(&engine, "knnb", 9);
  const std::vector<QuerySpec> queries = MakeQueries();
  constexpr std::size_t kK = 3;

  Result<std::vector<std::vector<MatchResult>>> batch =
      engine.KnnBatch("knnb", queries, kK);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), queries.size());

  for (std::size_t i = 0; i < queries.size(); ++i) {
    Result<std::vector<MatchResult>> single =
        engine.Knn("knnb", queries[i], kK);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ(single->size(), (*batch)[i].size());
    for (std::size_t j = 0; j < single->size(); ++j) {
      ExpectSameMatch((*single)[j], (*batch)[i][j]);
    }
  }
}

TEST(EngineBatchTest, EmptyBatchYieldsEmptyResults) {
  Engine engine;
  PrepareEngine(&engine, "empty");
  Result<std::vector<MatchResult>> batch =
      engine.SimilaritySearchBatch("empty", {});
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

TEST(EngineBatchTest, BatchFailsFastOnBadQueryOrDataset) {
  Engine engine;
  PrepareEngine(&engine, "errs");
  // Unprepared / unknown dataset.
  EXPECT_FALSE(engine.SimilaritySearchBatch("nope", MakeQueries()).ok());
  // One malformed query poisons the whole batch (documented fail-fast).
  std::vector<QuerySpec> queries = MakeQueries();
  queries[2].series = 999;
  EXPECT_FALSE(engine.SimilaritySearchBatch("errs", queries).ok());
}

}  // namespace
}  // namespace onex
