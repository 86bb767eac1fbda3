/// Cross-query determinism crosscheck (DESIGN.md §6): parallelism lives
/// across queries. One QueryProcessor is shared by queries fanned over a
/// TaskPool, and for random datasets and queries every query must return
/// what the serial loop returns: identical matches, distances (bit for bit,
/// not approximately), warping paths and QueryStats. A query keeps no state
/// in the processor, so nothing one lane does can reach another's answers.
#include "onex/core/query_processor.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/common/task_pool.h"
#include "onex/gen/generators.h"
#include "onex/ts/normalization.h"

namespace onex {
namespace {

struct Fixture {
  std::shared_ptr<const Dataset> dataset;
  std::unique_ptr<OnexBase> base;
};

Fixture MakeFixture(std::uint64_t seed, const char* kind = "sine",
                    std::size_t num = 10, std::size_t len = 32) {
  Dataset raw;
  if (std::string_view(kind) == "walk") {
    gen::RandomWalkOptions opt;
    opt.num_series = num;
    opt.length = len;
    opt.seed = seed;
    raw = gen::MakeRandomWalks(opt);
  } else {
    gen::SineFamilyOptions opt;
    opt.num_series = num;
    opt.length = len;
    opt.seed = seed;
    raw = gen::MakeSineFamilies(opt);
  }
  Result<Dataset> norm = Normalize(raw, NormalizationKind::kMinMaxDataset);
  Fixture f;
  f.dataset = std::make_shared<const Dataset>(std::move(norm).value());
  BaseBuildOptions bopt;
  bopt.st = 0.18;
  bopt.min_length = 4;
  bopt.max_length = 16;
  bopt.length_step = 2;
  f.base = std::make_unique<OnexBase>(
      std::move(OnexBase::Build(f.dataset, bopt)).value());
  return f;
}

void ExpectSameStats(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(a.groups_total, b.groups_total);
  EXPECT_EQ(a.groups_pruned_lb, b.groups_pruned_lb);
  EXPECT_EQ(a.rep_dtw_evaluations, b.rep_dtw_evaluations);
  EXPECT_EQ(a.member_dtw_evaluations, b.member_dtw_evaluations);
  EXPECT_EQ(a.members_pruned_lb, b.members_pruned_lb);
  EXPECT_EQ(a.pruned_kim, b.pruned_kim);
  EXPECT_EQ(a.pruned_keogh, b.pruned_keogh);
  EXPECT_EQ(a.dtw_evals, b.dtw_evals);
}

void ExpectSameMatches(const std::vector<BestMatch>& a,
                       const std::vector<BestMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ref, b[i].ref) << "match " << i;
    EXPECT_EQ(a[i].length, b[i].length);
    EXPECT_EQ(a[i].group_index, b[i].group_index);
    // Bit-identical, not near: both paths must run the same arithmetic.
    EXPECT_EQ(a[i].dtw, b[i].dtw);
    EXPECT_EQ(a[i].normalized_dtw, b[i].normalized_dtw);
    EXPECT_EQ(a[i].rep_dtw, b[i].rep_dtw);
    EXPECT_EQ(a[i].normalized_rep_dtw, b[i].normalized_rep_dtw);
    EXPECT_EQ(a[i].path, b[i].path);
  }
}

/// One query of a crosscheck: its values, k and options.
struct Case {
  std::vector<double> query;
  std::size_t k = 1;
  QueryOptions options;
};

/// What one query returned, kept for comparison.
struct Outcome {
  Status status;
  std::vector<BestMatch> matches;
  QueryStats stats;
};

Outcome Run(const QueryProcessor& qp, const Case& c) {
  Outcome out;
  Result<std::vector<BestMatch>> r =
      qp.KnnQuery(c.query, c.k, c.options, &out.stats);
  out.status = r.status();
  if (r.ok()) out.matches = std::move(r).value();
  return out;
}

/// Runs every case serially, then `kRounds` copies of the case list fanned
/// over an 8-lane pool, so lanes run the same queries side by side on the
/// shared processor; every fanned outcome must equal its serial one.
void ExpectFannedEqualsSerial(const QueryProcessor& qp,
                              const std::vector<Case>& cases) {
  constexpr std::size_t kRounds = 4;
  std::vector<Outcome> serial;
  for (const Case& c : cases) {
    serial.push_back(Run(qp, c));
    ASSERT_TRUE(serial.back().status.ok()) << serial.back().status;
  }

  TaskPool pool(8);
  std::vector<Outcome> fanned(cases.size() * kRounds);
  pool.ParallelFor(fanned.size(), [&](std::size_t i) {
    fanned[i] = Run(qp, cases[i % cases.size()]);
  });
  for (std::size_t i = 0; i < fanned.size(); ++i) {
    const Outcome& want = serial[i % cases.size()];
    ASSERT_TRUE(fanned[i].status.ok()) << fanned[i].status;
    ExpectSameMatches(want.matches, fanned[i].matches);
    ExpectSameStats(want.stats, fanned[i].stats);
  }
}

class CrossQueryCrosscheckTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossQueryCrosscheckTest, FannedKnnEqualsTheSerialLoop) {
  const Fixture f = MakeFixture(GetParam());
  QueryProcessor qp(f.base.get());
  Rng rng(GetParam() + 71);

  std::vector<Case> cases;
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t series = rng.UniformIndex(f.dataset->size());
    const std::size_t qlen = 6 + rng.UniformIndex(8);
    const std::size_t start =
        rng.UniformIndex((*f.dataset)[series].length() - qlen + 1);
    std::vector<double> q;
    const std::span<const double> vals =
        (*f.dataset)[series].Slice(start, qlen);
    q.assign(vals.begin(), vals.end());
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);

    for (const std::size_t k : {1u, 3u}) {
      cases.push_back({q, k, QueryOptions{}});
    }
  }
  ExpectFannedEqualsSerial(qp, cases);
}

TEST_P(CrossQueryCrosscheckTest, ExhaustiveModeStaysDeterministicToo) {
  const Fixture f = MakeFixture(GetParam(), "walk", 8, 28);
  QueryProcessor qp(f.base.get());
  const std::span<const double> q = (*f.dataset)[1].Slice(2, 10);

  QueryOptions exhaustive;
  exhaustive.exhaustive = true;
  ExpectFannedEqualsSerial(
      qp, {{std::vector<double>(q.begin(), q.end()), 2, exhaustive}});
}

TEST_P(CrossQueryCrosscheckTest, PruningTogglesStayDeterministic) {
  const Fixture f = MakeFixture(GetParam());
  QueryProcessor qp(f.base.get());
  const std::span<const double> q = (*f.dataset)[0].Slice(0, 8);

  std::vector<Case> cases;
  for (const bool lb : {true, false}) {
    for (const bool ea : {true, false}) {
      QueryOptions opt;
      opt.use_lower_bounds = lb;
      opt.use_early_abandon = ea;
      cases.push_back({std::vector<double>(q.begin(), q.end()), 2, opt});
    }
  }
  ExpectFannedEqualsSerial(qp, cases);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossQueryCrosscheckTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(CrossQueryCrosscheckTest, FannedBestMatchEqualsTheSerialLoop) {
  const Fixture f = MakeFixture(7);
  QueryProcessor qp(f.base.get());
  const std::span<const double> q = (*f.dataset)[2].Slice(1, 9);

  QueryStats s1;
  Result<BestMatch> expect = qp.BestMatchQuery(q, {}, &s1);
  ASSERT_TRUE(expect.ok());

  TaskPool pool(8);
  std::vector<Result<BestMatch>> got(16, Status::Internal("not run"));
  std::vector<QueryStats> stats(got.size());
  pool.ParallelFor(got.size(), [&](std::size_t i) {
    got[i] = qp.BestMatchQuery(q, {}, &stats[i]);
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << got[i].status();
    EXPECT_EQ(expect->ref, got[i]->ref);
    EXPECT_EQ(expect->dtw, got[i]->dtw);
    EXPECT_EQ(expect->normalized_dtw, got[i]->normalized_dtw);
    EXPECT_EQ(expect->path, got[i]->path);
    ExpectSameStats(s1, stats[i]);
  }
}

}  // namespace
}  // namespace onex
