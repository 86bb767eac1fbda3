/// Tightening horizons against their fixed-horizon twin (DESIGN.md §6).
/// Ranking visits groups best-first and prunes against a horizon that
/// tightens to the keep-th exact representative DTW; refinement re-derives
/// its cutoff as members merge into a full top-k. Both are work savers
/// only: this suite keeps a test-local copy of the fixed-horizon query
/// path they replaced — ranking against the exact DTW of the group with
/// the smallest lower bound, refinement against the horizon set when a
/// group is entered — and demands bit-identical answers (refs, lengths,
/// groups, raw and normalized DTWs, representative DTWs, paths) over a
/// seeded grid of bases, k, explore_top_groups, windows, cascade toggles
/// and kernel tables, with fewer DTWs in total. A base of duplicated and
/// time-reversed dyadic series makes groups and members tie exactly, which
/// pins the tie-breaks as well.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/core/incremental.h"
#include "onex/core/query_processor.h"
#include "onex/distance/kernels.h"
#include "onex/gen/generators.h"
#include "onex/ts/normalization.h"

namespace onex {
namespace {

// ---------------------------------------------------------------------------
// The twin: the fixed-horizon query path, kept verbatim in behaviour.

constexpr double kInf = std::numeric_limits<double>::infinity();

double NormFactor(std::size_t n, std::size_t m) {
  return std::sqrt(static_cast<double>(std::max(n, m)));
}

void FlushInto(const QueryStats& acc, QueryStats* stats) {
  stats->groups_pruned_lb += acc.groups_pruned_lb;
  stats->rep_dtw_evaluations += acc.rep_dtw_evaluations;
  stats->member_dtw_evaluations += acc.member_dtw_evaluations;
  stats->members_pruned_lb += acc.members_pruned_lb;
  stats->pruned_kim += acc.pruned_kim;
  stats->pruned_keogh += acc.pruned_keogh;
  stats->dtw_evals += acc.rep_dtw_evaluations + acc.member_dtw_evaluations;
}

double DiagonalPathCostSq(std::span<const double> a,
                          std::span<const double> b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == m) {
    return ActiveKernel().squared_euclidean(a.data(), b.data(), n);
  }
  const std::span<const double> lng = n > m ? a : b;
  const std::span<const double> sht = n > m ? b : a;
  const std::size_t run = lng.size() - 1;
  const std::size_t rise = sht.size() - 1;
  double acc = 0.0;
  std::size_t j = 0;
  std::size_t err = 0;
  for (std::size_t t = 0; t < lng.size(); ++t) {
    const double d = lng[t] - sht[j];
    acc += d * d;
    err += rise;
    if (err >= run) {
      err -= run;
      ++j;
    }
  }
  return acc;
}

struct TwinRanked {
  double normalized_rep_dtw;
  double raw_rep_dtw;
  std::size_t class_index;
  std::size_t group_index;
  bool exact;
  bool pruned;
};

/// Every group, scored against one fixed horizon: the exact representative
/// DTW of the group with the smallest normalized lower bound.
std::vector<TwinRanked> TwinRankGroups(const OnexBase& base,
                                       std::span<const double> query,
                                       const Envelope& query_env,
                                       const QueryOptions& options,
                                       QueryStats* stats) {
  const std::size_t qn = query.size();
  struct Entry {
    std::size_t class_index;
    std::size_t group_index;
    double nf;
    bool same_length;
  };
  std::vector<Entry> entries;
  for (std::size_t ci = 0; ci < base.length_classes().size(); ++ci) {
    const LengthClass& cls = base.length_classes()[ci];
    if (options.min_length != 0 && cls.length < options.min_length) continue;
    if (options.max_length != 0 && cls.length > options.max_length) continue;
    const double nf = NormFactor(qn, cls.length);
    for (std::size_t gi = 0; gi < cls.store->num_groups(); ++gi) {
      entries.push_back({ci, gi, nf, cls.length == qn});
    }
  }
  stats->groups_total += entries.size();
  std::vector<TwinRanked> ranked(entries.size());
  if (entries.empty()) return ranked;

  QueryStats acc;
  auto centroid_of = [&](const Entry& e) {
    return base.length_classes()[e.class_index].store->centroid(
        e.group_index);
  };
  std::vector<double> lb_raw(entries.size(), 0.0);
  std::vector<double> lb_kim_raw(entries.size(), 0.0);
  if (options.use_lower_bounds) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const Entry& e = entries[i];
      const std::span<const double> cent = centroid_of(e);
      const double kim = LbKim(query, cent);
      double lb = kim;
      if (e.same_length) {
        lb = std::max(lb, LbKeogh(query_env, cent));
        const GroupStore& store = *base.length_classes()[e.class_index].store;
        lb = std::max(lb,
                      LbKeogh(store.centroid_envelope(e.group_index), query));
      }
      lb_kim_raw[i] = kim;
      lb_raw[i] = lb;
    }
  }

  std::size_t seed = 0;
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (lb_raw[i] / entries[i].nf < lb_raw[seed] / entries[seed].nf) seed = i;
  }
  ++acc.rep_dtw_evaluations;
  const double seed_raw = DtwDistanceEarlyAbandon(
      query, centroid_of(entries[seed]), /*cutoff=*/-1.0, options.window);
  const double horizon = seed_raw / entries[seed].nf;
  ranked[seed] = {horizon, seed_raw, entries[seed].class_index,
                  entries[seed].group_index, true, false};

  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i == seed) continue;
    const Entry& e = entries[i];
    if (options.use_lower_bounds && lb_raw[i] / e.nf >= horizon) {
      ++acc.groups_pruned_lb;
      if (lb_kim_raw[i] / e.nf >= horizon) {
        ++acc.pruned_kim;
      } else {
        ++acc.pruned_keogh;
      }
      ranked[i] = {lb_raw[i] / e.nf, lb_raw[i], e.class_index, e.group_index,
                   false, true};
      continue;
    }
    const double cutoff = options.use_early_abandon ? horizon * e.nf : -1.0;
    const std::span<const double> cent = centroid_of(e);
    const GroupStore& store = *base.length_classes()[e.class_index].store;
    if (options.use_lower_bounds && options.use_early_abandon) {
      const EnvelopeView cent_env = store.centroid_envelope(e.group_index);
      if (LbRowPrefixSq(query, cent, cent_env.lower[0], cent_env.upper[0]) >
          StrictCutoffSq(cutoff * cutoff)) {
        ++acc.groups_pruned_lb;
        ++acc.pruned_keogh;
        ranked[i] = {horizon, cutoff, e.class_index, e.group_index, false,
                     true};
        continue;
      }
    }
    ++acc.rep_dtw_evaluations;
    double raw = DtwDistanceEarlyAbandon(query, cent, cutoff, options.window);
    double norm = std::isinf(raw) ? kInf : raw / e.nf;
    bool exact = true;
    if (std::isinf(raw)) {
      raw = cutoff;
      norm = horizon;
      exact = false;
    }
    ranked[i] = {norm, raw, e.class_index, e.group_index, exact, false};
  }
  FlushInto(acc, stats);

  std::sort(ranked.begin(), ranked.end(),
            [](const TwinRanked& a, const TwinRanked& b) {
              if (a.normalized_rep_dtw != b.normalized_rep_dtw) {
                return a.normalized_rep_dtw < b.normalized_rep_dtw;
              }
              if (a.exact != b.exact) return a.exact;
              if (a.class_index != b.class_index) {
                return a.class_index < b.class_index;
              }
              return a.group_index < b.group_index;
            });
  return ranked;
}

/// KnnQuery with the fixed horizons: each group's prune/abandon horizon is
/// set when the group is entered and never tightens inside it.
std::vector<BestMatch> TwinKnn(const OnexBase& base,
                               std::span<const double> query, std::size_t k,
                               const QueryOptions& options,
                               QueryStats* stats) {
  const std::size_t qn = query.size();
  const Envelope query_env = ComputeKeoghEnvelope(
      query, options.window < 0 ? -1
                                : EffectiveWindow(qn, qn, options.window));
  const auto [q_min, q_max] = std::minmax_element(query.begin(), query.end());
  const std::vector<TwinRanked> ranked =
      TwinRankGroups(base, query, query_env, options, stats);
  const Dataset& ds = base.dataset();
  const double st = base.options().st;
  std::vector<BestMatch> best;
  auto worst_kth = [&]() {
    return best.size() < k ? kInf : best.back().normalized_dtw;
  };
  const std::size_t must_explore = std::max<std::size_t>(
      std::max<std::size_t>(1, options.explore_top_groups), k);
  QueryStats acc;
  std::vector<char> is_seed;
  std::vector<double> seed_dist;
  std::vector<double> diag;
  std::vector<std::size_t> seeds;
  std::vector<double> kth;
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    const TwinRanked& rg = ranked[r];
    if (r >= must_explore &&
        (!options.exhaustive || rg.normalized_rep_dtw > worst_kth() + st)) {
      break;
    }
    const LengthClass& cls = base.length_classes()[rg.class_index];
    const GroupStore& store = *cls.store;
    const double nf = NormFactor(qn, cls.length);
    if (options.use_lower_bounds && cls.length == qn && best.size() >= k) {
      const double glb =
          LbKeoghGroup(query_env, store.envelope(rg.group_index)) / nf;
      if (glb >= worst_kth()) {
        if (!rg.pruned) {
          ++acc.groups_pruned_lb;
          ++acc.pruned_keogh;
        }
        continue;
      }
    }
    const MemberView members = store.members(rg.group_index);
    is_seed.assign(members.size(), 0);
    double horizon = worst_kth();
    if (best.size() < k) {
      const std::size_t num_seeds = std::min(k, members.size());
      seeds.resize(members.size());
      std::iota(seeds.begin(), seeds.end(), std::size_t{0});
      if (num_seeds < members.size()) {
        diag.resize(members.size());
        for (std::size_t i = 0; i < members.size(); ++i) {
          diag[i] = DiagonalPathCostSq(query, members[i].Resolve(ds));
        }
        std::nth_element(seeds.begin(), seeds.begin() + (num_seeds - 1),
                         seeds.end(), [&](std::size_t a, std::size_t b) {
                           return diag[a] != diag[b] ? diag[a] < diag[b]
                                                     : a < b;
                         });
      }
      seeds.resize(num_seeds);
      acc.member_dtw_evaluations += num_seeds;
      seed_dist.resize(members.size());
      kth.clear();
      for (const BestMatch& m : best) kth.push_back(m.normalized_dtw);
      for (const std::size_t i : seeds) {
        is_seed[i] = 1;
        seed_dist[i] = DtwDistanceEarlyAbandon(query, members[i].Resolve(ds),
                                               /*cutoff=*/-1.0, options.window);
        kth.push_back(seed_dist[i] / nf);
      }
      if (kth.size() >= k) {
        std::nth_element(kth.begin(), kth.begin() + (k - 1), kth.end());
        horizon = kth[k - 1];
      }
    }
    const double cutoff_sq = StrictCutoffSq((horizon * nf) * (horizon * nf));
    const double cutoff = std::sqrt(cutoff_sq);
    const double abandon_at = options.use_early_abandon ? cutoff : -1.0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      double raw;
      if (is_seed[i]) {
        raw = seed_dist[i];
      } else {
        const std::span<const double> vals = members[i].Resolve(ds);
        if (options.use_lower_bounds) {
          if (LbKim(query, vals) > cutoff) {
            ++acc.members_pruned_lb;
            ++acc.pruned_kim;
            continue;
          }
          const auto [v_min, v_max] =
              std::minmax_element(vals.begin(), vals.end());
          if ((cls.length == qn &&
               LbKeogh(query_env, vals, abandon_at) > cutoff) ||
              LbCornerRangeSq(query, *q_min, *q_max, vals) > cutoff_sq ||
              LbCornerRangeSq(vals, *v_min, *v_max, query) > cutoff_sq) {
            ++acc.members_pruned_lb;
            ++acc.pruned_keogh;
            continue;
          }
        }
        ++acc.member_dtw_evaluations;
        raw = DtwDistanceEarlyAbandon(query, vals, abandon_at, options.window);
      }
      if (std::isinf(raw)) continue;
      const double norm = raw / nf;
      if (best.size() >= k && norm >= worst_kth()) continue;
      BestMatch m;
      m.ref = members[i];
      m.length = cls.length;
      m.group_index = rg.group_index;
      m.dtw = raw;
      m.normalized_dtw = norm;
      m.rep_dtw = rg.raw_rep_dtw;
      m.normalized_rep_dtw = rg.normalized_rep_dtw;
      best.insert(std::upper_bound(best.begin(), best.end(), m,
                                   [](const BestMatch& a, const BestMatch& b) {
                                     return a.normalized_dtw <
                                            b.normalized_dtw;
                                   }),
                  std::move(m));
      if (best.size() > k) best.pop_back();
    }
  }
  FlushInto(acc, stats);
  if (options.compute_path) {
    for (BestMatch& m : best) {
      m.path = DtwWithPath(query, m.ref.Resolve(ds), options.window).path;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Comparison helpers.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Empty when the two answer lists are bit-identical, else the first
/// difference.
std::string Difference(const std::vector<BestMatch>& want,
                       const std::vector<BestMatch>& got) {
  if (want.size() != got.size()) {
    return "answer count " + std::to_string(want.size()) + " vs " +
           std::to_string(got.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const BestMatch& a = want[i];
    const BestMatch& b = got[i];
    const std::string at = "answer #" + std::to_string(i) + ": ";
    if (a.ref.series != b.ref.series || a.ref.start != b.ref.start ||
        a.ref.length != b.ref.length || a.length != b.length) {
      return at + "ref " + std::to_string(a.ref.series) + ":" +
             std::to_string(a.ref.start) + ":" + std::to_string(a.length) +
             " vs " + std::to_string(b.ref.series) + ":" +
             std::to_string(b.ref.start) + ":" + std::to_string(b.length);
    }
    if (a.group_index != b.group_index) return at + "group";
    if (!SameBits(a.dtw, b.dtw) || !SameBits(a.normalized_dtw, b.normalized_dtw)) {
      return at + "dtw";
    }
    if (!SameBits(a.rep_dtw, b.rep_dtw) ||
        !SameBits(a.normalized_rep_dtw, b.normalized_rep_dtw)) {
      return at + "rep_dtw";
    }
    if (a.path != b.path) return at + "path";
  }
  return "";
}

/// The cascade attribution identities every query must keep.
void ExpectStatsInvariants(const QueryStats& s, const std::string& where) {
  EXPECT_EQ(s.pruned_kim + s.pruned_keogh,
            s.groups_pruned_lb + s.members_pruned_lb)
      << where;
  EXPECT_LE(s.groups_pruned_lb, s.groups_total) << where;
  EXPECT_EQ(s.dtw_evals, s.rep_dtw_evaluations + s.member_dtw_evaluations)
      << where;
}

struct Corpus {
  std::string name;
  std::shared_ptr<const Dataset> data;
  std::unique_ptr<OnexBase> base;
  std::vector<std::vector<double>> queries;
};

std::shared_ptr<const Dataset> Normalized(const Dataset& raw) {
  Result<Dataset> norm = Normalize(raw, NormalizationKind::kMinMaxDataset);
  EXPECT_TRUE(norm.ok()) << norm.status();
  return std::make_shared<const Dataset>(std::move(norm).value());
}

/// Explore-shaped queries: in-dataset slices and perturbed ones, of class
/// lengths and of lengths between or beyond the classes.
std::vector<std::vector<double>> MakeQueries(const Dataset& ds,
                                             std::uint64_t seed,
                                             std::size_t count,
                                             std::size_t min_len,
                                             std::size_t max_len) {
  Rng rng(seed);
  std::vector<std::vector<double>> out;
  for (std::size_t q = 0; q < count; ++q) {
    const std::size_t s = rng.UniformIndex(ds.size());
    const std::size_t len =
        min_len + rng.UniformIndex(max_len - min_len + 1);
    const std::size_t start = rng.UniformIndex(ds[s].length() - len + 1);
    const std::span<const double> v = ds[s].Slice(start, len);
    std::vector<double> query(v.begin(), v.end());
    if (q % 2 == 1) {
      for (double& x : query) x += rng.Gaussian(0.0, 0.05);
    }
    out.push_back(std::move(query));
  }
  return out;
}

Corpus WalkCorpus() {
  gen::RandomWalkOptions opt;
  opt.num_series = 6;
  opt.length = 48;
  opt.seed = 5;
  Corpus c{"walk", Normalized(gen::MakeRandomWalks(opt)), nullptr, {}};
  BaseBuildOptions bopt;
  bopt.st = 0.2;
  bopt.min_length = 8;
  bopt.max_length = 24;
  bopt.length_step = 2;
  c.base = std::make_unique<OnexBase>(
      std::move(OnexBase::Build(c.data, bopt)).value());
  c.queries = MakeQueries(*c.data, 51, 3, 6, 28);
  return c;
}

Corpus SineCorpus() {
  gen::SineFamilyOptions opt;
  opt.num_series = 8;
  opt.length = 48;
  opt.num_shapes = 3;
  opt.seed = 9;
  Corpus c{"sine", Normalized(gen::MakeSineFamilies(opt)), nullptr, {}};
  BaseBuildOptions bopt;
  bopt.st = 0.15;
  bopt.min_length = 8;
  bopt.max_length = 24;
  bopt.length_step = 2;
  c.base = std::make_unique<OnexBase>(
      std::move(OnexBase::Build(c.data, bopt)).value());
  c.queries = MakeQueries(*c.data, 52, 3, 6, 28);
  return c;
}

/// A base grown by many tail extends, the ingest shape, to thousands of
/// groups: the horizon tightens far below the seed's there.
Corpus ExtendedCorpus() {
  gen::RandomWalkOptions opt;
  opt.num_series = 6;
  opt.length = 24;
  opt.seed = 13;
  Corpus c{"extended", Normalized(gen::MakeRandomWalks(opt)), nullptr, {}};
  BaseBuildOptions bopt;
  bopt.st = 0.1;
  bopt.min_length = 8;
  bopt.max_length = 16;
  bopt.length_step = 1;
  OnexBase base = std::move(OnexBase::Build(c.data, bopt)).value();
  Rng rng(77);
  std::vector<double> level(opt.num_series, 0.5);
  for (std::size_t s = 0; s < opt.num_series; ++s) {
    const TimeSeries& ts = base.dataset()[s];
    level[s] = ts.values().back();
  }
  for (int tick = 0; tick < 40; ++tick) {
    const std::size_t s = static_cast<std::size_t>(tick) % opt.num_series;
    std::vector<double> points(4);
    for (double& p : points) {
      level[s] += rng.Gaussian(0.0, 0.08);
      p = level[s];
    }
    Result<ExtendResult> grown = ExtendSeries(base, s, points);
    EXPECT_TRUE(grown.ok()) << grown.status();
    base = std::move(grown->base);
  }
  c.data = std::make_shared<const Dataset>(base.dataset());
  c.base = std::make_unique<OnexBase>(std::move(base));
  c.queries = MakeQueries(*c.data, 53, 2, 6, 20);
  return c;
}

/// Restores the kernel mode a test found, whatever it switches to.
class KernelModeGuard {
 public:
  KernelModeGuard() : before_(GetKernelMode()) {}
  ~KernelModeGuard() { SetKernelMode(before_); }

 private:
  KernelMode before_;
};

TEST(CascadeTwinTest, TighteningHorizonsKeepTheFixedHorizonAnswers) {
  KernelModeGuard guard;
  std::vector<Corpus> corpora;
  corpora.push_back(WalkCorpus());
  corpora.push_back(SineCorpus());
  corpora.push_back(ExtendedCorpus());
  ASSERT_GT(corpora.back().base->TotalGroups(), 1000u);

  std::size_t queries = 0;
  std::size_t twin_dtws = 0;
  std::size_t dtws = 0;
  for (const KernelMode mode : {KernelMode::kScalar, KernelMode::kSimd}) {
    SetKernelMode(mode);
    for (const Corpus& c : corpora) {
      QueryProcessor qp(c.base.get());
      for (const int window : {kNoWindow, 0, 2, 8}) {
        for (int toggles = 0; toggles < 8; ++toggles) {
          QueryOptions opt;
          opt.window = window;
          opt.exhaustive = (toggles & 1) != 0;
          opt.use_lower_bounds = (toggles & 2) == 0;
          opt.use_early_abandon = (toggles & 4) == 0;
          for (const std::size_t k : {1u, 2u, 3u, 5u, 7u}) {
            for (const std::size_t top : {1u, 2u, 4u}) {
              opt.explore_top_groups = top;
              for (std::size_t qi = 0; qi < c.queries.size(); ++qi) {
                const std::vector<double>& q = c.queries[qi];
                const std::string where =
                    c.name + " mode=" + std::to_string(static_cast<int>(mode)) +
                    " w=" + std::to_string(window) +
                    " ex=" + std::to_string(opt.exhaustive) +
                    " lb=" + std::to_string(opt.use_lower_bounds) +
                    " ea=" + std::to_string(opt.use_early_abandon) +
                    " k=" + std::to_string(k) + " top=" + std::to_string(top) +
                    " q=" + std::to_string(qi);
                QueryStats twin_stats;
                const std::vector<BestMatch> want =
                    TwinKnn(*c.base, q, k, opt, &twin_stats);
                QueryStats stats;
                Result<std::vector<BestMatch>> got =
                    qp.KnnQuery(q, k, opt, &stats);
                ASSERT_TRUE(got.ok()) << where << ": " << got.status();
                ASSERT_EQ(Difference(want, *got), "") << where;
                ExpectStatsInvariants(stats, where);
                EXPECT_EQ(stats.groups_total, twin_stats.groups_total) << where;
                twin_dtws += twin_stats.dtw_evals;
                dtws += stats.dtw_evals;
                ++queries;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_LT(dtws, twin_dtws) << "over " << queries << " queries";
  std::printf("%zu queries: %zu DTWs, fixed-horizon twin %zu\n", queries,
              dtws, twin_dtws);
}

/// Dyadic values (multiples of 1/16) keep every DTW exact, so ties are
/// exact too. Each series is stored twice (members tie), and again time-
/// reversed: under a constant query a reversed leader's DTW and bounds equal
/// its original's bit for bit, so whole groups tie, with a lower bound
/// equal to the DTW itself.
Corpus TieCorpus() {
  Rng rng(31);
  Dataset raw("ties");
  for (int s = 0; s < 3; ++s) {
    std::vector<double> v(32);
    int level = 8;
    for (double& x : v) {
      level = std::clamp(level + static_cast<int>(rng.UniformIndex(5)) - 2, 0,
                         16);
      x = level / 16.0;
    }
    std::vector<double> rev(v.rbegin(), v.rend());
    const std::string id = std::to_string(s);
    raw.Add(TimeSeries("t" + id, v));
    raw.Add(TimeSeries("t" + id + "_twin", v));
    raw.Add(TimeSeries("t" + id + "_rev", rev));
  }
  Corpus c{"ties", std::make_shared<const Dataset>(std::move(raw)), nullptr,
           {}};
  BaseBuildOptions bopt;
  bopt.st = 0.05;
  bopt.min_length = 6;
  bopt.max_length = 12;
  bopt.length_step = 2;
  bopt.centroid_policy = CentroidPolicy::kFixedLeader;
  c.base = std::make_unique<OnexBase>(
      std::move(OnexBase::Build(c.data, bopt)).value());
  for (const std::size_t len : {6u, 8u, 9u, 12u}) {
    for (const double level : {0.5, 0.25, 0.75}) {
      c.queries.push_back(std::vector<double>(len, level));
    }
  }
  for (const std::vector<double>& q : MakeQueries(*c.data, 54, 6, 6, 12)) {
    c.queries.push_back(q);
  }
  return c;
}

TEST(CascadeTwinTest, TiedGroupsAndMembersKeepTheTwinsTieBreaks) {
  KernelModeGuard guard;
  SetKernelMode(KernelMode::kScalar);
  const Corpus c = TieCorpus();
  QueryProcessor qp(c.base.get());
  std::size_t tied_members = 0;
  std::size_t tied_groups = 0;
  for (const int window : {kNoWindow, 2}) {
    for (const std::size_t k : {1u, 3u}) {
      for (const std::size_t top : {1u, 2u}) {
        for (std::size_t qi = 0; qi < c.queries.size(); ++qi) {
          QueryOptions opt;
          opt.window = window;
          opt.explore_top_groups = top;
          const std::string where = "w=" + std::to_string(window) +
                                    " k=" + std::to_string(k) +
                                    " top=" + std::to_string(top) +
                                    " q=" + std::to_string(qi);
          QueryStats twin_stats;
          const std::vector<BestMatch> want =
              TwinKnn(*c.base, c.queries[qi], k, opt, &twin_stats);
          QueryStats stats;
          Result<std::vector<BestMatch>> got =
              qp.KnnQuery(c.queries[qi], k, opt, &stats);
          ASSERT_TRUE(got.ok()) << where << ": " << got.status();
          ASSERT_EQ(Difference(want, *got), "") << where;
          ExpectStatsInvariants(stats, where);
          for (std::size_t i = 1; i < got->size(); ++i) {
            const BestMatch& a = (*got)[i - 1];
            const BestMatch& b = (*got)[i];
            if (a.normalized_dtw == b.normalized_dtw) ++tied_members;
            if (a.normalized_rep_dtw == b.normalized_rep_dtw &&
                (a.group_index != b.group_index || a.length != b.length)) {
              ++tied_groups;
            }
          }
        }
      }
    }
  }
  // The corpus must really produce ties, or it pins no tie-break.
  EXPECT_GT(tied_members, 10u);
  EXPECT_GT(tied_groups, 10u);
}

/// A group whose lower bound equals its DTW, tied with the group that
/// tightened the horizon to that value, and earlier in group order: ranking
/// must still evaluate it, so it wins the tie as it does in the twin. Under
/// a constant query of 0.5 (length 6, all classes length 8) the leaders
/// score, squared: s — bound 0, DTW 0.5, the seed; a — bound 0, DTW 0.125,
/// which tightens the horizon below the seed's; g — bound = DTW = 0.125.
TEST(CascadeTwinTest, AGroupTiedWithTheTightenedHorizonStaysExact) {
  KernelModeGuard guard;
  SetKernelMode(KernelMode::kScalar);
  Dataset raw("tight");
  raw.Add(TimeSeries("s", {0.5, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5}));
  raw.Add(TimeSeries("g", {0.75, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.75}));
  raw.Add(TimeSeries("a", {0.5, 0.75, 0.5, 0.5, 0.5, 0.5, 0.75, 0.5}));
  BaseBuildOptions bopt;
  bopt.st = 0.05;
  bopt.min_length = 8;
  bopt.max_length = 8;
  bopt.centroid_policy = CentroidPolicy::kFixedLeader;
  const OnexBase base =
      std::move(OnexBase::Build(std::make_shared<const Dataset>(raw), bopt))
          .value();
  ASSERT_EQ(base.TotalGroups(), 3u);
  QueryProcessor qp(&base);
  const std::vector<double> query(6, 0.5);
  for (const int window : {kNoWindow, 2, 8}) {
    QueryOptions opt;
    opt.window = window;
    QueryStats twin_stats;
    const std::vector<BestMatch> want =
        TwinKnn(base, query, 1, opt, &twin_stats);
    ASSERT_EQ(want.size(), 1u);
    EXPECT_EQ(want[0].ref.series, 1u) << "the twin's tie-break is g";
    Result<std::vector<BestMatch>> got = qp.KnnQuery(query, 1, opt);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(Difference(want, *got), "") << "window " << window;
  }
}

}  // namespace
}  // namespace onex
