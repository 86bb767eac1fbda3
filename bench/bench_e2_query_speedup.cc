/// E2 — headline claim: "ONEX has been shown to be several times faster than
/// the fastest known method [UCR Suite]". Best-match latency of ONEX
/// (grouped base + DTW) vs a UCR-style exact scan vs unpruned brute force,
/// all searching the identical subsequence space. A second sweep measures
/// parallelism across queries: the wall time of an 8-query batch fanned
/// over the shared TaskPool at 1/2/4/N threads, with a determinism
/// crosscheck of every batch answer against the serial run.
///
/// Queries are perturbed subsequences (noise sigma 0.08): far enough from
/// any base member that the scanners cannot rely on a near-zero best-so-far,
/// the regime interactive exploration actually operates in.
///
/// A third table runs the explore shape in process: MATCH (k=1) and KNN
/// (k=5) of in-dataset slices 16–64 points long over walk and sine bases of
/// 100 series 128–256 points long, prepared with maxlen 64 — servebench's
/// explore workload without the wire. It reports ms per query and the
/// centroid and member DTWs per query, the layer the query cascade's
/// horizons move (DESIGN.md §6), and checks the same queries run as a batch
/// over the pool against the serial run.
///
/// With --json <path>, machine-readable results land in <path> (the repo's
/// BENCH_query.json trajectory file; see scripts/bench.sh). With --smoke only
/// the explore table runs, on a small base, and the exit status is non-zero
/// when a batch answer differs from the serial run or a DTW counter reads
/// zero (scripts/check.sh runs this).
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "onex/baseline/brute_force.h"
#include "onex/baseline/ucr_suite.h"
#include "onex/common/task_pool.h"
#include "onex/core/query_processor.h"
#include "onex/gen/generators.h"
#include "onex/json/json.h"
#include "onex/ts/normalization.h"

namespace {

struct Workload {
  std::shared_ptr<const onex::Dataset> data;
  std::vector<std::vector<double>> queries;
};

/// `n` series of `len` points: random walks for "walk", else sine families.
onex::Dataset Generate(const char* kind, std::size_t n, std::size_t len,
                       std::uint64_t seed) {
  if (std::string(kind) == "walk") {
    onex::gen::RandomWalkOptions opt;
    opt.num_series = n;
    opt.length = len;
    opt.seed = seed;
    return onex::gen::MakeRandomWalks(opt);
  }
  onex::gen::SineFamilyOptions opt;
  opt.num_series = n;
  opt.length = len;
  opt.num_shapes = 6;
  opt.seed = seed;
  return onex::gen::MakeSineFamilies(opt);
}

Workload MakeWorkload(const char* kind, std::size_t n, std::size_t len,
                      std::size_t qlen, std::uint64_t seed) {
  const onex::Dataset raw = Generate(kind, n, len, seed);
  auto norm = onex::Normalize(raw, onex::NormalizationKind::kMinMaxDataset);
  Workload w;
  w.data = std::make_shared<const onex::Dataset>(std::move(norm).value());
  onex::Rng rng(seed + 99);
  for (int q = 0; q < 8; ++q) {
    const std::size_t series = rng.UniformIndex(w.data->size());
    const std::size_t start =
        rng.UniformIndex((*w.data)[series].length() - qlen + 1);
    const std::span<const double> vals = (*w.data)[series].Slice(start, qlen);
    std::vector<double> query(vals.begin(), vals.end());
    for (double& v : query) v += rng.Gaussian(0.0, 0.12);
    w.queries.push_back(std::move(query));
  }
  return w;
}

/// The explore corpus: `n` series of `kind`, series i cut to a length
/// spread evenly over [min_len, max_len], min-max normalized; and `nq`
/// in-dataset query slices with lengths uniform in [min_q, max_q].
Workload MakeExploreWorkload(const char* kind, std::size_t n,
                             std::size_t min_len, std::size_t max_len,
                             std::size_t nq, std::size_t min_q,
                             std::size_t max_q, std::uint64_t seed) {
  const onex::Dataset full = Generate(kind, n, max_len, seed);
  onex::Dataset raw(kind);
  for (std::size_t i = 0; i < full.size(); ++i) {
    const std::size_t len =
        min_len + (n > 1 ? i * (max_len - min_len) / (n - 1) : 0);
    const std::span<const double> v = full[i].Slice(0, len);
    raw.Add(onex::TimeSeries(full[i].name(),
                             std::vector<double>(v.begin(), v.end())));
  }
  auto norm = onex::Normalize(raw, onex::NormalizationKind::kMinMaxDataset);
  Workload w;
  w.data = std::make_shared<const onex::Dataset>(std::move(norm).value());
  onex::Rng rng(seed + 7);
  for (std::size_t q = 0; q < nq; ++q) {
    const std::size_t series = rng.UniformIndex(w.data->size());
    const std::size_t qlen = min_q + rng.UniformIndex(max_q - min_q + 1);
    const std::size_t start =
        rng.UniformIndex((*w.data)[series].length() - qlen + 1);
    const std::span<const double> vals = (*w.data)[series].Slice(start, qlen);
    w.queries.emplace_back(vals.begin(), vals.end());
  }
  return w;
}

/// True when two runs of the same query agree bit for bit: answers and
/// work counters.
bool SameOutcome(const std::vector<onex::BestMatch>& a,
                 const onex::QueryStats& sa,
                 const std::vector<onex::BestMatch>& b,
                 const onex::QueryStats& sb) {
  if (a.size() != b.size() || sa.dtw_evals != sb.dtw_evals ||
      sa.rep_dtw_evaluations != sb.rep_dtw_evaluations ||
      sa.member_dtw_evaluations != sb.member_dtw_evaluations ||
      sa.pruned_kim != sb.pruned_kim || sa.pruned_keogh != sb.pruned_keogh) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].ref.series != b[i].ref.series ||
        a[i].ref.start != b[i].ref.start ||
        a[i].ref.length != b[i].ref.length || a[i].dtw != b[i].dtw ||
        a[i].rep_dtw != b[i].rep_dtw) {
      return false;
    }
  }
  return true;
}

/// One explore row per (kind, k): ms per query, centroid and member DTWs per
/// query, and whether a pooled batch of the same queries matched the serial
/// run. Returns false when a batch answer differs or a DTW counter is zero.
bool RunExploreRows(bool smoke, onex::json::Value* rows_json) {
  using onex::bench::Fmt;
  const std::size_t n = smoke ? 12 : 100;
  const std::size_t min_len = smoke ? 48 : 128;
  const std::size_t max_len = smoke ? 96 : 256;
  const std::size_t maxlen = smoke ? 24 : 64;
  const std::size_t min_q = smoke ? 8 : 16;
  const std::size_t max_q = smoke ? 24 : 64;
  const std::size_t nq = smoke ? 8 : 40;
  onex::bench::Table table({"dataset", "k", "groups", "ms/query",
                            "centroid_dtw/q", "member_dtw/q", "batch"});
  bool ok = true;
  for (const auto& [kind, seed] : {std::pair{"walk", 21u}, {"sine", 22u}}) {
    const Workload w = MakeExploreWorkload(kind, n, min_len, max_len, nq,
                                           min_q, max_q, seed);
    onex::BaseBuildOptions bopt;
    bopt.st = 0.2;
    bopt.max_length = maxlen;
    bopt.threads = 0;
    auto base = onex::OnexBase::Build(w.data, bopt);
    if (!base.ok()) return false;
    onex::QueryProcessor qp(&*base);
    const std::string name = std::string(kind) + " N=" + std::to_string(n) +
                             " L=" + std::to_string(min_len) + "-" +
                             std::to_string(max_len) +
                             " maxlen=" + std::to_string(maxlen);
    for (const std::size_t k : {1u, 5u}) {
      onex::QueryOptions qo;
      qo.compute_path = false;
      std::vector<std::vector<onex::BestMatch>> serial(w.queries.size());
      std::vector<onex::QueryStats> serial_stats(w.queries.size());
      const double ms = onex::bench::MedianMs(
          [&] {
            for (std::size_t qi = 0; qi < w.queries.size(); ++qi) {
              serial_stats[qi] = {};
              serial[qi] =
                  *qp.KnnQuery(w.queries[qi], k, qo, &serial_stats[qi]);
            }
          },
          smoke ? 1 : 3);
      double centroid_dtws = 0.0, member_dtws = 0.0;
      for (const onex::QueryStats& st : serial_stats) {
        centroid_dtws += static_cast<double>(st.rep_dtw_evaluations);
        member_dtws += static_cast<double>(st.member_dtw_evaluations);
      }
      std::vector<std::vector<onex::BestMatch>> batch(w.queries.size());
      std::vector<onex::QueryStats> batch_stats(w.queries.size());
      onex::TaskPool::Shared().ParallelFor(
          w.queries.size(),
          [&](std::size_t qi) {
            batch[qi] = *qp.KnnQuery(w.queries[qi], k, qo, &batch_stats[qi]);
          },
          4);
      bool identical = true;
      for (std::size_t qi = 0; qi < w.queries.size(); ++qi) {
        identical = identical && SameOutcome(serial[qi], serial_stats[qi],
                                             batch[qi], batch_stats[qi]);
      }
      const double nqd = static_cast<double>(w.queries.size());
      const bool counted = centroid_dtws > 0.0 && member_dtws > 0.0;
      ok = ok && identical && counted;
      table.AddRow({name, std::to_string(k),
                    onex::bench::FmtZu(base->TotalGroups()),
                    Fmt("%.3f", ms / nqd), Fmt("%.1f", centroid_dtws / nqd),
                    Fmt("%.1f", member_dtws / nqd),
                    identical ? "identical" : "DIFFERS"});
      onex::json::Value row = onex::json::Value::MakeObject();
      row.Set("name", name);
      row.Set("k", k);
      row.Set("groups", base->TotalGroups());
      row.Set("queries", w.queries.size());
      row.Set("ms_per_query", ms / nqd);
      row.Set("centroid_dtw_per_query", centroid_dtws / nqd);
      row.Set("member_dtw_per_query", member_dtws / nqd);
      row.Set("batch_identical_to_serial", identical);
      rows_json->Append(std::move(row));
    }
  }
  std::printf("\n-- explore shape (MATCH k=1 / KNN k=5, in-dataset slices "
              "%zu-%zu points, %zu queries) --\n",
              min_q, max_q, nq);
  table.Print();
  return ok;
}

/// Thread counts for the scaling sweep: 1/2/4 plus the machine width.
std::vector<std::size_t> SweepThreads() {
  std::vector<std::size_t> threads{1, 2, 4};
  const std::size_t hw = onex::TaskPool::Shared().worker_count() + 1;
  if (hw > 4) threads.push_back(hw);
  return threads;
}

}  // namespace

int main(int argc, char** argv) {
  using onex::bench::Fmt;
  using onex::bench::FmtZu;

  std::string json_path;
  bool smoke = false;
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]) == "--json" && a + 1 < argc) {
      json_path = argv[a + 1];
      ++a;
    } else if (std::string(argv[a]) == "--smoke") {
      smoke = true;
    }
  }
  onex::json::Value explore_json = onex::json::Value::MakeArray();
  if (smoke) {
    const bool ok = RunExploreRows(/*smoke=*/true, &explore_json);
    std::printf("explore smoke: %s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
  }

  onex::bench::Banner(
      "E2 query speedup", "headline claim vs [6] (UCR Suite)",
      "'several times faster than the fastest known method' — same best-match "
      "workload, identical search space, per-query latency; plus the "
      "batch scaling sweep");

  // The thread-scaling numbers are only meaningful with real cores behind
  // them; state the machine width up front so a reader (or a regression
  // diff across machines) never misreads a 1-core ~1x as a regression.
  const std::size_t hardware_threads = onex::bench::HardwareThreads();
  const bool single_core = hardware_threads <= 1;
  std::printf("hardware_threads: %zu%s\n\n", hardware_threads,
              single_core
                  ? "  (single core: thread-sweep speedups reported as n/a)"
                  : "");

  const std::size_t kMinLen = 8, kMaxLen = 32, kStep = 4, kQlen = 24;
  onex::ScanScope scope;
  scope.min_length = kMinLen;
  scope.max_length = kMaxLen;
  scope.length_step = kStep;

  onex::bench::Table table({"dataset", "subseq", "groups", "onex_ms",
                            "ucr_ms", "brute_ms", "vs_ucr", "vs_brute",
                            "onex_vs_exact"});
  const std::vector<std::size_t> sweep = SweepThreads();
  std::vector<std::string> scale_headers{"dataset"};
  for (const std::size_t t : sweep) {
    scale_headers.push_back("batch8_ms@" + std::to_string(t) + "t");
  }
  scale_headers.push_back("batch_speedup");
  scale_headers.push_back("identical");
  onex::bench::Table scale_table(scale_headers);

  onex::json::Value datasets_json = onex::json::Value::MakeArray();

  for (const auto& [name, kind, n, len, seed] :
       {std::tuple{"sine N=50 L=64", "sine", 50u, 64u, 1u},
        std::tuple{"sine N=100 L=64", "sine", 100u, 64u, 2u},
        std::tuple{"sine N=200 L=64", "sine", 200u, 64u, 3u},
        std::tuple{"sine N=100 L=128", "sine", 100u, 128u, 5u},
        std::tuple{"walk N=100 L=64", "walk", 100u, 64u, 4u}}) {
    const Workload w = MakeWorkload(kind, n, len, kQlen, seed);

    onex::BaseBuildOptions bopt;
    bopt.st = 0.25;
    bopt.min_length = kMinLen;
    bopt.max_length = kMaxLen;
    bopt.length_step = kStep;
    auto base = onex::OnexBase::Build(w.data, bopt);
    if (!base.ok()) return 1;
    onex::QueryProcessor qp(&*base);

    double onex_ms = 0.0, ucr_ms = 0.0, brute_ms = 0.0;
    double quality = 0.0;
    for (const std::vector<double>& q : w.queries) {
      double onex_dist = 0.0, exact_dist = 0.0;
      onex::QueryOptions qo;
      qo.compute_path = false;
      onex_ms += onex::bench::MedianMs(
          [&] { onex_dist = qp.BestMatchQuery(q, qo)->normalized_dtw; }, 3);
      onex::UcrSearchOptions uopt;
      uopt.scope = scope;
      ucr_ms += onex::bench::MedianMs(
          [&] {
            exact_dist = onex::UcrBestMatch(*w.data, q, uopt)->normalized;
          },
          3);
      brute_ms += onex::bench::MedianMs(
          [&] {
            (void)*onex::BruteForceBestMatch(*w.data, q,
                                             onex::ScanDistance::kDtw, scope);
          },
          3);
      quality += exact_dist > 1e-12 ? onex_dist / exact_dist : 1.0;
    }
    const double nq = static_cast<double>(w.queries.size());
    table.AddRow({name, FmtZu(base->TotalMembers()),
                  FmtZu(base->TotalGroups()), Fmt("%.2f", onex_ms / nq),
                  Fmt("%.2f", ucr_ms / nq), Fmt("%.2f", brute_ms / nq),
                  Fmt("%.1fx", ucr_ms / onex_ms),
                  Fmt("%.1fx", brute_ms / onex_ms),
                  Fmt("%.2f", quality / nq)});

    // ---- Batch scaling sweep: independent queries across the pool, the
    // Engine::KnnBatch / net BATCH shape; each query runs on one lane.
    // Exhaustive mode touches far more of the base than the default
    // best-representative rule, so it is the heavier per-query load and the
    // stronger determinism stressor.
    onex::QueryOptions pq;
    pq.compute_path = false;
    pq.exhaustive = true;

    std::vector<double> serial_dists;
    for (const std::vector<double>& q : w.queries) {
      serial_dists.push_back(qp.BestMatchQuery(q, pq)->normalized_dtw);
    }

    bool identical = true;
    std::vector<double> batch_ms;  // wall time for all 8 queries per count
    for (const std::size_t t : sweep) {
      batch_ms.push_back(onex::bench::MedianMs(
          [&] {
            std::vector<double> out(w.queries.size());
            onex::TaskPool::Shared().ParallelFor(
                w.queries.size(),
                [&](std::size_t qi) {
                  out[qi] =
                      qp.BestMatchQuery(w.queries[qi], pq)->normalized_dtw;
                },
                t);
            for (std::size_t qi = 0; qi < out.size(); ++qi) {
              if (out[qi] != serial_dists[qi]) identical = false;
            }
          },
          3));
    }

    std::vector<std::string> row{name};
    for (const double v : batch_ms) row.push_back(Fmt("%.2f", v));
    // Speedup at the 4-thread point (index 2 of the sweep) vs serial —
    // meaningless without multiple cores, so report n/a there.
    const double batch_speedup = batch_ms[0] / batch_ms[2];
    row.push_back(single_core ? "n/a" : Fmt("%.2fx", batch_speedup));
    row.push_back(identical ? "yes" : "NO");
    scale_table.AddRow(row);

    onex::json::Value d = onex::json::Value::MakeObject();
    d.Set("name", name);
    d.Set("subsequences", base->TotalMembers());
    d.Set("groups", base->TotalGroups());
    d.Set("onex_ms", onex_ms / nq);
    d.Set("ucr_ms", ucr_ms / nq);
    d.Set("brute_ms", brute_ms / nq);
    d.Set("speedup_vs_ucr", ucr_ms / onex_ms);
    d.Set("quality_vs_exact", quality / nq);
    onex::json::Value batch_obj = onex::json::Value::MakeObject();
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      batch_obj.Set(std::to_string(sweep[i]), batch_ms[i]);
    }
    d.Set("batch8_wall_ms_by_threads", std::move(batch_obj));
    // On a single core the thread-sweep ratios are noise, not speedups;
    // record null so trajectory tooling never charts them as regressions.
    d.Set("batch_speedup_4t", single_core ? onex::json::Value(nullptr)
                                          : onex::json::Value(batch_speedup));
    d.Set("parallel_identical_to_serial", identical);
    datasets_json.Append(std::move(d));
  }
  table.Print();
  std::printf("\n-- batch scaling (exhaustive mode, 8 queries) --\n");
  scale_table.Print();
  const bool explore_ok = RunExploreRows(/*smoke=*/false, &explore_json);
  std::printf(
      "\nshape check: ONEX examines groups (<< subseq), so onex_ms beats "
      "ucr_ms by a multiple and brute force by orders of magnitude — the "
      "paper's 'several times faster' — while onex_vs_exact stays near 1 "
      "(answers remain near-optimal). The scaling table must say "
      "identical=yes everywhere: a batched query answers what it answers "
      "alone. Speedups track physical cores (a 1-core container "
      "legitimately reports ~1x).\n");

  if (!json_path.empty()) {
    onex::json::Value root = onex::json::Value::MakeObject();
    root.Set("bench", "e2_query_speedup");
    root.Set("host", onex::bench::HostBlock());
    root.Set("thread_speedups_valid", !single_core);
    onex::json::Value sweep_arr = onex::json::Value::MakeArray();
    for (const std::size_t t : sweep) {
      sweep_arr.Append(onex::json::Value(t));
    }
    root.Set("thread_sweep", std::move(sweep_arr));
    root.Set("datasets", std::move(datasets_json));
    root.Set("explore", std::move(explore_json));
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << root.Dump() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return explore_ok ? 0 : 1;
}
