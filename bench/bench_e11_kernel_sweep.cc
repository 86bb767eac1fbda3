/// E11 — kernel-table and cascade sweep (DESIGN.md §14): the same best-match
/// workload as E2, run under every combination of kernel table (scalar
/// reference vs the runtime-dispatched SIMD table) and pruning cascade
/// (LB_Kim → LB_Keogh → early-abandon DTW on vs everything off). Isolates
/// where the PR-level speedup comes from: vectorized inner loops, pruning,
/// or both — and proves the answers do not move while the work counters do.
///
/// With --json <path>, machine-readable results land in <path> (the repo's
/// BENCH_kernels.json trajectory file; see scripts/bench.sh).
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "onex/core/query_processor.h"
#include "onex/distance/kernels.h"
#include "onex/gen/generators.h"
#include "onex/json/json.h"
#include "onex/ts/normalization.h"

namespace {

struct Workload {
  std::shared_ptr<const onex::Dataset> data;
  std::vector<std::vector<double>> queries;
};

Workload MakeWorkload(const char* kind, std::size_t n, std::size_t len,
                      std::size_t qlen, std::uint64_t seed) {
  onex::Dataset raw;
  if (std::string(kind) == "walk") {
    onex::gen::RandomWalkOptions opt;
    opt.num_series = n;
    opt.length = len;
    opt.seed = seed;
    raw = onex::gen::MakeRandomWalks(opt);
  } else {
    onex::gen::SineFamilyOptions opt;
    opt.num_series = n;
    opt.length = len;
    opt.num_shapes = 6;
    opt.seed = seed;
    raw = onex::gen::MakeSineFamilies(opt);
  }
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

struct CellResult {
  double ms_per_query = 0.0;
  double mean_dist = 0.0;       ///< Mean best normalized DTW (answer check).
  std::size_t dtw_evals = 0;    ///< Summed over the workload's queries.
  std::size_t pruned_kim = 0;
  std::size_t pruned_keogh = 0;
};

CellResult RunCell(const onex::QueryProcessor& qp, const Workload& w,
                   onex::KernelMode mode, bool cascade) {
  onex::SetKernelMode(mode);
  onex::QueryOptions qo;
  qo.compute_path = false;
  qo.use_lower_bounds = cascade;
  qo.use_early_abandon = cascade;
  CellResult r;
  for (const std::vector<double>& q : w.queries) {
    onex::QueryStats stats;
    double dist = 0.0;
    r.ms_per_query += onex::bench::MedianMs(
        [&] { dist = qp.BestMatchQuery(q, qo, &stats)->normalized_dtw; }, 3);
    r.mean_dist += dist;
    r.dtw_evals += stats.dtw_evals;
    r.pruned_kim += stats.pruned_kim;
    r.pruned_keogh += stats.pruned_keogh;
  }
  const double nq = static_cast<double>(w.queries.size());
  r.ms_per_query /= nq;
  r.mean_dist /= nq;
  onex::SetKernelMode(onex::KernelMode::kSimd);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using onex::bench::Fmt;
  using onex::bench::FmtZu;

  std::string json_path;
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]) == "--json" && a + 1 < argc) {
      json_path = argv[a + 1];
      ++a;
    }
  }

  onex::bench::Banner(
      "E11 kernel sweep", "distance-kernel layer ablation (DESIGN.md §14)",
      "best-match latency under scalar vs SIMD kernel tables, pruning "
      "cascade on vs off — where the speedup comes from, with answer and "
      "work-counter crosschecks");

  std::printf("kernel tables: scalar='%s', simd='%s' (dispatch %s)\n\n",
              onex::ScalarKernel().name, onex::SimdKernel().name,
              onex::SimdDispatchAvailable() ? "widened ISA" : "portable");

  onex::bench::Table table({"dataset", "scal+casc", "simd+casc", "scal_raw",
                            "simd_raw", "simd_gain", "casc_gain", "total",
                            "dtw_evals c/r", "same_ans"});
  onex::json::Value datasets_json = onex::json::Value::MakeArray();

  const std::size_t kMinLen = 8, kMaxLen = 32, kStep = 4, kQlen = 24;
  for (const auto& [name, kind, n, len, seed] :
       {std::tuple{"sine N=100 L=64", "sine", 100u, 64u, 2u},
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

    // The four sweep cells. "raw" = cascade off (every representative and
    // refined member pays a full DTW).
    const CellResult scal_casc =
        RunCell(qp, w, onex::KernelMode::kScalar, /*cascade=*/true);
    const CellResult simd_casc =
        RunCell(qp, w, onex::KernelMode::kSimd, /*cascade=*/true);
    const CellResult scal_raw =
        RunCell(qp, w, onex::KernelMode::kScalar, /*cascade=*/false);
    const CellResult simd_raw =
        RunCell(qp, w, onex::KernelMode::kSimd, /*cascade=*/false);

    // Answers must agree across all four cells (to ulp-level tolerance;
    // the tables may reassociate sums).
    const double ref = scal_raw.mean_dist;
    const auto close = [&](double v) {
      return v <= ref + 1e-9 * (1.0 + ref) && v >= ref - 1e-9 * (1.0 + ref);
    };
    const bool same_answer = close(scal_casc.mean_dist) &&
                             close(simd_casc.mean_dist) &&
                             close(simd_raw.mean_dist);

    table.AddRow(
        {name, Fmt("%.2f", scal_casc.ms_per_query),
         Fmt("%.2f", simd_casc.ms_per_query),
         Fmt("%.2f", scal_raw.ms_per_query),
         Fmt("%.2f", simd_raw.ms_per_query),
         Fmt("%.1fx", scal_casc.ms_per_query / simd_casc.ms_per_query),
         Fmt("%.1fx", simd_raw.ms_per_query / simd_casc.ms_per_query),
         Fmt("%.1fx", scal_raw.ms_per_query / simd_casc.ms_per_query),
         FmtZu(simd_casc.dtw_evals) + "/" + FmtZu(simd_raw.dtw_evals),
         same_answer ? "yes" : "NO"});

    onex::json::Value d = onex::json::Value::MakeObject();
    d.Set("name", name);
    d.Set("scalar_cascade_ms", scal_casc.ms_per_query);
    d.Set("simd_cascade_ms", simd_casc.ms_per_query);
    d.Set("scalar_raw_ms", scal_raw.ms_per_query);
    d.Set("simd_raw_ms", simd_raw.ms_per_query);
    d.Set("simd_speedup", scal_casc.ms_per_query / simd_casc.ms_per_query);
    d.Set("cascade_speedup", simd_raw.ms_per_query / simd_casc.ms_per_query);
    d.Set("total_speedup", scal_raw.ms_per_query / simd_casc.ms_per_query);
    d.Set("dtw_evals_cascade", simd_casc.dtw_evals);
    d.Set("dtw_evals_raw", simd_raw.dtw_evals);
    d.Set("pruned_kim", simd_casc.pruned_kim);
    d.Set("pruned_keogh", simd_casc.pruned_keogh);
    d.Set("same_answer", same_answer);
    datasets_json.Append(std::move(d));
  }
  table.Print();
  std::printf(
      "\nshape check: simd_gain > 1 (vectorized inner loops), casc_gain > 1 "
      "(pruning removes DTW evaluations: dtw_evals c << r), total is their "
      "product, and same_ans=yes everywhere — neither the kernel table nor "
      "the cascade may move the answer.\n");

  if (!json_path.empty()) {
    onex::json::Value root = onex::json::Value::MakeObject();
    root.Set("bench", "e11_kernel_sweep");
    root.Set("host", onex::bench::HostBlock());
    root.Set("scalar_kernel", std::string(onex::ScalarKernel().name));
    root.Set("simd_kernel", std::string(onex::SimdKernel().name));
    root.Set("simd_dispatch_available", onex::SimdDispatchAvailable());
    root.Set("datasets", std::move(datasets_json));
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << root.Dump() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
