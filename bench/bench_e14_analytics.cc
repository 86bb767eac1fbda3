/// E14 — analytics on the group structure (DESIGN.md §18): the similarity
/// groups built for MATCH/KNN also serve ANOMALY / MOTIF / FORECAST, and
/// the index pays for itself — each accelerated path is timed against a
/// naive scan that ignores the groups while returning the *same* answers
/// (core_analytics_diff_test holds them bit-for-bit equal). CHANGEPOINT is
/// the exception: its fast axis is the max_run truncation of the BOCPD
/// run-length posterior, whose cost is the error bound the report carries.
///
/// With --json <path>, machine-readable results land in <path> (the repo's
/// BENCH_analytics.json trajectory file; see scripts/bench.sh).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "onex/common/random.h"
#include "onex/core/analytics.h"
#include "onex/core/onex_base.h"
#include "onex/distance/euclidean.h"
#include "onex/gen/generators.h"
#include "onex/json/json.h"
#include "onex/ts/normalization.h"

namespace {

std::shared_ptr<const onex::Dataset> MakeData(std::size_t n,
                                              std::uint64_t seed) {
  onex::gen::SineFamilyOptions opt;
  opt.num_series = n;
  opt.length = 96;
  opt.seed = seed;
  auto norm = onex::Normalize(onex::gen::MakeSineFamilies(opt),
                              onex::NormalizationKind::kMinMaxDataset);
  return std::make_shared<const onex::Dataset>(std::move(norm).value());
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
      "E14 analytics (extension)", "new workloads on the group structure",
      "centroids, radii and group populations answer anomaly, motif/discord "
      "and forecast queries exactly, faster than scans that ignore the "
      "index; BOCPD truncation trades bounded error for linear time");

  const std::size_t hardware_threads = onex::bench::HardwareThreads();
  const bool single_core = hardware_threads <= 1;
  std::printf("hardware_threads: %zu%s\n", hardware_threads,
              single_core
                  ? "  (single core: concurrency speedups reported as n/a)"
                  : "");

  auto data = MakeData(48, 3);
  onex::BaseBuildOptions bopt;
  bopt.st = 0.15;
  bopt.min_length = 8;
  bopt.max_length = 64;
  bopt.length_step = 4;
  auto base = onex::OnexBase::Build(data, bopt);
  const onex::Dataset& ds = base->dataset();

  std::size_t total_members = 0;
  for (const onex::LengthClass& cls : base->length_classes()) {
    total_members += cls.total_members;
  }
  std::printf("base: %zu series, %zu length classes, %zu groups, %zu "
              "members\n",
              ds.size(), base->length_classes().size(), base->TotalGroups(),
              total_members);

  onex::json::Value record = onex::json::Value::MakeObject();
  record.Set("bench", "e14_analytics");
  record.Set("host", onex::bench::HostBlock());
  record.Set("members", total_members);

  std::printf("\n-- ANOMALY: EA-filtered centroid scan vs exhaustive --\n");
  {
    onex::AnomalyOptions aopt;
    aopt.top_k = 10;
    onex::AnomalyReport report;
    const double fast_ms = onex::bench::MedianMs(
        [&] { report = *onex::DetectAnomalies(*base, aopt); }, 5);

    // The oracle's shape: every member against every centroid of its
    // class, full distance every time, no abandonment.
    double naive_checksum = 0.0;
    const double naive_ms = onex::bench::MedianMs(
        [&] {
          naive_checksum = 0.0;
          for (const onex::LengthClass& cls : base->length_classes()) {
            for (const onex::SimilarityGroup& g : cls.groups) {
              for (const onex::SubseqRef& m : g.members()) {
                const auto v = m.Resolve(ds);
                double best = std::numeric_limits<double>::infinity();
                for (const onex::SimilarityGroup& other : cls.groups) {
                  best = std::min(best, onex::NormalizedEuclidean(
                                            other.centroid_span(), v));
                }
                naive_checksum += best;
              }
            }
          }
        },
        3);

    const double abandoned_frac =
        report.distance_evals + report.evals_abandoned == 0
            ? 0.0
            : static_cast<double>(report.evals_abandoned) /
                  static_cast<double>(report.distance_evals +
                                      report.evals_abandoned);
    onex::bench::Table table(
        {"path", "ms", "speedup", "abandoned", "outliers"});
    table.AddRow({"exhaustive", Fmt("%.1f", naive_ms), "1.00x", "-",
                  FmtZu(report.outliers)});
    table.AddRow({"group index", Fmt("%.1f", fast_ms),
                  Fmt("%.2fx", naive_ms / fast_ms),
                  Fmt("%.1f%%", 100.0 * abandoned_frac),
                  FmtZu(report.outliers)});
    table.Print();
    (void)naive_checksum;

    record.Set("anomaly_fast_ms", fast_ms);
    record.Set("anomaly_naive_ms", naive_ms);
    record.Set("anomaly_speedup", naive_ms / fast_ms);
    record.Set("anomaly_abandoned_frac", abandoned_frac);
    record.Set("anomaly_outliers", report.outliers);
  }

  std::printf("\n-- CHANGEPOINT: BOCPD truncation vs exact recursion --\n");
  {
    // A level-shifting stream long enough that the exact O(n^2) recursion
    // hurts: 4096 points, a regime change every 512.
    std::vector<double> stream;
    stream.reserve(4096);
    onex::Rng rng(17);
    double level = 0.0;
    for (std::size_t i = 0; i < 4096; ++i) {
      if (i % 512 == 0) level = rng.Uniform(-2.0, 2.0);
      stream.push_back(level + rng.Gaussian(0.0, 0.25));
    }

    onex::bench::Table table(
        {"max_run", "ms", "speedup", "error_bound", "changepoints"});
    double exact_ms = 0.0;
    double truncated_ms = 0.0;
    double truncated_bound = 0.0;
    for (const std::size_t max_run : {stream.size() + 2, std::size_t{256},
                                      std::size_t{64}}) {
      onex::ChangepointOptions copt;
      copt.max_run = max_run;
      onex::ChangepointReport report;
      const double ms = onex::bench::MedianMs(
          [&] { report = *onex::DetectChangepoints(stream, copt); }, 3);
      const bool exact = report.mass_dropped == 0.0;
      if (exact) exact_ms = ms;
      if (max_run == 256) {
        truncated_ms = ms;
        truncated_bound = report.error_bound;
      }
      table.AddRow({exact ? "exact" : FmtZu(max_run), Fmt("%.1f", ms),
                    Fmt("%.2fx", exact_ms / ms),
                    Fmt("%.2e", report.error_bound),
                    FmtZu(report.changepoints.size())});
    }
    table.Print();

    record.Set("changepoint_exact_ms", exact_ms);
    record.Set("changepoint_truncated_ms", truncated_ms);
    record.Set("changepoint_speedup", exact_ms / truncated_ms);
    record.Set("changepoint_error_bound", truncated_bound);
  }

  std::printf("\n-- MOTIF/DISCORD: group-bound pruning vs O(n^2) scan --\n");
  {
    constexpr std::size_t kLength = 32;
    onex::MotifOptions mopt;
    mopt.length = kLength;
    onex::MotifReport report;
    const double fast_ms = onex::bench::MedianMs(
        [&] { report = *onex::FindMotifs(*base, mopt); }, 3);

    // The quadratic oracle: every non-overlapping pair in the class, one
    // full distance each, feeding both the closest pair and per-member
    // nearest neighbors (discords).
    std::vector<onex::SubseqRef> members;
    for (const onex::LengthClass& cls : base->length_classes()) {
      if (cls.length != kLength) continue;
      for (const onex::SimilarityGroup& g : cls.groups) {
        for (const onex::SubseqRef& m : g.members()) members.push_back(m);
      }
    }
    double naive_motif = 0.0;
    const double naive_ms = onex::bench::MedianMs(
        [&] {
          naive_motif = std::numeric_limits<double>::infinity();
          std::vector<double> nn(
              members.size(), std::numeric_limits<double>::infinity());
          for (std::size_t i = 0; i < members.size(); ++i) {
            for (std::size_t j = i + 1; j < members.size(); ++j) {
              if (members[i].Overlaps(members[j])) continue;
              const double d = onex::NormalizedEuclidean(
                  members[i].Resolve(ds), members[j].Resolve(ds));
              naive_motif = std::min(naive_motif, d);
              nn[i] = std::min(nn[i], d);
              nn[j] = std::min(nn[j], d);
            }
          }
        },
        3);

    const std::size_t pair_total =
        report.pairs_evaluated + report.pairs_pruned;
    const double pruned_frac =
        pair_total == 0 ? 0.0
                        : static_cast<double>(report.pairs_pruned) /
                              static_cast<double>(pair_total);
    onex::bench::Table table({"path", "ms", "speedup", "pairs_pruned"});
    table.AddRow({"O(n^2) scan", Fmt("%.1f", naive_ms), "1.00x", "-"});
    table.AddRow({"group bound", Fmt("%.1f", fast_ms),
                  Fmt("%.2fx", naive_ms / fast_ms),
                  Fmt("%.1f%%", 100.0 * pruned_frac)});
    table.Print();
    const double fast_motif = report.classes.empty()
                                  ? std::numeric_limits<double>::infinity()
                                  : report.classes.front().motif_distance;
    if (naive_motif != fast_motif) {
      std::fprintf(stderr, "motif mismatch: naive %.17g vs fast %.17g\n",
                   naive_motif, fast_motif);
      return 1;
    }

    record.Set("motif_members", members.size());
    record.Set("motif_fast_ms", fast_ms);
    record.Set("motif_naive_ms", naive_ms);
    record.Set("motif_speedup", naive_ms / fast_ms);
    record.Set("motif_pruned_frac", pruned_frac);
  }

  std::printf("\n-- FORECAST: group-pruned k-NN vs exhaustive, all %zu "
              "series --\n",
              ds.size());
  {
    onex::ForecastOptions fopt;
    fopt.horizon = 8;
    fopt.k = 3;
    std::vector<onex::ForecastReport> reports(ds.size());
    const double fast_ms = onex::bench::MedianMs(
        [&] {
          for (std::size_t s = 0; s < ds.size(); ++s) {
            reports[s] = *onex::ForecastSeries(*base, s, fopt);
          }
        },
        3);

    // Exhaustive baseline, steered by the resolved tails: every eligible
    // member of the tail's class, full distance, keep the k best.
    const double naive_ms = onex::bench::MedianMs(
        [&] {
          for (std::size_t s = 0; s < ds.size(); ++s) {
            const onex::ForecastReport& rep = reports[s];
            const onex::SubseqRef tail{s, rep.tail_start, rep.tail_length};
            const auto tail_span = tail.Resolve(ds);
            std::vector<std::pair<double, onex::SubseqRef>> best;
            for (const onex::LengthClass& cls : base->length_classes()) {
              if (cls.length != rep.tail_length) continue;
              for (const onex::SimilarityGroup& g : cls.groups) {
                for (const onex::SubseqRef& m : g.members()) {
                  if (m.end() + fopt.horizon > ds[m.series].length() ||
                      m.Overlaps(tail)) {
                    continue;
                  }
                  best.emplace_back(
                      onex::NormalizedEuclidean(tail_span, m.Resolve(ds)),
                      m);
                }
              }
            }
            const std::size_t keep = std::min(fopt.k, best.size());
            std::partial_sort(best.begin(),
                              best.begin() + static_cast<std::ptrdiff_t>(keep),
                              best.end());
            best.resize(keep);
          }
        },
        3);

    std::size_t candidates = 0;
    std::size_t groups_pruned = 0;
    for (const onex::ForecastReport& rep : reports) {
      candidates += rep.candidates;
      groups_pruned += rep.groups_pruned;
    }
    onex::bench::Table table({"path", "ms", "speedup", "groups_pruned"});
    table.AddRow({"exhaustive", Fmt("%.1f", naive_ms), "1.00x", "-"});
    table.AddRow({"group index", Fmt("%.1f", fast_ms),
                  Fmt("%.2fx", naive_ms / fast_ms), FmtZu(groups_pruned)});
    table.Print();

    record.Set("forecast_fast_ms", fast_ms);
    record.Set("forecast_naive_ms", naive_ms);
    record.Set("forecast_speedup", naive_ms / fast_ms);
    record.Set("forecast_candidates", candidates);
  }

  std::printf("\n-- concurrency: 4 ANOMALY scans, serial vs threaded --\n");
  {
    onex::AnomalyOptions aopt;
    aopt.top_k = 10;
    const double serial_ms = onex::bench::TimeOnceMs([&] {
      for (int i = 0; i < 4; ++i) (void)*onex::DetectAnomalies(*base, aopt);
    });
    const double threaded_ms = onex::bench::TimeOnceMs([&] {
      std::vector<std::thread> workers;
      for (int i = 0; i < 4; ++i) {
        workers.emplace_back(
            [&] { (void)*onex::DetectAnomalies(*base, aopt); });
      }
      for (std::thread& w : workers) w.join();
    });
    std::printf("serial %.1f ms, threaded %.1f ms (%.2fx)\n", serial_ms,
                threaded_ms, serial_ms / threaded_ms);
    // On a single core the concurrency ratio is noise, not a speedup;
    // record null so trajectory tooling never charts it as a regression
    // (the bench_e2 convention).
    if (single_core) {
      record.Set("anomaly_concurrent_speedup_4t", onex::json::Value(nullptr));
    } else {
      record.Set("anomaly_concurrent_speedup_4t", serial_ms / threaded_ms);
    }
  }

  std::printf(
      "\nshape check: the group index beats the exhaustive scans it "
      "matches answer-for-answer; truncated BOCPD runs in linear time with "
      "a self-reported error bound; forecast pruning skips most groups via "
      "the centroid lower bound.\n");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << record.Dump() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
