/// Operational pipeline: CSV ingestion -> preprocessing -> persistence ->
/// reload in a fresh session -> incremental append of newly arrived data.
/// The lifecycle a production deployment of the demo's server would run.
///
///   $ ./persistence_pipeline [workdir]
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "onex/engine/engine.h"
#include "onex/gen/economic_panel.h"
#include "onex/ts/csv_io.h"

int main(int argc, char** argv) {
  const std::string workdir = argc > 1 ? argv[1] : "/tmp";
  const std::string csv_path = workdir + "/onex_growth_panel.csv";
  const std::string base_path = workdir + "/onex_growth_panel.onexarena";

  // --- Session 1: ingest a CSV panel, prepare, persist. ---
  {
    // Export a MATTERS-like panel to CSV first (stand-in for the analyst's
    // own spreadsheet; see DESIGN.md §3).
    onex::gen::EconomicPanelOptions panel;
    panel.years = 25;
    const onex::Dataset raw = onex::gen::MakeEconomicPanel(panel);
    if (!onex::WriteCsvPanelFile(raw, csv_path).ok()) return 1;
    std::printf("wrote %s (%zu states x %zu years)\n", csv_path.c_str(),
                raw.size(), raw[0].length());

    onex::Engine engine;
    onex::Result<onex::Dataset> panel_ds = onex::ReadCsvPanelFile(csv_path);
    if (!panel_ds.ok()) {
      std::fprintf(stderr, "csv load: %s\n",
                   panel_ds.status().ToString().c_str());
      return 1;
    }
    if (!engine.LoadDataset("growth", std::move(panel_ds).value()).ok()) {
      return 1;
    }

    onex::BaseBuildOptions build;
    build.st = 0.1;
    build.min_length = 6;
    build.threads = 0;  // use every core for the offline step
    if (onex::Status s = engine.Prepare("growth", build); !s.ok()) {
      std::fprintf(stderr, "prepare: %s\n", s.ToString().c_str());
      return 1;
    }
    if (onex::Status s = engine.SavePrepared("growth", base_path); !s.ok()) {
      std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
      return 1;
    }
    const auto prepared = engine.Get("growth");
    std::printf("prepared and saved: %zu groups over %zu subsequences -> %s\n",
                (*prepared)->base->TotalGroups(),
                (*prepared)->base->TotalMembers(), base_path.c_str());
  }

  // --- Session 2 (fresh process, conceptually): reload, query, append. ---
  {
    onex::Engine engine;
    if (onex::Status s = engine.LoadPrepared("growth", base_path); !s.ok()) {
      std::fprintf(stderr, "reload: %s\n", s.ToString().c_str());
      return 1;
    }
    const auto prepared = engine.Get("growth");
    std::printf("reloaded prepared base: %zu groups (no re-clustering)\n",
                (*prepared)->base->TotalGroups());

    // Query against the reloaded base.
    const std::size_t ma = *(*prepared)->raw->FindByName("Massachusetts");
    onex::QuerySpec spec;
    spec.series = ma;
    spec.start = 12;
    onex::QueryOptions qopt;
    qopt.min_length = 8;
    const auto match = engine.SimilaritySearch("growth", spec, qopt);
    if (!match.ok()) return 1;
    std::printf("MA recent-trend best match: %s (normalized DTW %.4f)\n",
                match->matched_series_name.c_str(),
                match->match.normalized_dtw);

    // A new territory reports data: append incrementally.
    std::vector<double> pr_values;
    for (int t = 0; t < 25; ++t) {
      pr_values.push_back(2.0 + 0.8 * std::sin(0.4 * t) + 0.05 * t);
    }
    if (onex::Status s = engine.AppendSeries(
            "growth", onex::TimeSeries("PuertoRico", pr_values));
        !s.ok()) {
      std::fprintf(stderr, "append: %s\n", s.ToString().c_str());
      return 1;
    }
    const auto updated = engine.Get("growth");
    std::printf(
        "appended PuertoRico incrementally: %zu series, %zu groups "
        "(was %zu)\n",
        (*updated)->raw->size(), (*updated)->base->TotalGroups(),
        (*prepared)->base->TotalGroups());

    // The appended series is immediately queryable.
    onex::QuerySpec pr_spec;
    pr_spec.series = (*updated)->raw->size() - 1;
    pr_spec.length = 0;
    onex::QueryOptions pr_opt;
    pr_opt.min_length = 25;
    pr_opt.max_length = 25;
    pr_opt.exhaustive = true;
    const auto pr_knn = engine.Knn("growth", pr_spec, 2, pr_opt);
    if (pr_knn.ok() && pr_knn->size() == 2) {
      std::printf("state most similar to PuertoRico: %s\n",
                  (*pr_knn)[1].matched_series_name.c_str());
    }
  }

  std::remove(csv_path.c_str());
  std::remove(base_path.c_str());
  return 0;
}
