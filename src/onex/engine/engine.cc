#include "onex/engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "onex/common/task_pool.h"
#include "onex/core/incremental.h"
#include "onex/distance/dtw.h"
#include "onex/engine/snapshot_ops.h"
#include "onex/engine/wal.h"
#include "onex/ts/paa.h"
#include "onex/ts/ucr_io.h"

namespace onex {

Status Engine::LoadDataset(const std::string& name, Dataset dataset) {
  return registry_.Load(name, std::move(dataset));
}

Status Engine::LoadUcrFile(const std::string& name, const std::string& path) {
  ONEX_ASSIGN_OR_RETURN(Dataset ds, ReadUcrFile(path));
  return LoadDataset(name, std::move(ds));
}

Status Engine::DropDataset(const std::string& name) {
  return registry_.Drop(name);
}

std::vector<std::string> Engine::ListDatasets() const {
  return registry_.List();
}

Result<std::shared_ptr<const PreparedDataset>> Engine::Get(
    const std::string& name) const {
  return registry_.Get(name);
}

Result<std::shared_ptr<const PreparedDataset>> Engine::GetPrepared(
    const std::string& name) const {
  return registry_.GetPrepared(name);
}

Status Engine::Prepare(const std::string& name,
                       const BaseBuildOptions& options,
                       NormalizationKind normalization) {
  return registry_.Prepare(name, options, normalization);
}

Status Engine::AppendSeries(const std::string& name, TimeSeries series) {
  if (series.length() < 2) {
    return Status::InvalidArgument("appended series needs >= 2 points");
  }
  // `series` is only read, never consumed, so a retried build reuses it.
  // The transform itself lives in snapshot_ops.h, shared with WAL replay.
  auto build = [&](const std::shared_ptr<const PreparedDataset>& current,
                   WalRecord* record) {
    *record = WalAppendRecord(series);
    return ApplyAppend(*current, series);
  };
  return registry_.Update(name, build).status();
}

Result<Engine::ExtendSummary> Engine::ExtendSeries(const std::string& name,
                                                   std::size_t series,
                                                   std::vector<double> points) {
  std::vector<ExtendSpec> extensions(1);
  extensions[0].series = series;
  extensions[0].points = std::move(points);
  return ExtendSeries(name, std::move(extensions));
}

Result<Engine::ExtendSummary> Engine::ExtendSeries(
    const std::string& name, std::vector<ExtendSpec> extensions) {
  // `extensions` is only read, so a retried build reuses it. Each attempt
  // overwrites `summary`, so after Update it describes the installed one.
  ExtendSummary summary;
  auto build = [&](const std::shared_ptr<const PreparedDataset>& current,
                   WalRecord* record)
      -> Result<std::shared_ptr<const PreparedDataset>> {
    ONEX_ASSIGN_OR_RETURN(ExtendOutcome outcome,
                          ApplyExtend(*current, extensions));
    summary = ExtendSummary{};
    summary.series_extended = outcome.series_extended;
    summary.points_appended = outcome.points_appended;
    summary.new_members = outcome.new_members;
    summary.drift = std::move(outcome.drift);
    for (const LengthClassDrift& d : summary.drift) {
      summary.max_drift = std::max(summary.max_drift, d.fraction());
    }
    *record = WalExtendRecord(extensions);
    return std::move(outcome.snapshot);
  };
  ONEX_RETURN_IF_ERROR(registry_.Update(name, build).status());
  // The drift policy runs after the install so the regroup job sees (at
  // least) the snapshot this extend produced.
  summary.regroup = registry_.MaybeScheduleRegroup(name, summary.drift);
  summary.regroup_scheduled = summary.regroup.valid();
  return summary;
}

Status Engine::SavePrepared(const std::string& name,
                            const std::string& path) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        GetPrepared(name));
  return WriteCheckpointFile(*ds, path, /*sync=*/true);
}

Status Engine::LoadPrepared(const std::string& name, const std::string& path) {
  // Read into memory, never mapped: LOADBASE adopts a foreign file, which
  // may change or disappear once the read returns. The stores pin the
  // buffer they were read into, not the file.
  ONEX_ASSIGN_OR_RETURN(PreparedDataset loaded,
                        ReadCheckpointFile(path, name));
  return registry_.Adopt(
      name, std::make_shared<const PreparedDataset>(std::move(loaded)));
}

Result<std::vector<double>> Engine::ResolveQuery(const PreparedDataset& target,
                                                 const QuerySpec& spec) const {
  if (spec.is_inline()) {
    if (spec.inline_values.size() < 2) {
      return Status::InvalidArgument("inline query needs >= 2 values");
    }
    // Map analyst-provided raw units into the target's normalized space.
    std::vector<double> out;
    out.reserve(spec.inline_values.size());
    switch (target.norm_kind) {
      case NormalizationKind::kNone:
        out = spec.inline_values;
        break;
      case NormalizationKind::kMinMaxDataset: {
        const double lo = target.norm_params.min;
        const double span = target.norm_params.max - target.norm_params.min;
        for (double v : spec.inline_values) {
          out.push_back(span > 0.0 ? (v - lo) / span : 0.0);
        }
        break;
      }
      default:
        return Status::InvalidArgument(
            "inline queries require dataset-level normalization (none or "
            "minmax-dataset); per-series normalization has no global map");
    }
    return out;
  }

  // Reference into a loaded dataset: resolve against its *normalized* copy
  // when the source is the target (same units as the base), else normalize
  // the foreign values with the target's parameters.
  std::shared_ptr<const PreparedDataset> source;
  if (spec.dataset.empty() || spec.dataset == target.name) {
    const Dataset& norm = *target.normalized;
    ONEX_RETURN_IF_ERROR(norm.CheckIndex(spec.series));
    const std::size_t n = norm[spec.series].length();
    const std::size_t len = spec.length == 0
                                ? (spec.start < n ? n - spec.start : 0)
                                : spec.length;
    ONEX_RETURN_IF_ERROR(norm.CheckRange(spec.series, spec.start, len));
    const std::span<const double> vals =
        norm[spec.series].Slice(spec.start, len);
    return std::vector<double>(vals.begin(), vals.end());
  }
  ONEX_ASSIGN_OR_RETURN(source, Get(spec.dataset));
  const Dataset& raw = *source->raw;
  ONEX_RETURN_IF_ERROR(raw.CheckIndex(spec.series));
  const std::size_t n = raw[spec.series].length();
  const std::size_t len =
      spec.length == 0 ? (spec.start < n ? n - spec.start : 0) : spec.length;
  ONEX_RETURN_IF_ERROR(raw.CheckRange(spec.series, spec.start, len));
  const std::span<const double> vals = raw[spec.series].Slice(spec.start, len);
  QuerySpec inline_spec;
  inline_spec.inline_values.assign(vals.begin(), vals.end());
  return ResolveQuery(target, inline_spec);
}

Result<std::vector<MatchResult>> Engine::RunKnn(
    const PreparedDataset& ds, std::vector<double> qvals, std::size_t k,
    const QueryOptions& options) const {
  const auto t0 = std::chrono::steady_clock::now();
  QueryProcessor qp(ds.base.get());
  QueryStats stats;
  ONEX_ASSIGN_OR_RETURN(std::vector<BestMatch> matches,
                        qp.KnnQuery(qvals, k, options, &stats));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  queries_served_.fetch_add(1, std::memory_order_relaxed);
  pruned_kim_total_.fetch_add(stats.pruned_kim, std::memory_order_relaxed);
  pruned_keogh_total_.fetch_add(stats.pruned_keogh,
                                std::memory_order_relaxed);
  dtw_evals_total_.fetch_add(stats.dtw_evals, std::memory_order_relaxed);

  std::vector<MatchResult> out;
  out.reserve(matches.size());
  for (BestMatch& m : matches) {
    MatchResult r;
    r.matched_series_name = (*ds.normalized)[m.ref.series].name();
    const std::span<const double> mv = m.ref.Resolve(*ds.normalized);
    r.match_values.assign(mv.begin(), mv.end());
    r.query_values = qvals;
    r.stats = stats;
    r.elapsed_ms = elapsed_ms;
    r.match = std::move(m);
    out.push_back(std::move(r));
  }
  return out;
}

Result<std::vector<MatchResult>> Engine::Knn(const std::string& name,
                                             const QuerySpec& query,
                                             std::size_t k,
                                             const QueryOptions& options) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        GetPrepared(name));
  ONEX_ASSIGN_OR_RETURN(std::vector<double> qvals, ResolveQuery(*ds, query));
  return RunKnn(*ds, std::move(qvals), k, options);
}

Result<std::vector<std::vector<MatchResult>>> Engine::KnnBatch(
    const std::string& name, const std::vector<QuerySpec>& queries,
    std::size_t k, const QueryOptions& options) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        GetPrepared(name));
  std::vector<std::vector<MatchResult>> out(queries.size());
  if (queries.empty()) return out;

  // Resolve sequentially (cheap, and resolution errors surface before any
  // work starts), then fan the heavy searches across the pool. Every query
  // writes only its own slot, so results match the one-at-a-time path.
  std::vector<std::vector<double>> qvals(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ONEX_ASSIGN_OR_RETURN(qvals[i], ResolveQuery(*ds, queries[i]));
  }
  std::vector<Status> failures(queries.size(), Status::OK());
  TaskPool::Shared().ParallelFor(queries.size(), [&](std::size_t i) {
    Result<std::vector<MatchResult>> r =
        RunKnn(*ds, std::move(qvals[i]), k, options);
    if (r.ok()) {
      out[i] = std::move(r).value();
    } else {
      failures[i] = r.status();
    }
  });
  for (const Status& s : failures) {
    if (!s.ok()) return s;
  }
  return out;
}

Result<std::vector<MatchResult>> Engine::SimilaritySearchBatch(
    const std::string& name, const std::vector<QuerySpec>& queries,
    const QueryOptions& options) const {
  ONEX_ASSIGN_OR_RETURN(std::vector<std::vector<MatchResult>> per_query,
                        KnnBatch(name, queries, 1, options));
  std::vector<MatchResult> out;
  out.reserve(per_query.size());
  for (std::vector<MatchResult>& matches : per_query) {
    if (matches.empty()) return Status::NotFound("no match found");
    out.push_back(std::move(matches.front()));
  }
  return out;
}

Result<MatchResult> Engine::SimilaritySearch(const std::string& name,
                                             const QuerySpec& query,
                                             const QueryOptions& options) const {
  ONEX_ASSIGN_OR_RETURN(std::vector<MatchResult> top,
                        Knn(name, query, 1, options));
  if (top.empty()) return Status::NotFound("no match found");
  return std::move(top.front());
}

Engine::QueryCounters Engine::query_counters() const {
  QueryCounters c;
  c.queries = queries_served_.load(std::memory_order_relaxed);
  c.pruned_kim = pruned_kim_total_.load(std::memory_order_relaxed);
  c.pruned_keogh = pruned_keogh_total_.load(std::memory_order_relaxed);
  c.dtw_evals = dtw_evals_total_.load(std::memory_order_relaxed);
  return c;
}

Result<AnomalyReport> Engine::Anomaly(const std::string& name,
                                      const AnomalyOptions& options) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        GetPrepared(name));
  return DetectAnomalies(*ds->base, options);
}

Result<ChangepointReport> Engine::Changepoint(
    const std::string& name, std::size_t series,
    const ChangepointOptions& options) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        GetPrepared(name));
  ONEX_RETURN_IF_ERROR(ds->normalized->CheckIndex(series));
  return DetectChangepoints((*ds->normalized)[series].AsSpan(), options);
}

Result<MotifReport> Engine::Motif(const std::string& name,
                                  const MotifOptions& options) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        GetPrepared(name));
  return FindMotifs(*ds->base, options);
}

Result<Engine::ForecastResult> Engine::Forecast(
    const std::string& name, std::size_t series,
    const ForecastOptions& options) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        GetPrepared(name));
  ForecastResult result;
  ONEX_ASSIGN_OR_RETURN(result.report,
                        ForecastSeries(*ds->base, series, options));
  result.series_name = (*ds->raw)[series].name();
  result.raw_values.reserve(result.report.values.size());
  for (const double v : result.report.values) {
    result.raw_values.push_back(Denormalize(ds->norm_params, series, v));
  }
  return result;
}

Result<std::vector<SeasonalPattern>> Engine::Seasonal(
    const std::string& name, std::size_t series_idx,
    const SeasonalOptions& options) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        GetPrepared(name));
  return FindSeasonalPatterns(*ds->base, series_idx, options);
}

Result<ThresholdReport> Engine::RecommendThresholds(
    const std::string& name, const ThresholdAdvisorOptions& options) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds, Get(name));
  const Dataset& target = ds->prepared() ? *ds->normalized : *ds->raw;
  return onex::RecommendThresholds(target, options);
}

Result<std::vector<OverviewEntry>> Engine::Overview(
    const std::string& name, const OverviewOptions& options) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        GetPrepared(name));
  return BuildOverview(*ds->base, options);
}

Result<std::vector<Engine::CatalogEntry>> Engine::Catalog(
    const std::string& name, std::size_t preview_points) const {
  if (preview_points == 0) {
    return Status::InvalidArgument("preview_points must be positive");
  }
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds, Get(name));
  std::vector<CatalogEntry> out;
  out.reserve(ds->raw->size());
  for (const TimeSeries& ts : ds->raw->series()) {
    CatalogEntry entry;
    entry.series_name = ts.name();
    entry.label = ts.label();
    entry.length = ts.length();
    entry.preview = Paa(ts.AsSpan(), preview_points);
    out.push_back(std::move(entry));
  }
  return out;
}

Result<viz::MultiLineChartData> Engine::MatchMultiLineChart(
    const std::string& name, const MatchResult& result) const {
  (void)name;
  return viz::BuildMultiLineChart("query", result.query_values,
                                  result.matched_series_name,
                                  result.match_values, result.match.path);
}

Result<viz::RadialChartData> Engine::MatchRadialChart(
    const std::string& name, const MatchResult& result) const {
  (void)name;
  return viz::BuildRadialChart("query", result.query_values,
                               result.matched_series_name,
                               result.match_values);
}

Result<viz::ConnectedScatterData> Engine::MatchConnectedScatter(
    const std::string& name, const MatchResult& result) const {
  (void)name;
  if (result.match.path.empty()) {
    return Status::FailedPrecondition(
        "match has no warping path; run the query with compute_path=true");
  }
  return viz::BuildConnectedScatter("query", result.query_values,
                                    result.matched_series_name,
                                    result.match_values, result.match.path);
}

Result<viz::SeasonalViewData> Engine::SeasonalView(
    const std::string& name, std::size_t series_idx,
    const SeasonalOptions& options) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        GetPrepared(name));
  ONEX_ASSIGN_OR_RETURN(std::vector<SeasonalPattern> patterns,
                        FindSeasonalPatterns(*ds->base, series_idx, options));
  const TimeSeries& ts = (*ds->normalized)[series_idx];
  return viz::BuildSeasonalView(ts.name(), ts.values(), patterns);
}

}  // namespace onex
