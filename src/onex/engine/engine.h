#ifndef ONEX_ENGINE_ENGINE_H_
#define ONEX_ENGINE_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "onex/common/result.h"
#include "onex/core/analytics.h"
#include "onex/core/incremental.h"
#include "onex/core/onex_base.h"
#include "onex/core/overview.h"
#include "onex/core/query_processor.h"
#include "onex/core/seasonal.h"
#include "onex/core/threshold_advisor.h"
#include "onex/engine/dataset_registry.h"
#include "onex/engine/query_spec.h"
#include "onex/ts/normalization.h"
#include "onex/viz/chart_data.h"

namespace onex {

/// A similarity-search answer enriched with display context.
struct MatchResult {
  BestMatch match;
  std::string matched_series_name;
  /// Normalized values of query and match (the units the base compares in).
  std::vector<double> query_values;
  std::vector<double> match_values;
  QueryStats stats;
  double elapsed_ms = 0.0;
};

/// The ONEX server-side session (Fig 1's middle tier): a thin façade over
/// the multi-dataset DatasetRegistry (DESIGN.md §11) plus every exploratory
/// operation the visual front-end invokes. Thread-safe: slots are
/// individually locked and all query state is immutable shared data,
/// matching the demo's client-server deployment where many browser sessions
/// hit one engine serving a whole dashboard of datasets.
class Engine {
 public:
  Engine() = default;

  /// `registry_options` configures the prepared-base LRU cache (byte
  /// budget; see DatasetRegistryOptions).
  explicit Engine(const DatasetRegistryOptions& registry_options)
      : registry_(registry_options) {}

  /// The dataset registry behind this engine: slot inspection
  /// (Describe), LRU budget control and regroup tickets.
  DatasetRegistry& registry() { return registry_; }
  const DatasetRegistry& registry() const { return registry_; }

  /// Makes the engine durable (DESIGN.md §13): recovers every slot found
  /// under `options.dir` (checkpoint + WAL tail, replayed through the same
  /// writers the live paths use, so the recovered state is bit-identical to
  /// the pre-crash memory image), journals every later acknowledged
  /// mutation write-ahead, and checkpoints in the background per
  /// `options.checkpoint_every`. Call once, before the first dataset is
  /// loaded: durability is a property a dataset has from birth, so with
  /// any dataset present this is FailedPrecondition and the engine stays
  /// memory-only. This is what `onexd --data-dir=` and the PERSIST verb
  /// call.
  Status EnableDurability(const DurabilityOptions& options) {
    return registry_.Recover(options);
  }

  /// Registers a dataset ("Data Loading into ONEX": one click). Fails with
  /// AlreadyExists on name collision.
  Status LoadDataset(const std::string& name, Dataset dataset);

  /// Loads a UCR-format file from disk under `name`.
  Status LoadUcrFile(const std::string& name, const std::string& path);

  Status DropDataset(const std::string& name);
  std::vector<std::string> ListDatasets() const;

  /// Immutable snapshot of a registered dataset.
  Result<std::shared_ptr<const PreparedDataset>> Get(
      const std::string& name) const;

  /// Normalizes and groups: "triggers the preprocessing of this data at the
  /// server side and its loading into the respective ONEX Base". Re-prepare
  /// with different options replaces the base atomically.
  Status Prepare(const std::string& name, const BaseBuildOptions& options,
                 NormalizationKind normalization =
                     NormalizationKind::kMinMaxDataset);

  /// Appends one series (original units) to a loaded dataset. If the dataset
  /// is prepared, the series is normalized with the dataset's frozen
  /// normalization parameters and inserted into the base incrementally
  /// (core/incremental.h) — no full re-preprocessing. Snapshot semantics:
  /// concurrent readers keep the pre-append state.
  Status AppendSeries(const std::string& name, TimeSeries series);

  /// One pending tail for ExtendSeries: `points` (original units) to append
  /// to series `series` of the target dataset. Same shape as the core
  /// layer's extension record — the engine's job is only to map the points
  /// into normalized units before handing them down.
  using ExtendSpec = SeriesExtension;

  /// What one extend did to the dataset, plus the maintenance signals the
  /// streaming dashboard watches (DESIGN.md §12).
  struct ExtendSummary {
    std::size_t series_extended = 0;  ///< Distinct series that grew.
    std::size_t points_appended = 0;
    /// Subsequences the new points created and the base absorbed (0 when
    /// the dataset is unprepared — only the raw tails grow, and the next
    /// Prepare groups them).
    std::size_t new_members = 0;
    /// Post-extend drift of the length classes this extend touched, and the
    /// largest fraction among them.
    std::vector<LengthClassDrift> drift;
    double max_drift = 0.0;
    /// Set when the drift policy scheduled a background regroup; `regroup`
    /// is that job's ticket.
    bool regroup_scheduled = false;
    RegroupTicket regroup;
  };

  /// Streaming point-appends: extends existing series at the tail (the
  /// TimePool "which and when" scenario — live feeds ticking while the
  /// analyst explores). New points are normalized with the dataset's frozen
  /// parameters; only the subsequences they create are generated and
  /// inserted under the build-time leader rule (core/incremental.h), so the
  /// offline grouping work is never repeated. When the per-class drift
  /// crosses the registry's threshold, a background regroup of the drifted
  /// classes is scheduled on the engine's task pool. Snapshot semantics
  /// match AppendSeries: conditional install, retry on a lost race,
  /// concurrent readers keep the pre-extend state.
  Result<ExtendSummary> ExtendSeries(const std::string& name,
                                     std::size_t series,
                                     std::vector<double> points);

  /// Batched multi-extend: all tails land in one snapshot build and one
  /// conditional install — the shape a collector draining a poll cycle of
  /// many feeds wants. Duplicate series entries concatenate in order.
  Result<ExtendSummary> ExtendSeries(const std::string& name,
                                     std::vector<ExtendSpec> extensions);

  /// Persists a prepared dataset as an ONEXARENA checkpoint file (raw and
  /// normalized values, groups, build options, normalization parameters) so
  /// later sessions skip preprocessing. Atomic: a failed write leaves no
  /// file at `path`.
  Status SavePrepared(const std::string& name, const std::string& path) const;

  /// Loads a dataset persisted by SavePrepared (or any checkpoint file) and
  /// registers it as `name` (AlreadyExists on collision). The dataset
  /// arrives prepared and bit-identical to the one saved, raw values
  /// included. The file is read into one heap buffer that its stores pin,
  /// so it serves from the resident tier and the file may change or go
  /// once this returns.
  Status LoadPrepared(const std::string& name, const std::string& path);

  /// Best match for the query across the prepared base (Similarity View).
  Result<MatchResult> SimilaritySearch(const std::string& name,
                                       const QuerySpec& query,
                                       const QueryOptions& options = {}) const;

  /// k best matches, ascending by normalized DTW.
  Result<std::vector<MatchResult>> Knn(const std::string& name,
                                       const QuerySpec& query, std::size_t k,
                                       const QueryOptions& options = {}) const;

  /// Executes many independent similarity searches in one call, fanned
  /// across the engine's task pool — one round-trip serves a dashboard's
  /// worth of linked-view queries (DESIGN.md §6). Results arrive in query
  /// order and are identical to issuing the same SimilaritySearch calls one
  /// at a time; on any per-query failure the whole batch reports the
  /// lowest-indexed error. Empty input yields an empty result.
  Result<std::vector<MatchResult>> SimilaritySearchBatch(
      const std::string& name, const std::vector<QuerySpec>& queries,
      const QueryOptions& options = {}) const;

  /// Batch form of Knn: results[i] holds the k best matches for queries[i].
  /// Same ordering, determinism and error semantics as
  /// SimilaritySearchBatch.
  Result<std::vector<std::vector<MatchResult>>> KnnBatch(
      const std::string& name, const std::vector<QuerySpec>& queries,
      std::size_t k, const QueryOptions& options = {}) const;

  /// Analytics verbs on the group structure (core/analytics.h, DESIGN.md
  /// §18). All four run against the prepared base snapshot, resident or
  /// mapped, exactly like a query.

  /// Nearest-centroid anomaly scores + DBSCAN-style outlier flags.
  Result<AnomalyReport> Anomaly(const std::string& name,
                                const AnomalyOptions& options = {}) const;

  /// BOCPD over one series' normalized values (streamed EXTEND tails
  /// included — the recursion sees whatever the series holds now).
  Result<ChangepointReport> Changepoint(
      const std::string& name, std::size_t series,
      const ChangepointOptions& options = {}) const;

  /// Densest groups, exact motif pair and discords per length class.
  Result<MotifReport> Motif(const std::string& name,
                            const MotifOptions& options = {}) const;

  /// A forecast in both unit systems: the analytics layer predicts in
  /// normalized units; the engine maps the points back through the
  /// dataset's frozen normalization so clients chart domain units.
  struct ForecastResult {
    ForecastReport report;
    std::vector<double> raw_values;  ///< report.values, denormalized.
    std::string series_name;
  };

  /// Nearest-group-continuation or seasonal-naive baseline forecast.
  Result<ForecastResult> Forecast(const std::string& name, std::size_t series,
                                  const ForecastOptions& options = {}) const;

  /// Repeating patterns within one series (Seasonal View).
  Result<std::vector<SeasonalPattern>> Seasonal(
      const std::string& name, std::size_t series_idx,
      const SeasonalOptions& options = {}) const;

  /// Data-driven ST suggestions, computed on the normalized values when the
  /// dataset is prepared (so they are directly usable as build thresholds)
  /// and on raw values otherwise (so the analyst sees domain units).
  Result<ThresholdReport> RecommendThresholds(
      const std::string& name,
      const ThresholdAdvisorOptions& options = {}) const;

  /// Overview Pane data: top groups by cardinality.
  Result<std::vector<OverviewEntry>> Overview(
      const std::string& name, const OverviewOptions& options = {}) const;

  /// One Query-Selection-Pane entry: "each visualized by its name and a
  /// small line graph" (Fig 2, bottom left). The preview is a PAA sketch of
  /// the raw series, cheap enough to ship for every series in the catalog.
  struct CatalogEntry {
    std::string series_name;
    std::string label;
    std::size_t length = 0;
    std::vector<double> preview;  ///< PAA of the raw values.
  };

  /// Catalog of all series in a loaded dataset (prepared or not), in
  /// dataset order. `preview_points` bounds the thumbnail resolution.
  Result<std::vector<CatalogEntry>> Catalog(
      const std::string& name, std::size_t preview_points = 24) const;

  /// Chart builders for a previously obtained match (Figs 2-3).
  Result<viz::MultiLineChartData> MatchMultiLineChart(
      const std::string& name, const MatchResult& result) const;
  Result<viz::RadialChartData> MatchRadialChart(
      const std::string& name, const MatchResult& result) const;
  Result<viz::ConnectedScatterData> MatchConnectedScatter(
      const std::string& name, const MatchResult& result) const;
  Result<viz::SeasonalViewData> SeasonalView(
      const std::string& name, std::size_t series_idx,
      const SeasonalOptions& options = {}) const;

  /// Resolves a QuerySpec to normalized values against `target`'s
  /// normalization (public for tests and benches).
  Result<std::vector<double>> ResolveQuery(const PreparedDataset& target,
                                           const QuerySpec& spec) const;

  /// Cumulative LB_Kim → LB_Keogh → DTW cascade work over every similarity
  /// query this engine has served (MATCH, KNN and each BATCH entry all run
  /// through the same path). The per-query QueryStats attribution invariants
  /// carry over: pruned_kim + pruned_keogh counts every lower-bound prune,
  /// dtw_evals every dynamic program that actually ran. Surfaced by the
  /// STATS verb so a dashboard can watch pruning effectiveness live.
  struct QueryCounters {
    std::uint64_t queries = 0;  ///< Similarity searches executed.
    std::uint64_t pruned_kim = 0;
    std::uint64_t pruned_keogh = 0;
    std::uint64_t dtw_evals = 0;
  };

  /// A consistent-enough snapshot of the counters (each field is read
  /// atomically; fields may straddle a concurrent query).
  QueryCounters query_counters() const;

 private:
  Result<std::shared_ptr<const PreparedDataset>> GetPrepared(
      const std::string& name) const;

  /// One resolved query against one prepared snapshot; shared by the single
  /// and batch entry points so both produce identical results.
  Result<std::vector<MatchResult>> RunKnn(const PreparedDataset& ds,
                                          std::vector<double> qvals,
                                          std::size_t k,
                                          const QueryOptions& options) const;

  /// BATCH fan-out, base builds, regroups and checkpoints all run on
  /// TaskPool::Shared(), the pool onexd's reactor runs requests on; the
  /// registry's destructor drains its in-flight jobs.
  DatasetRegistry registry_;

  /// Lifetime cascade counters; relaxed atomics because queries (including
  /// batch fan-out lanes) accumulate concurrently and only monotone totals
  /// are observed.
  mutable std::atomic<std::uint64_t> queries_served_{0};
  mutable std::atomic<std::uint64_t> pruned_kim_total_{0};
  mutable std::atomic<std::uint64_t> pruned_keogh_total_{0};
  mutable std::atomic<std::uint64_t> dtw_evals_total_{0};
};

}  // namespace onex

#endif  // ONEX_ENGINE_ENGINE_H_
