#include "onex/net/protocol.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "onex/common/cancellation.h"
#include "onex/common/string_utils.h"
#include "onex/distance/kernels.h"
#include "onex/engine/wal.h"
#include "onex/gen/economic_panel.h"
#include "onex/gen/electricity.h"
#include "onex/gen/generators.h"
#include "onex/net/cluster.h"
#include "onex/net/cluster_merge.h"
#include "onex/net/replication.h"

namespace onex::net {
namespace {

Status NeedArgs(const Command& cmd, std::size_t n) {
  if (cmd.args.size() < n) {
    return Status::InvalidArgument(StrFormat(
        "%s needs %zu positional argument(s), got %zu", cmd.verb.c_str(), n,
        cmd.args.size()));
  }
  return Status::OK();
}

/// Allocation caps (see the header's protocol table): a single text frame
/// must not be able to command an unbounded allocation.
constexpr long long kMaxGenPoints = 2'000'000;
constexpr long long kMaxCatalogPoints = 100'000;
constexpr long long kMaxThresholdPairs = 1'000'000;
/// A streaming tail append is a poll cycle's worth of points, not a bulk
/// load; bulk ingest goes through LOAD/GEN.
constexpr std::size_t kMaxExtendPoints = 100'000;
/// Background-checkpoint threshold: one frame must not be able to arm a
/// policy that never fires (overflow) or fires pathologically.
constexpr long long kMaxCheckpointEvery = 1'000'000'000;
/// Analytics result sizing (ANOMALY top/minpts, MOTIF top/discords): far
/// above any useful report, low enough that a hostile frame cannot command
/// an unbounded allocation.
constexpr long long kMaxAnalyticsTop = 100'000;
/// CHANGEPOINT run-length cap ceiling: the recursion keeps maxrun
/// hypotheses alive, so the option bounds live memory.
constexpr long long kMaxChangepointRun = 100'000;
/// FORECAST horizon: the response carries horizon points twice (raw +
/// normalized units).
constexpr long long kMaxForecastHorizon = 100'000;
/// deadline_ms: arrival plus the deadline, in the steady clock's
/// nanoseconds, must not overflow (about 292 years of them).
constexpr long long kMaxDeadlineMs = 9'000'000'000'000;

// Dataset resolvers (VerbSpec::dataset): the executor's handlers and the
// cluster coordinator's router both resolve through these.

/// The common rule: positional name, then `dataset=<name>`, then the
/// session's USE default.
Result<std::string> DatasetArg(const Command& cmd, const Session& session) {
  if (!cmd.args.empty()) return cmd.args[0];
  const auto it = cmd.options.find("dataset");
  if (it != cmd.options.end()) return it->second;
  if (!session.dataset.empty()) return session.dataset;
  return Status::InvalidArgument(
      cmd.verb +
      " needs a dataset: positional name, dataset=<name>, or USE <name>");
}

/// Name argument for verbs that must not fall back to the session default
/// (DROP, USE): positional or name=/dataset= only.
Result<std::string> ExplicitNameArg(const Command& cmd, const Session&) {
  if (!cmd.args.empty()) return cmd.args[0];
  for (const char* key : {"name", "dataset"}) {
    const auto it = cmd.options.find(key);
    if (it != cmd.options.end()) return it->second;
  }
  return Status::InvalidArgument(cmd.verb +
                                 " needs a dataset name (positional or "
                                 "name=<name>)");
}

/// The dataset a GEN or LOAD creates: positional, then a non-empty name=.
Result<std::string> NewNameArg(const Command& cmd, const Session&) {
  if (!cmd.args.empty()) return cmd.args[0];
  const auto it = cmd.options.find("name");
  if (it == cmd.options.end() || it->second.empty()) {
    return Status::InvalidArgument(cmd.verb + " needs a dataset name");
  }
  return it->second;
}

json::Value Ok() {
  json::Value v = json::Value::MakeObject();
  v.Set("ok", true);
  return v;
}

/// Parses "series:start:len" into a QuerySpec.
Result<QuerySpec> ParseQueryRef(std::string_view text) {
  const std::vector<std::string> parts = SplitKeepEmpty(text, ':');
  if (parts.size() != 3) {
    return Status::ParseError("query must be <series>:<start>:<len>, got '" +
                              std::string(text) + "'");
  }
  QuerySpec spec;
  ONEX_ASSIGN_OR_RETURN(long long series, ParseInt(parts[0]));
  ONEX_ASSIGN_OR_RETURN(long long start, ParseInt(parts[1]));
  ONEX_ASSIGN_OR_RETURN(long long len, ParseInt(parts[2]));
  if (series < 0 || start < 0 || len < 0) {
    return Status::InvalidArgument("query fields must be non-negative");
  }
  spec.series = static_cast<std::size_t>(series);
  spec.start = static_cast<std::size_t>(start);
  spec.length = static_cast<std::size_t>(len);
  return spec;
}

/// Per-query cascade attribution (QueryStats), shipped as a "stats" object
/// on MATCH/KNN responses and per entry on BATCH so clients can chart where
/// the LB_Kim → LB_Keogh → DTW cascade spent and saved work.
json::Value StatsToJson(const QueryStats& s) {
  json::Value v = json::Value::MakeObject();
  v.Set("groups_total", s.groups_total);
  v.Set("groups_pruned_lb", s.groups_pruned_lb);
  v.Set("members_pruned_lb", s.members_pruned_lb);
  v.Set("rep_dtw_evaluations", s.rep_dtw_evaluations);
  v.Set("member_dtw_evaluations", s.member_dtw_evaluations);
  v.Set("pruned_kim", s.pruned_kim);
  v.Set("pruned_keogh", s.pruned_keogh);
  v.Set("dtw_evals", s.dtw_evals);
  return v;
}

json::Value MatchToJson(const MatchResult& r) {
  json::Value m = json::Value::MakeObject();
  m.Set("series", r.match.ref.series);
  m.Set("series_name", r.matched_series_name);
  m.Set("start", r.match.ref.start);
  m.Set("length", r.match.ref.length);
  m.Set("dtw", r.match.dtw);
  m.Set("normalized_dtw", r.match.normalized_dtw);
  m.Set("rep_dtw", r.match.normalized_rep_dtw);
  m.Set("group", r.match.group_index);
  m.Set("elapsed_ms", r.elapsed_ms);
  json::Value links = json::Value::MakeArray();
  for (const auto& [i, j] : r.match.path) {
    json::Value pair = json::Value::MakeArray();
    pair.Append(json::Value(i));
    pair.Append(json::Value(j));
    links.Append(std::move(pair));
  }
  m.Set("path", std::move(links));
  return m;
}

Result<json::Value> DoGen(Engine* engine, Session*, const Command& cmd,
                          const ExecContext& ctx) {
  ONEX_RETURN_IF_ERROR(NeedArgs(cmd, 2));
  const std::string& name = cmd.args[0];
  const std::string kind = ToLower(cmd.args[1]);
  const std::size_t num = ctx.opt.Size("num");
  const std::size_t len = ctx.opt.Size("len");
  const auto seed = static_cast<std::uint64_t>(ctx.opt.Int("seed"));
  if (num * len > kMaxGenPoints) {
    return Status::InvalidArgument(StrFormat(
        "GEN would synthesize %zu x %zu points; the cap is %lld", num, len,
        kMaxGenPoints));
  }

  Dataset ds;
  if (kind == "walk") {
    gen::RandomWalkOptions opt;
    opt.num_series = num;
    opt.length = len;
    opt.seed = seed;
    ds = gen::MakeRandomWalks(opt);
  } else if (kind == "sine") {
    gen::SineFamilyOptions opt;
    opt.num_series = num;
    opt.length = len;
    opt.seed = seed;
    ds = gen::MakeSineFamilies(opt);
  } else if (kind == "shapes") {
    gen::WarpedShapeOptions opt;
    opt.num_series = num;
    opt.length = len;
    opt.seed = seed;
    ds = gen::MakeWarpedShapes(opt);
  } else if (kind == "electricity") {
    gen::ElectricityOptions opt;
    opt.num_households = num;
    opt.length = len;
    opt.seed = seed;
    ds = gen::MakeElectricityLoad(opt);
  } else if (kind == "economic") {
    gen::EconomicPanelOptions opt;
    opt.years = len;
    opt.seed = seed;
    ds = gen::MakeEconomicPanel(opt);
  } else {
    return Status::InvalidArgument("unknown generator kind: '" + kind + "'");
  }
  ONEX_RETURN_IF_ERROR(engine->LoadDataset(name, std::move(ds)));
  json::Value v = Ok();
  v.Set("dataset", name);
  return v;
}

Result<json::Value> DoPrepare(Engine* engine, Session* session,
                              const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  BaseBuildOptions opt;
  opt.st = ctx.opt.Real("st");
  opt.min_length = ctx.opt.Size("minlen");
  opt.max_length = ctx.opt.Size("maxlen");
  opt.length_step = ctx.opt.Size("lenstep");
  opt.stride = ctx.opt.Size("stride");
  opt.threads = ctx.opt.Size("threads");
  // The row admits only the three spellings (§9).
  opt.centroid_policy = *CentroidPolicyFromString(ctx.opt.Text("policy"));
  ONEX_ASSIGN_OR_RETURN(
      NormalizationKind norm,
      NormalizationKindFromString(std::string(ctx.opt.Text("norm"))));
  ONEX_RETURN_IF_ERROR(engine->Prepare(name, opt, norm));

  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        engine->Get(name));
  json::Value v = Ok();
  v.Set("dataset", name);
  // A concurrent DROP + LOAD from another connection can leave a raw slot
  // under this name by now; the prepare itself succeeded, so report it
  // without base statistics.
  if (ds->prepared()) {
    v.Set("groups", ds->base->stats().num_groups);
    v.Set("subsequences", ds->base->stats().num_subsequences);
    v.Set("length_classes", ds->base->stats().num_length_classes);
    v.Set("compaction", ds->base->stats().CompactionRatio());
    v.Set("build_seconds", ds->base->stats().build_seconds);
  }
  return v;
}

Result<json::Value> DoStats(Engine* engine, Session* session,
                            const Command& cmd, const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        engine->Get(name));
  json::Value v = Ok();
  v.Set("dataset", ds->name);
  v.Set("series", ds->raw->size());
  v.Set("total_points", ds->raw->TotalPoints());
  v.Set("min_length", ds->raw->MinLength());
  v.Set("max_length", ds->raw->MaxLength());
  v.Set("prepared", ds->prepared());
  if (ds->prepared()) {
    v.Set("groups", ds->base->stats().num_groups);
    v.Set("subsequences", ds->base->stats().num_subsequences);
    v.Set("st", ds->build_options.st);
    v.Set("normalization", NormalizationKindToString(ds->norm_kind));
  }
  v.Set("mapped_bytes", engine->registry().mapped_bytes());
  if (const Result<DatasetSlotInfo> row = engine->registry().Describe(name);
      row.ok()) {
    v.Set("tier", row->tier);
    v.Set("last_max_drift", row->last_max_drift);
    v.Set("regrouping", row->regrouping);
    if (row->durable) {
      v.Set("durable", true);
      v.Set("wal_seq", row->wal_seq);
      v.Set("wal_dirty", row->wal_dirty);
      v.Set("checkpoints", row->checkpoints);
    }
  }
  // Engine-wide cascade counters (cumulative over every query this process
  // served, all datasets) and the distance-kernel table answering them.
  const Engine::QueryCounters qc = engine->query_counters();
  v.Set("queries", qc.queries);
  v.Set("pruned_kim", qc.pruned_kim);
  v.Set("pruned_keogh", qc.pruned_keogh);
  v.Set("dtw_evals", qc.dtw_evals);
  v.Set("kernel", std::string(ActiveKernel().name));
  return v;
}

Result<json::Value> DoPersist(Engine* engine, Session*, const Command&,
                              const ExecContext& ctx) {
  if (ctx.opt.Has("dir")) {
    DurabilityOptions opt;
    opt.dir = std::string(ctx.opt.Text("dir"));
    opt.checkpoint_every = ctx.opt.Size("every");
    opt.fsync = ctx.opt.Flag("fsync");
    ONEX_RETURN_IF_ERROR(engine->EnableDurability(opt));
  } else if (ctx.opt.Has("every") || ctx.opt.Has("fsync")) {
    // Both configure the journal dir= enables; alone they change nothing.
    return Status::InvalidArgument("PERSIST every= and fsync= need dir=");
  }
  json::Value v = Ok();
  v.Set("durable", engine->registry().durable());
  v.Set("dir", engine->registry().data_dir());
  return v;
}

Result<json::Value> DoCheckpoint(Engine* engine, Session* session,
                                 const Command& cmd, const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  ONEX_ASSIGN_OR_RETURN(CheckpointInfo info,
                        engine->registry().Checkpoint(name));
  json::Value v = Ok();
  v.Set("dataset", name);
  v.Set("state_seq", info.state_seq);
  v.Set("bytes", info.bytes);
  return v;
}

/// Builds the query's cancellation token from deadline_ms= and the serving
/// layer's disconnect flag. The token lives on the Do* stack, so it must be
/// constructed there and only *pointed to* from QueryOptions.
Cancellation ReadCancellation(const ExecContext& ctx) {
  const long long deadline_ms = ctx.opt.Int("deadline_ms");
  if (deadline_ms == 0) return Cancellation(ctx.disconnected);
  return Cancellation(ctx.arrival + std::chrono::milliseconds(deadline_ms),
                      ctx.disconnected);
}

/// Side-band export for binary responses (a match's normalized values, a
/// raw forecast), appended in answer order. Never touches the JSON, so
/// text and binary bodies stay byte-identical.
void ExportValues(const std::vector<double>& values, const ExecContext& ctx) {
  if (ctx.out_values == nullptr) return;
  ctx.out_values->insert(ctx.out_values->end(), values.begin(), values.end());
}

/// MATCH/KNN/BATCH with datasets=<a,b,c>: the one-node case of the
/// coordinator's fan-out (cluster_merge.h). Each dataset runs the shard
/// command in a scratch session, as a shard runs a forwarded one, and the
/// answers go to the same merge. q= resolves within each dataset.
Result<json::Value> DoFanOut(Engine* engine, const Command& cmd,
                             const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(FanOut plan, PlanFanOut(cmd, ctx.opt));
  std::vector<WireResponse> answers;
  for (const std::string& name : plan.names) {
    Command shard = plan.shard;
    shard.options["dataset"] = name;
    WireResponse& answer = answers.emplace_back();
    ExecContext local = ctx;  // Its cluster is null: this runs on one node.
    local.verb = nullptr;
    local.out_values = &answer.values;
    Session scratch;
    answer.body = ExecuteCommand(engine, &scratch, shard, local);
    if (!answer.body["ok"].as_bool()) break;
  }
  return MergeFanOut(cmd, plan, answers, ctx.out_values);
}

/// MATCH, KNN and BATCH: each query of q= (BATCH: ';'-separated, at most
/// kMaxBatchSpecs) with its k nearest matches, k=1 for MATCH. One engine
/// path serves all three; only the response's shape differs. A KNN body
/// is one BATCH entry, and MATCH's match is that entry's first.
Result<json::Value> DoQuery(Engine* engine, Session* session,
                            const Command& cmd, const ExecContext& ctx) {
  if (ctx.opt.Has("datasets")) return DoFanOut(engine, cmd, ctx);
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  const bool batch = cmd.verb == "BATCH";
  if (!ctx.opt.Has("q")) {
    return Status::InvalidArgument(
        batch ? "missing q=<series>:<start>:<len>[;<series>:<start>:<len>...]"
              : "missing q=<series>:<start>:<len>");
  }
  std::vector<QuerySpec> specs;
  for (const std::string& ref :
       batch ? SplitKeepEmpty(ctx.opt.Text("q"), ';')
             : std::vector<std::string>{std::string(ctx.opt.Text("q"))}) {
    if (specs.size() >= kMaxBatchSpecs) {
      return Status::InvalidArgument(StrFormat(
          "BATCH accepts at most %zu queries per frame", kMaxBatchSpecs));
    }
    ONEX_ASSIGN_OR_RETURN(QuerySpec spec, ParseQueryRef(ref));
    specs.push_back(std::move(spec));
  }
  const std::size_t k = cmd.verb == "MATCH" ? 1 : ctx.opt.Size("k");
  // The response carries specs x k matches; bound the product so one frame
  // cannot command an unbounded result materialization.
  if (static_cast<long long>(specs.size() * k) > kMaxKnnK) {
    return Status::InvalidArgument(StrFormat(
        "BATCH result volume (queries x k) is capped at %lld", kMaxKnnK));
  }
  QueryOptions qopt;
  // Any negative window means unconstrained.
  const long long window = ctx.opt.Int("window");
  qopt.window = window < 0 ? kNoWindow : static_cast<int>(window);
  qopt.explore_top_groups = ctx.opt.Size("topgroups");
  qopt.exhaustive = ctx.opt.Flag("exhaustive");
  Cancellation cancel = ReadCancellation(ctx);
  qopt.cancel = &cancel;

  ONEX_ASSIGN_OR_RETURN(std::vector<std::vector<MatchResult>> per_query,
                        engine->KnnBatch(name, specs, k, qopt));
  json::Value::Array entries;
  for (const std::vector<MatchResult>& matches : per_query) {
    json::Value entry = json::Value::MakeObject();
    json::Value arr = json::Value::MakeArray();
    for (const MatchResult& r : matches) {
      arr.Append(MatchToJson(r));
      ExportValues(r.match_values, ctx);
    }
    entry.Set("matches", std::move(arr));
    // One search produced all k matches, so they share its stats.
    if (!matches.empty()) {
      entry.Set("stats", StatsToJson(matches.front().stats));
    }
    entries.push_back(std::move(entry));
  }
  json::Value v = Ok();
  if (batch) {
    v.Set("results", std::move(entries));
    return v;
  }
  if (cmd.verb == "KNN") {
    entries[0].Set("ok", true);
    return std::move(entries[0]);
  }
  if (entries[0]["matches"].as_array().empty()) {
    return Status::NotFound("no match found");
  }
  v.Set("match", entries[0]["matches"][0]);
  v.Set("stats", entries[0]["stats"]);
  return v;
}

Result<json::Value> DoSeasonal(Engine* engine, Session* session,
                               const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  SeasonalOptions opt;
  opt.length = ctx.opt.Size("length");
  opt.min_occurrences = ctx.opt.Size("minocc");
  opt.top_k = ctx.opt.Size("top");
  ONEX_ASSIGN_OR_RETURN(std::vector<SeasonalPattern> patterns,
                        engine->Seasonal(name, ctx.opt.Size("series"), opt));
  json::Value v = Ok();
  json::Value arr = json::Value::MakeArray();
  for (const SeasonalPattern& p : patterns) {
    json::Value row = json::Value::MakeObject();
    row.Set("length", p.length);
    row.Set("occurrences", p.occurrences.size());
    row.Set("typical_gap", p.typical_gap);
    row.Set("cohesion", p.cohesion);
    json::Value occ = json::Value::MakeArray();
    for (const SubseqRef& r : p.occurrences) occ.Append(json::Value(r.start));
    row.Set("starts", std::move(occ));
    arr.Append(std::move(row));
  }
  v.Set("patterns", std::move(arr));
  return v;
}

Result<json::Value> DoOverview(Engine* engine, Session* session,
                               const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  OverviewOptions opt;
  opt.length = ctx.opt.Size("length");
  opt.top_n = ctx.opt.Size("top");
  ONEX_ASSIGN_OR_RETURN(std::vector<OverviewEntry> entries,
                        engine->Overview(name, opt));
  json::Value v = Ok();
  v.Set("overview", viz::BuildOverviewPane(entries).ToJson());
  return v;
}

Result<json::Value> DoThreshold(Engine* engine, Session* session,
                                const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  ThresholdAdvisorOptions opt;
  opt.sample_pairs = ctx.opt.Size("pairs");
  opt.min_length = ctx.opt.Size("minlen");
  opt.max_length = ctx.opt.Size("maxlen");
  ONEX_ASSIGN_OR_RETURN(ThresholdReport report,
                        engine->RecommendThresholds(name, opt));
  json::Value v = Ok();
  json::Value arr = json::Value::MakeArray();
  for (const ThresholdRecommendation& r : report.recommendations) {
    json::Value row = json::Value::MakeObject();
    row.Set("st", r.st);
    row.Set("percentile", r.percentile);
    arr.Append(std::move(row));
  }
  v.Set("recommendations", std::move(arr));
  v.Set("median_distance", report.median_distance);
  v.Set("pairs_sampled", report.pairs_sampled);
  return v;
}

/// The values of an APPEND (v=) or EXTEND (points=): the option's
/// comma-separated numbers, else the binary frame's raw float64 payload.
/// Both dialects keep one contract: at most `cap` values, all finite.
/// strtod admits "nan"/"inf" and a payload carries any bits, and a NaN in
/// the data poisons every later distance comparison *silently* (NaN
/// compares false against everything, so cascades neither prune nor match).
Result<std::vector<double>> ReadValues(const Command& cmd,
                                       const CheckedOptions& opt,
                                       std::string_view key, std::size_t cap) {
  std::vector<double> values;
  if (opt.Has(key)) {
    for (const std::string& token : SplitKeepEmpty(opt.Text(key), ',')) {
      ONEX_ASSIGN_OR_RETURN(double v, ParseDouble(token));
      values.push_back(v);
    }
  } else if (cmd.payload.empty()) {
    return Status::InvalidArgument(
        "missing " + std::string(key) +
        "=<comma-separated values> (or a binary value payload)");
  } else {
    values = cmd.payload;
  }
  if (values.size() > cap) {
    return Status::InvalidArgument(StrFormat(
        "%s accepts at most %zu points per frame", cmd.verb.c_str(), cap));
  }
  for (const double v : values) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("values must be finite numbers");
    }
  }
  return values;
}

Result<json::Value> DoAppend(Engine* engine, Session* session,
                             const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  ONEX_ASSIGN_OR_RETURN(std::vector<double> values,
                        ReadValues(cmd, ctx.opt, "v", SIZE_MAX));
  ONEX_RETURN_IF_ERROR(engine->AppendSeries(
      name, TimeSeries(std::string(ctx.opt.Text("series")),
                       std::move(values))));
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        engine->Get(name));
  json::Value v = Ok();
  v.Set("dataset", name);
  v.Set("series", ds->raw->size());
  if (ds->prepared()) v.Set("groups", ds->base->stats().num_groups);
  return v;
}

json::Value DriftToJson(const LengthClassDrift& d) {
  json::Value row = json::Value::MakeObject();
  row.Set("length", d.length);
  row.Set("members", d.members);
  row.Set("outliers", d.outliers);
  row.Set("fraction", d.fraction());
  return row;
}

/// series=<idx|name> resolution against the dataset's current snapshot,
/// shared by EXTEND, CHANGEPOINT and FORECAST.
Result<std::size_t> ResolveSeriesOption(Engine* engine,
                                        const std::string& name,
                                        const CheckedOptions& opt) {
  if (!opt.Has("series")) {
    return Status::InvalidArgument("missing series=<index or name>");
  }
  const std::string series(opt.Text("series"));
  const Result<long long> idx = ParseInt(series);
  if (idx.ok()) {
    if (*idx < 0) {
      return Status::InvalidArgument("series index must be >= 0");
    }
    return static_cast<std::size_t>(*idx);
  }
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        engine->Get(name));
  return ds->raw->FindByName(series);
}

json::Value RefToJson(const SubseqRef& ref) {
  json::Value v = json::Value::MakeObject();
  v.Set("series", ref.series);
  v.Set("start", ref.start);
  v.Set("length", ref.length);
  return v;
}

Result<json::Value> DoAnomaly(Engine* engine, Session* session,
                              const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  Cancellation cancel = ReadCancellation(ctx);
  AnomalyOptions opt;
  opt.length = ctx.opt.Size("length");
  opt.top_k = ctx.opt.Size("top");
  opt.min_pts = ctx.opt.Size("minpts");
  opt.eps = ctx.opt.Real("eps");
  opt.cancel = &cancel;
  ONEX_ASSIGN_OR_RETURN(AnomalyReport report, engine->Anomaly(name, opt));

  json::Value v = Ok();
  v.Set("dataset", name);
  v.Set("members_scanned", report.members_scanned);
  v.Set("outliers", report.outliers);
  v.Set("distance_evals", report.distance_evals);
  v.Set("evals_abandoned", report.evals_abandoned);
  json::Value arr = json::Value::MakeArray();
  for (const AnomalyFinding& f : report.findings) {
    json::Value row = RefToJson(f.ref);
    row.Set("score", f.score);
    row.Set("outlier", f.outlier);
    arr.Append(std::move(row));
  }
  v.Set("findings", std::move(arr));
  json::Value drift = json::Value::MakeArray();
  for (const LengthClassDrift& d : report.drift) {
    drift.Append(DriftToJson(d));
  }
  v.Set("drift", std::move(drift));
  return v;
}

Result<json::Value> DoChangepoint(Engine* engine, Session* session,
                                  const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  ONEX_ASSIGN_OR_RETURN(std::size_t series,
                        ResolveSeriesOption(engine, name, ctx.opt));
  Cancellation cancel = ReadCancellation(ctx);
  ChangepointOptions opt;
  opt.hazard = ctx.opt.Real("hazard");
  opt.threshold = ctx.opt.Real("threshold");
  opt.max_run = ctx.opt.Size("maxrun");
  opt.last = ctx.opt.Size("last");
  opt.cancel = &cancel;
  ONEX_ASSIGN_OR_RETURN(ChangepointReport report,
                        engine->Changepoint(name, series, opt));

  json::Value v = Ok();
  v.Set("dataset", name);
  v.Set("series", series);
  v.Set("evaluated", report.evaluated);
  v.Set("map_run_length", report.map_run_length);
  v.Set("mass_dropped", report.mass_dropped);
  v.Set("error_bound", report.error_bound);
  json::Value arr = json::Value::MakeArray();
  for (const ChangepointHit& hit : report.changepoints) {
    json::Value row = json::Value::MakeObject();
    row.Set("index", hit.index);
    row.Set("probability", hit.probability);
    arr.Append(std::move(row));
  }
  v.Set("changepoints", std::move(arr));
  if (ctx.opt.Flag("probs")) {
    v.Set("probabilities",
          json::Value::NumberArray(report.change_probability));
  }
  return v;
}

Result<json::Value> DoMotif(Engine* engine, Session* session,
                            const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  Cancellation cancel = ReadCancellation(ctx);
  MotifOptions opt;
  opt.length = ctx.opt.Size("length");
  opt.top_k = ctx.opt.Size("top");
  opt.discords = ctx.opt.Size("discords");
  opt.cancel = &cancel;
  ONEX_ASSIGN_OR_RETURN(MotifReport report, engine->Motif(name, opt));

  json::Value v = Ok();
  v.Set("dataset", name);
  v.Set("members_scanned", report.members_scanned);
  v.Set("pairs_evaluated", report.pairs_evaluated);
  v.Set("pairs_pruned", report.pairs_pruned);
  json::Value classes = json::Value::MakeArray();
  for (const MotifClassReport& cls : report.classes) {
    json::Value row = json::Value::MakeObject();
    row.Set("length", cls.length);
    json::Value densest = json::Value::MakeArray();
    for (const MotifGroup& g : cls.densest) {
      json::Value gr = json::Value::MakeObject();
      gr.Set("group", g.group);
      gr.Set("count", g.count);
      gr.Set("radius", g.radius);
      densest.Append(std::move(gr));
    }
    row.Set("densest", std::move(densest));
    if (cls.has_motif) {
      json::Value pair = json::Value::MakeObject();
      pair.Set("a", RefToJson(cls.motif_a));
      pair.Set("b", RefToJson(cls.motif_b));
      pair.Set("distance", cls.motif_distance);
      row.Set("motif", std::move(pair));
    }
    json::Value lonely = json::Value::MakeArray();
    for (const Discord& d : cls.discords) {
      json::Value dr = RefToJson(d.ref);
      dr.Set("distance", d.distance);
      lonely.Append(std::move(dr));
    }
    row.Set("discords", std::move(lonely));
    classes.Append(std::move(row));
  }
  v.Set("classes", std::move(classes));
  return v;
}

Result<json::Value> DoForecast(Engine* engine, Session* session,
                               const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  ONEX_ASSIGN_OR_RETURN(std::size_t series,
                        ResolveSeriesOption(engine, name, ctx.opt));
  Cancellation cancel = ReadCancellation(ctx);
  const std::string method(ctx.opt.Text("method"));
  ForecastOptions opt;
  opt.horizon = ctx.opt.Size("horizon");
  opt.length = ctx.opt.Size("length");
  opt.k = ctx.opt.Size("k");
  opt.period = ctx.opt.Size("period");
  opt.cancel = &cancel;
  opt.method = method == "group" ? ForecastMethod::kGroupNn
                                 : ForecastMethod::kSeasonalNaive;
  ONEX_ASSIGN_OR_RETURN(Engine::ForecastResult result,
                        engine->Forecast(name, series, opt));

  json::Value v = Ok();
  v.Set("dataset", name);
  v.Set("series", series);
  v.Set("series_name", result.series_name);
  v.Set("method", method);
  v.Set("tail_start", result.report.tail_start);
  v.Set("tail_length", result.report.tail_length);
  if (result.report.period != 0) v.Set("period", result.report.period);
  v.Set("values", json::Value::NumberArray(result.raw_values));
  v.Set("values_norm", json::Value::NumberArray(result.report.values));
  json::Value neighbors = json::Value::MakeArray();
  for (const ForecastNeighbor& n : result.report.neighbors) {
    json::Value row = RefToJson(n.ref);
    row.Set("distance", n.distance);
    neighbors.Append(std::move(row));
  }
  v.Set("neighbors", std::move(neighbors));
  v.Set("candidates", result.report.candidates);
  v.Set("groups_pruned", result.report.groups_pruned);
  // Binary clients get the raw forecast as a float64 section, like MATCH
  // values.
  ExportValues(result.raw_values, ctx);
  return v;
}

Result<json::Value> DoExtend(Engine* engine, Session* session,
                             const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  ONEX_ASSIGN_OR_RETURN(std::vector<double> points,
                        ReadValues(cmd, ctx.opt, "points", kMaxExtendPoints));
  ONEX_ASSIGN_OR_RETURN(std::size_t series,
                        ResolveSeriesOption(engine, name, ctx.opt));
  ONEX_ASSIGN_OR_RETURN(Engine::ExtendSummary summary,
                        engine->ExtendSeries(name, series, std::move(points)));
  json::Value v = Ok();
  v.Set("dataset", name);
  v.Set("series", series);
  // Best-effort length report: the write is already installed, so a
  // concurrent DROP must not turn an acknowledged extend into an error.
  if (const Result<std::shared_ptr<const PreparedDataset>> after =
          engine->Get(name);
      after.ok() && (*after)->raw->CheckIndex(series).ok()) {
    v.Set("length", (*(*after)->raw)[series].length());
  }
  v.Set("points_appended", summary.points_appended);
  v.Set("new_members", summary.new_members);
  v.Set("max_drift", summary.max_drift);
  v.Set("regroup_scheduled", summary.regroup_scheduled);
  json::Value arr = json::Value::MakeArray();
  for (const LengthClassDrift& d : summary.drift) arr.Append(DriftToJson(d));
  v.Set("drift", std::move(arr));
  return v;
}

Result<json::Value> DoDrift(Engine* engine, Session* session,
                            const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  // Validate everything before committing the (registry-wide) threshold, so
  // a failed command leaves no side effect behind.
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        engine->Get(name));
  if (ctx.opt.Has("threshold")) {
    engine->registry().SetDriftThreshold(ctx.opt.Real("threshold"));
  }
  ONEX_ASSIGN_OR_RETURN(DatasetSlotInfo row,
                        engine->registry().Describe(name));
  json::Value v = Ok();
  v.Set("dataset", name);
  v.Set("threshold", engine->registry().drift_threshold());
  v.Set("regrouping", row.regrouping);
  v.Set("regroups_completed", row.regroups_completed);
  v.Set("last_max_drift", row.last_max_drift);
  v.Set("prepared", ds->prepared());
  if (ds->prepared()) {
    // Full scan over the prepared base. Reads the snapshot via Get, not
    // GetPrepared: a DRIFT poll is not a query and must not touch the LRU.
    double max_drift = 0.0;
    json::Value arr = json::Value::MakeArray();
    for (const LengthClassDrift& d : ComputeDrift(*ds->base)) {
      max_drift = std::max(max_drift, d.fraction());
      arr.Append(DriftToJson(d));
    }
    v.Set("classes", std::move(arr));
    v.Set("max_drift", max_drift);
  }
  return v;
}

Result<json::Value> DoDatasets(Engine* engine, Session*, const Command&,
                               const ExecContext&) {
  json::Value v = Ok();
  json::Value arr = json::Value::MakeArray();
  for (const DatasetSlotInfo& info : engine->registry().Describe()) {
    json::Value row = json::Value::MakeObject();
    row.Set("name", info.name);
    row.Set("series", info.series);
    row.Set("prepared", info.prepared);
    row.Set("bytes", info.prepared_bytes);
    row.Set("tier", info.tier);
    row.Set("mapped_bytes", info.mapped_bytes);
    row.Set("pinned", info.pinned);
    row.Set("regrouping", info.regrouping);
    row.Set("last_max_drift", info.last_max_drift);
    row.Set("durable", info.durable);
    if (info.durable) {
      row.Set("wal_seq", info.wal_seq);
      row.Set("wal_dirty", info.wal_dirty);
      row.Set("checkpoints", info.checkpoints);
    }
    arr.Append(std::move(row));
  }
  v.Set("datasets", std::move(arr));
  v.Set("budget", engine->registry().prepared_budget());
  v.Set("prepared_bytes", engine->registry().prepared_bytes());
  v.Set("mapped_bytes", engine->registry().mapped_bytes());
  v.Set("durable", engine->registry().durable());
  return v;
}

Result<json::Value> DoUse(Engine* engine, Session* session,
                          const Command& cmd, const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, ExplicitNameArg(cmd, *session));
  // Validate before committing so a typo does not poison the session.
  ONEX_RETURN_IF_ERROR(engine->Get(name).status());
  session->dataset = name;
  json::Value v = Ok();
  v.Set("dataset", name);
  return v;
}

Result<json::Value> DoBudget(Engine* engine, Session*, const Command&,
                             const ExecContext& ctx) {
  if (ctx.opt.Has("bytes")) {
    const std::size_t bytes = ctx.opt.Size("bytes");
    if (bytes > 0 && !engine->registry().durable()) {
      return Status::FailedPrecondition(
          "a budget needs durability (PERSIST or onexd --data-dir): evicted "
          "bases serve from their checkpoint");
    }
    engine->registry().SetPreparedBudget(bytes);
  }
  json::Value v = Ok();
  v.Set("budget", engine->registry().prepared_budget());
  v.Set("prepared_bytes", engine->registry().prepared_bytes());
  return v;
}

Result<json::Value> DoTier(Engine* engine, Session* session,
                           const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  if (ctx.opt.Has("pin")) {
    ONEX_RETURN_IF_ERROR(
        engine->registry().SetPinned(name, ctx.opt.Flag("pin")));
  }
  if (ctx.opt.Flag("demote")) {
    ONEX_RETURN_IF_ERROR(engine->registry().Demote(name));
  }
  // One row, read under one lock: tier, pin and mapped bytes agree.
  ONEX_ASSIGN_OR_RETURN(DatasetSlotInfo info,
                        engine->registry().Describe(name));
  json::Value v = Ok();
  v.Set("dataset", name);
  v.Set("tier", info.tier);
  v.Set("pinned", info.pinned);
  v.Set("mapped_bytes", info.mapped_bytes);
  return v;
}

Result<json::Value> DoLoad(Engine* engine, Session* session,
                           const Command& cmd, const ExecContext& ctx) {
  // Positionals win over options, independently per field, so the mixed
  // forms ("LOAD foo path=/x") behave like every other verb's resolution.
  const Result<std::string> name = NewNameArg(cmd, *session);
  const std::string path =
      cmd.args.size() >= 2 ? cmd.args[1] : std::string(ctx.opt.Text("path"));
  if (!name.ok() || path.empty()) {
    return Status::InvalidArgument(
        "LOAD needs <name> <path> (or name=<n> path=<p>)");
  }
  ONEX_RETURN_IF_ERROR(engine->LoadUcrFile(*name, path));
  json::Value v = Ok();
  v.Set("dataset", *name);
  return v;
}

// --- Replication verbs (DESIGN.md §16) -------------------------------------

Result<std::string> ReplDatasetArg(const Command& cmd,
                                   const CheckedOptions& opt) {
  if (opt.Text("dataset").empty()) {
    return Status::InvalidArgument(cmd.verb + " needs dataset=<name>");
  }
  return std::string(opt.Text("dataset"));
}

Result<json::Value> DoReplHello(Engine* engine, Session*, const Command& cmd,
                                const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, ReplDatasetArg(cmd, ctx.opt));
  json::Value v = Ok();
  v.Set("dataset", name);
  Result<DatasetSlotInfo> row = engine->registry().Describe(name);
  if (!row.ok()) {
    if (row.status().code() != StatusCode::kNotFound) return row.status();
    // Unknown slot: the replica starts from the log's beginning.
    v.Set("last_seq", 0);
    return v;
  }
  if (!row->durable) {
    return Status::FailedPrecondition(
        "dataset '" + name +
        "' has no journal here; replication needs a durable registry");
  }
  v.Set("last_seq", row->wal_seq);
  return v;
}

Result<json::Value> DoReplApply(Engine* engine, Session*, const Command& cmd,
                                const ExecContext& ctx) {
  if (cmd.blob.empty()) {
    return Status::InvalidArgument(
        "REPLAPPLY carries WAL lines after the command line and is only "
        "meaningful over the binary frame");
  }
  ONEX_ASSIGN_OR_RETURN(std::string name, ReplDatasetArg(cmd, ctx.opt));
  if (!ctx.opt.Has("first") || !ctx.opt.Has("count")) {
    return Status::InvalidArgument("REPLAPPLY needs first=>=1 and count=>=1");
  }
  const std::optional<std::uint64_t> crc = ParseHex64(ctx.opt.Text("crc"));
  if (!crc) return Status::InvalidArgument("crc must be 1..16 hex digits");
  ONEX_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                        DecodeWalBatchBlob(cmd.blob, *crc, ctx.opt.Size("first"),
                                           ctx.opt.Size("count")));
  for (const WalRecord& record : records) {
    ONEX_RETURN_IF_ERROR(engine->registry().ApplyReplicated(name, record));
  }
  ONEX_ASSIGN_OR_RETURN(DatasetSlotInfo row, engine->registry().Describe(name));
  json::Value v = Ok();
  v.Set("dataset", name);
  v.Set("applied", records.size());
  v.Set("last_seq", row.wal_seq);
  return v;
}

Result<json::Value> DoReplStatus(Engine* engine, Session*, const Command&,
                                 const ExecContext&) {
  json::Value v = Ok();
  json::Value floors = json::Value::MakeObject();
  for (const DatasetSlotInfo& row : engine->registry().Describe()) {
    if (row.durable) floors.Set(row.name, row.wal_seq);
  }
  v.Set("datasets", std::move(floors));
  return v;
}

Result<json::Value> DoPing(Engine*, Session*, const Command&,
                           const ExecContext&) {
  json::Value v = Ok();
  v.Set("pong", true);
  return v;
}

Result<json::Value> DoList(Engine* engine, Session*, const Command&,
                           const ExecContext&) {
  json::Value v = Ok();
  json::Value arr = json::Value::MakeArray();
  for (const std::string& name : engine->ListDatasets()) {
    arr.Append(json::Value(name));
  }
  v.Set("datasets", std::move(arr));
  return v;
}

Result<json::Value> DoDrop(Engine* engine, Session* session,
                           const Command& cmd, const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, ExplicitNameArg(cmd, *session));
  ONEX_RETURN_IF_ERROR(engine->DropDataset(name));
  if (session->dataset == name) session->dataset.clear();
  return Ok();
}

Result<json::Value> DoSavePrepared(Engine* engine, Session*,
                                   const Command& cmd, const ExecContext&) {
  ONEX_RETURN_IF_ERROR(NeedArgs(cmd, 2));
  ONEX_RETURN_IF_ERROR(engine->SavePrepared(cmd.args[0], cmd.args[1]));
  json::Value v = Ok();
  v.Set("path", cmd.args[1]);
  return v;
}

Result<json::Value> DoLoadPrepared(Engine* engine, Session*,
                                   const Command& cmd, const ExecContext&) {
  ONEX_RETURN_IF_ERROR(NeedArgs(cmd, 2));
  ONEX_RETURN_IF_ERROR(engine->LoadPrepared(cmd.args[0], cmd.args[1]));
  json::Value v = Ok();
  v.Set("dataset", cmd.args[0]);
  return v;
}

Result<json::Value> DoCatalog(Engine* engine, Session* session,
                              const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  ONEX_ASSIGN_OR_RETURN(std::vector<Engine::CatalogEntry> entries,
                        engine->Catalog(name, ctx.opt.Size("points")));
  json::Value v = Ok();
  json::Value arr = json::Value::MakeArray();
  for (const Engine::CatalogEntry& e : entries) {
    json::Value row = json::Value::MakeObject();
    row.Set("name", e.series_name);
    row.Set("label", e.label);
    row.Set("length", e.length);
    row.Set("preview", json::Value::NumberArray(e.preview));
    arr.Append(std::move(row));
  }
  v.Set("series", std::move(arr));
  return v;
}

Result<json::Value> DoQuit(Engine*, Session*, const Command&,
                           const ExecContext&) {
  json::Value v = Ok();
  v.Set("bye", true);
  return v;
}

/// Single-node answer; a cluster coordinator answers CLUSTER with its own
/// status report before the executor ever sees it.
Result<json::Value> DoCluster(Engine*, Session*, const Command&,
                              const ExecContext&) {
  json::Value v = Ok();
  v.Set("enabled", false);
  return v;
}

using EC = ExecClass;
using CR = ClusterRoute;
using enum OptKind;
constexpr double kInf = OptionSpec::kUnbounded;

/// Concatenates option groups, each declared once, into one verb's list.
template <std::size_t... N>
constexpr auto Join(const OptionSpec (&... groups)[N]) {
  std::array<OptionSpec, (N + ...)> out{};
  auto it = out.begin();
  ((it = std::copy(std::begin(groups), std::end(groups), it)), ...);
  return out;
}

constexpr OptionSpec kDataset[] = {{"dataset"}};
constexpr OptionSpec kDeadline[] = {
    {"deadline_ms", kInt, "0", 0, kMaxDeadlineMs}};
/// The length class an analytics verb reads; 0: every class.
constexpr OptionSpec kLength[] = {{"length", kInt, "0", 0}};
/// The subsequence lengths PREPARE groups and THRESHOLD samples.
constexpr OptionSpec kLengthRange[] = {{"minlen", kInt, "4", 2},
                                       {"maxlen", kInt, "0", 0}};
constexpr OptionSpec kSeries[] = {{"series"}};  // An index or a name.
/// MATCH, KNN and BATCH. Any negative window is unconstrained; threads= is
/// accepted and ignored, since a query runs on one thread.
constexpr OptionSpec kQuery[] = {
    {"q"}, {"datasets"},
    {"window", kInt, "-1", -kInf, std::numeric_limits<int>::max()},
    {"topgroups", kInt, "1", 1}, {"exhaustive", kFlag, "0"},
    {"threads", kInt, "", 0}};
constexpr OptionSpec kK3[] = {{"k", kInt, "3", 1, kMaxKnnK}};
constexpr OptionSpec kK1[] = {{"k", kInt, "1", 1, kMaxKnnK}};

// Each verb's options, the last column of its row.
constexpr OptionSpec kName[] = {{"name"}, {"dataset"}};
constexpr OptionSpec kBudget[] = {{"bytes", kInt, "", 0}};
constexpr auto kTier = Join(kDataset, {{"pin", kFlag}, {"demote", kFlag}});
constexpr OptionSpec kGen[] = {{"num", kInt, "50", 1, kMaxGenPoints},
                               {"len", kInt, "100", 2, kMaxGenPoints},
                               {"seed", kInt, "42"}};
constexpr OptionSpec kLoad[] = {{"name"}, {"path"}};
constexpr auto kPrepare = Join(
    kDataset, kLengthRange,
    {{"st", kReal, "0.2"}, {"lenstep", kInt, "1", 1}, {"stride", kInt, "1", 1},
     {"threads", kInt, "1", 0}, {"norm", kText, "minmax-dataset"},
     {"policy", kChoice, "running-mean", 0, 0,
      "fixed-leader|running-mean|running-mean-repair"}});
constexpr auto kAppend = Join(kDataset, {{"v"}, {"series", kText, "appended"}});
constexpr auto kExtend = Join(kDataset, kSeries, {{"points"}});
constexpr auto kDrift = Join(kDataset, {{"threshold", kReal, "", 0, 1}});
constexpr OptionSpec kPersist[] = {{"dir"},
                                   {"every", kInt, "0", 0, kMaxCheckpointEvery},
                                   {"fsync", kFlag, "1"}};
constexpr auto kCatalog =
    Join(kDataset, {{"points", kInt, "24", 1, kMaxCatalogPoints}});
constexpr auto kOverview = Join(kDataset, kLength, {{"top", kInt, "12", 0}});
constexpr auto kMatch = Join(kDataset, kDeadline, kQuery);
constexpr auto kKnn = Join(kDataset, kDeadline, kQuery, kK3);
constexpr auto kBatch = Join(kDataset, kDeadline, kQuery, kK1);
constexpr auto kSeasonal = Join(kDataset, kLength,
                                {{"series", kInt, "0", 0},
                                 {"minocc", kInt, "2", 2},
                                 {"top", kInt, "5", 0}});
constexpr auto kThreshold = Join(
    kDataset, kLengthRange, {{"pairs", kInt, "2000", 1, kMaxThresholdPairs}});
constexpr auto kAnomaly = Join(kDataset, kDeadline, kLength,
                               {{"top", kInt, "10", 1, kMaxAnalyticsTop},
                                {"minpts", kInt, "2", 1, kMaxAnalyticsTop},
                                {"eps", kReal, "0", 0}});
constexpr auto kChangepoint = Join(
    kDataset, kDeadline, kSeries,
    {{"hazard", kReal, "0.01"}, {"threshold", kReal, "0.5"},
     {"maxrun", kInt, "256", 2, kMaxChangepointRun}, {"last", kInt, "0", 0},
     {"probs", kFlag, "0"}});
constexpr auto kMotif = Join(kDataset, kDeadline, kLength,
                             {{"top", kInt, "5", 0, kMaxAnalyticsTop},
                              {"discords", kInt, "3", 0, kMaxAnalyticsTop}});
constexpr auto kForecast = Join(
    kDataset, kDeadline, kSeries, kLength, kK3,
    {{"horizon", kInt, "8", 1, kMaxForecastHorizon},
     {"method", kChoice, "group", 0, 0, "group|seasonal"},
     {"period", kInt, "0", 0}});
constexpr auto kReplApply = Join(
    kDataset, {{"first", kInt, "", 1}, {"count", kInt, "", 1}, {"crc"}});

/// The verb table. A verb in it is dispatched, pipelined, routed, counted
/// and option-checked by its row; a verb missing from it is none of those.
constexpr VerbSpec kVerbTable[] = {
    {"PING", DoPing, EC::kInline, CR::kLocal, nullptr, {}},
    {"LIST", DoList, EC::kReadOnly, CR::kScatter, nullptr, {}},
    {"DATASETS", DoDatasets, EC::kReadOnly, CR::kScatter, nullptr, {}},
    {"USE", DoUse, EC::kMutator, CR::kSelect, ExplicitNameArg, kName},
    {"BUDGET", DoBudget, EC::kMutator, CR::kBlocked, nullptr, kBudget},
    {"TIER", DoTier, EC::kMutator, CR::kBlocked, DatasetArg, kTier},
    {"GEN", DoGen, EC::kMutator, CR::kOwner, NewNameArg, kGen},
    {"LOAD", DoLoad, EC::kMutator, CR::kOwner, NewNameArg, kLoad},
    {"DROP", DoDrop, EC::kMutator, CR::kBlocked, ExplicitNameArg, kName},
    {"PREPARE", DoPrepare, EC::kMutator, CR::kOwner, DatasetArg, kPrepare},
    {"APPEND", DoAppend, EC::kMutator, CR::kOwner, DatasetArg, kAppend},
    {"EXTEND", DoExtend, EC::kMutator, CR::kOwner, DatasetArg, kExtend},
    {"DRIFT", DoDrift, EC::kReadOnly, CR::kOwner, DatasetArg, kDrift},
    {"SAVEBASE", DoSavePrepared, EC::kMutator, CR::kBlocked, nullptr, {}},
    {"LOADBASE", DoLoadPrepared, EC::kMutator, CR::kBlocked, nullptr, {}},
    {"PERSIST", DoPersist, EC::kMutator, CR::kBlocked, nullptr, kPersist},
    {"CHECKPOINT", DoCheckpoint, EC::kMutator, CR::kBlocked, DatasetArg,
     kDataset},
    {"STATS", DoStats, EC::kReadOnly, CR::kOwner, DatasetArg, kDataset},
    {"CATALOG", DoCatalog, EC::kReadOnly, CR::kOwner, DatasetArg, kCatalog},
    {"OVERVIEW", DoOverview, EC::kReadOnly, CR::kOwner, DatasetArg, kOverview},
    {"MATCH", DoQuery, EC::kReadOnly, CR::kOwner, DatasetArg, kMatch},
    {"KNN", DoQuery, EC::kReadOnly, CR::kOwner, DatasetArg, kKnn},
    {"BATCH", DoQuery, EC::kReadOnly, CR::kOwner, DatasetArg, kBatch},
    {"SEASONAL", DoSeasonal, EC::kReadOnly, CR::kOwner, DatasetArg, kSeasonal},
    {"THRESHOLD", DoThreshold, EC::kReadOnly, CR::kOwner, DatasetArg,
     kThreshold},
    {"ANOMALY", DoAnomaly, EC::kReadOnly, CR::kOwner, DatasetArg, kAnomaly},
    {"CHANGEPOINT", DoChangepoint, EC::kReadOnly, CR::kOwner, DatasetArg,
     kChangepoint},
    {"MOTIF", DoMotif, EC::kReadOnly, CR::kOwner, DatasetArg, kMotif},
    {"FORECAST", DoForecast, EC::kReadOnly, CR::kOwner, DatasetArg, kForecast},
    {"QUIT", DoQuit, EC::kInline, CR::kLocal, nullptr, {}},
    // Inline for liveness, not latency: a forwarded mutator parks its pool
    // thread until this node acks the shipped batch, so WAL application
    // runs on the reactor thread, the one thread that is always live.
    {"REPLHELLO", DoReplHello, EC::kInline, CR::kLocal, nullptr, kDataset},
    {"REPLAPPLY", DoReplApply, EC::kInline, CR::kLocal, nullptr, kReplApply},
    {"REPLSTATUS", DoReplStatus, EC::kInline, CR::kLocal, nullptr, {}},
    {"CLUSTER", DoCluster, EC::kReadOnly, CR::kStatus, nullptr, {}},
    {"BIN", nullptr, EC::kInline, CR::kLocal, nullptr, {}},
    {"METRICS", nullptr, EC::kInline, CR::kLocal, nullptr, {}},
};
static_assert(std::size(kVerbTable) == kNumVerbs,
              "kNumVerbs (protocol.h) must match the verb table");

/// What a refused value should have been, for the refusal's message.
std::string Expected(const OptionSpec& o) {
  if (o.kind == kFlag) return "0 or 1";
  if (o.kind == kChoice) return "one of " + std::string(o.choices);
  return StrFormat("%s in [%.15g, %.15g]",
                   o.kind == kInt ? "an integer" : "a finite number",
                   o.min, o.max);
}

}  // namespace

Result<Command> ParseCommandLine(const std::string& line) {
  const std::vector<std::string> tokens = SplitString(TrimString(line));
  if (tokens.empty()) {
    return Status::ParseError("empty command line");
  }
  Command cmd;
  cmd.verb = tokens[0];
  std::transform(cmd.verb.begin(), cmd.verb.end(), cmd.verb.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      cmd.args.push_back(tokens[i]);
    } else {
      cmd.options[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
    }
  }
  return cmd;
}

json::Value ErrorResponse(const Status& status) {
  json::Value v = json::Value::MakeObject();
  v.Set("ok", false);
  v.Set("error", status.message());
  v.Set("code", StatusCodeToString(status.code()));
  return v;
}

std::span<const VerbSpec> Verbs() { return kVerbTable; }

const VerbSpec* FindVerb(std::string_view verb) {
  for (const VerbSpec& spec : kVerbTable) {
    if (spec.name == verb) return &spec;
  }
  return nullptr;
}

std::size_t VerbSlot(const VerbSpec* spec) {
  return spec == nullptr ? kNumVerbs
                         : static_cast<std::size_t>(spec - kVerbTable);
}

Result<CheckedOptions> CheckedOptions::Check(const VerbSpec& spec,
                                             const Command& cmd) {
  CheckedOptions out;
  const auto refuse = [&](std::string_view name, std::string_view text,
                          const std::string& why) {
    std::string accepted;
    for (const OptionSpec& o : spec.options) {
      accepted += (accepted.empty() ? " " : ", ") + std::string(o.name);
    }
    return Status::InvalidArgument(
        cmd.verb + " " + std::string(name) + "=" + std::string(text) + ": " +
        why + "; " + cmd.verb + " accepts" +
        (accepted.empty() ? " no options" : accepted));
  };
  const auto read = [&](const OptionSpec& o, std::string_view text,
                        bool sent) {
    Value v{o.name, text, 0, 0, sent};
    bool ok = o.kind != kChoice;
    for (std::string_view rest = o.choices; !ok && !rest.empty();) {
      const std::string_view choice = rest.substr(0, rest.find('|'));
      rest.remove_prefix(std::min(rest.size(), choice.size() + 1));
      ok = ToLower(choice) == ToLower(text);
      if (ok) v.text = choice;
    }
    if (o.kind == kReal) {
      const Result<double> d = ParseDouble(text);
      v.d = d.ok() ? *d : 0;
      ok = d.ok() && std::isfinite(v.d) && v.d >= o.min && v.d <= o.max;
    } else if (o.kind == kInt || o.kind == kFlag) {
      const Result<long long> i = ParseInt(text);
      v.i = i.ok() ? *i : 0;
      v.d = static_cast<double>(v.i);
      ok = i.ok() && v.d >= o.min && v.d <= o.max &&
           (o.kind != kFlag || v.i == 0 || v.i == 1);
    }
    if (!ok) return refuse(o.name, text, "must be " + Expected(o));
    out.values_.push_back(v);
    return Status::OK();
  };
  for (const auto& [name, text] : cmd.options) {
    if (name == "fwd") continue;
    const auto o = std::find_if(
        spec.options.begin(), spec.options.end(),
        [&name = name](const OptionSpec& d) { return d.name == name; });
    if (o == spec.options.end()) return refuse(name, text, "unknown option");
    ONEX_RETURN_IF_ERROR(read(*o, text, true));
  }
  for (const OptionSpec& o : spec.options) {
    if (!o.def.empty() && !out.Find(o.name).sent) {
      ONEX_RETURN_IF_ERROR(read(o, o.def, false));
    }
  }
  return out;
}

const CheckedOptions::Value& CheckedOptions::Find(std::string_view key) const {
  static const Value kAbsent;
  for (const Value& v : values_) {
    if (v.name == key) return v;
  }
  return kAbsent;
}

json::Value ExecuteCommand(Engine* engine, Session* session,
                           const Command& command, const ExecContext& context) {
  ExecContext ctx = context;
  if (ctx.verb == nullptr) ctx.verb = FindVerb(command.verb);
  if (ctx.verb == nullptr || ctx.verb->handler == nullptr) {
    return ErrorResponse(Status::InvalidArgument("unknown command: '" +
                                                 command.verb + "'"));
  }
  Result<CheckedOptions> opt = CheckedOptions::Check(*ctx.verb, command);
  if (!opt.ok()) return ErrorResponse(opt.status());
  ctx.opt = std::move(opt).value();
  if (ctx.cluster != nullptr) {
    // Cluster mode: the coordinator routes the command — forwarding it to
    // the owning shard or re-entering this executor with cluster cleared.
    return ctx.cluster->Execute(engine, session, command, ctx);
  }
  Result<json::Value> result = ctx.verb->handler(engine, session, command, ctx);
  if (!result.ok()) return ErrorResponse(result.status());
  return std::move(result).value();
}

json::Value ExecuteCommand(Engine* engine, const Command& command) {
  Session session;
  return ExecuteCommand(engine, &session, command);
}

std::string FormatResponse(const json::Value& response) {
  std::string line = response.Dump();
  line.push_back('\n');
  return line;
}

}  // namespace onex::net
