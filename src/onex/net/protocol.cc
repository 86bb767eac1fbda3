#include "onex/net/protocol.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
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

/// Typed option lookups with defaults.
Result<long long> OptInt(const Command& cmd, const std::string& key,
                         long long fallback) {
  const auto it = cmd.options.find(key);
  if (it == cmd.options.end()) return fallback;
  return ParseInt(it->second);
}

/// Wire numerics must be finite: strtod happily admits "nan"/"inf"
/// spellings, and a NaN that slips into a threshold or a data point
/// poisons every later distance comparison *silently* (NaN compares false
/// against everything, so cascades neither prune nor match). Reject at
/// parse time, uniformly, for every numeric option and value path.
Result<double> FiniteWireDouble(const std::string& token) {
  ONEX_ASSIGN_OR_RETURN(double v, ParseDouble(token));
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("numeric values must be finite, got '" +
                                   token + "'");
  }
  return v;
}

Result<double> OptDouble(const Command& cmd, const std::string& key,
                         double fallback) {
  const auto it = cmd.options.find(key);
  if (it == cmd.options.end()) return fallback;
  return FiniteWireDouble(it->second);
}

/// Binary-frame payloads carry raw float64 bits, so NaN/Inf ride past the
/// ASCII parser entirely; both dialects enforce the same contract.
Status CheckPayloadFinite(const std::vector<double>& payload) {
  for (const double v : payload) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "binary value payload contains a non-finite number");
    }
  }
  return Status::OK();
}

std::string OptString(const Command& cmd, const std::string& key,
                      const std::string& fallback) {
  const auto it = cmd.options.find(key);
  return it == cmd.options.end() ? fallback : it->second;
}

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
  const std::string name = OptString(cmd, "name", "");
  if (name.empty()) {
    return Status::InvalidArgument(cmd.verb + " needs a dataset name");
  }
  return name;
}

json::Value Ok() {
  json::Value v = json::Value::MakeObject();
  v.Set("ok", true);
  return v;
}

/// Parses "series:start:len" into a QuerySpec.
Result<QuerySpec> ParseQueryRef(const std::string& text) {
  const std::vector<std::string> parts = SplitKeepEmpty(text, ':');
  if (parts.size() != 3) {
    return Status::ParseError("query must be <series>:<start>:<len>, got '" +
                              text + "'");
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
                          const ExecContext&) {
  ONEX_RETURN_IF_ERROR(NeedArgs(cmd, 2));
  const std::string& name = cmd.args[0];
  const std::string kind = ToLower(cmd.args[1]);
  ONEX_ASSIGN_OR_RETURN(long long num, OptInt(cmd, "num", 50));
  ONEX_ASSIGN_OR_RETURN(long long len, OptInt(cmd, "len", 100));
  ONEX_ASSIGN_OR_RETURN(long long seed, OptInt(cmd, "seed", 42));
  if (num <= 0 || len < 2) {
    return Status::InvalidArgument("num must be > 0 and len >= 2");
  }
  if (num > kMaxGenPoints || len > kMaxGenPoints ||
      num * len > kMaxGenPoints) {
    return Status::InvalidArgument(StrFormat(
        "GEN would synthesize %lld x %lld points; the cap is %lld", num, len,
        kMaxGenPoints));
  }

  Dataset ds;
  if (kind == "walk") {
    gen::RandomWalkOptions opt;
    opt.num_series = static_cast<std::size_t>(num);
    opt.length = static_cast<std::size_t>(len);
    opt.seed = static_cast<std::uint64_t>(seed);
    ds = gen::MakeRandomWalks(opt);
  } else if (kind == "sine") {
    gen::SineFamilyOptions opt;
    opt.num_series = static_cast<std::size_t>(num);
    opt.length = static_cast<std::size_t>(len);
    opt.seed = static_cast<std::uint64_t>(seed);
    ds = gen::MakeSineFamilies(opt);
  } else if (kind == "shapes") {
    gen::WarpedShapeOptions opt;
    opt.num_series = static_cast<std::size_t>(num);
    opt.length = static_cast<std::size_t>(len);
    opt.seed = static_cast<std::uint64_t>(seed);
    ds = gen::MakeWarpedShapes(opt);
  } else if (kind == "electricity") {
    gen::ElectricityOptions opt;
    opt.num_households = static_cast<std::size_t>(num);
    opt.length = static_cast<std::size_t>(len);
    opt.seed = static_cast<std::uint64_t>(seed);
    ds = gen::MakeElectricityLoad(opt);
  } else if (kind == "economic") {
    gen::EconomicPanelOptions opt;
    opt.years = static_cast<std::size_t>(len);
    opt.seed = static_cast<std::uint64_t>(seed);
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
                              const Command& cmd, const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  BaseBuildOptions opt;
  ONEX_ASSIGN_OR_RETURN(opt.st, OptDouble(cmd, "st", opt.st));
  ONEX_ASSIGN_OR_RETURN(long long minlen, OptInt(cmd, "minlen", 4));
  ONEX_ASSIGN_OR_RETURN(long long maxlen, OptInt(cmd, "maxlen", 0));
  ONEX_ASSIGN_OR_RETURN(long long lenstep, OptInt(cmd, "lenstep", 1));
  ONEX_ASSIGN_OR_RETURN(long long stride, OptInt(cmd, "stride", 1));
  ONEX_ASSIGN_OR_RETURN(long long threads, OptInt(cmd, "threads", 1));
  if (minlen < 2 || maxlen < 0 || lenstep < 1 || stride < 1 || threads < 0) {
    return Status::InvalidArgument("invalid scoping options");
  }
  opt.min_length = static_cast<std::size_t>(minlen);
  opt.max_length = static_cast<std::size_t>(maxlen);
  opt.length_step = static_cast<std::size_t>(lenstep);
  opt.stride = static_cast<std::size_t>(stride);
  opt.threads = static_cast<std::size_t>(threads);

  const std::string policy = OptString(cmd, "policy", "running-mean");
  if (policy == "fixed-leader") {
    opt.centroid_policy = CentroidPolicy::kFixedLeader;
  } else if (policy == "running-mean") {
    opt.centroid_policy = CentroidPolicy::kRunningMean;
  } else if (policy == "running-mean-repair") {
    opt.centroid_policy = CentroidPolicy::kRunningMeanRepair;
  } else {
    return Status::InvalidArgument("unknown centroid policy: '" + policy + "'");
  }

  ONEX_ASSIGN_OR_RETURN(
      NormalizationKind norm,
      NormalizationKindFromString(OptString(cmd, "norm", "minmax-dataset")));
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
  if (const Result<std::string> tier = engine->registry().Tier(name);
      tier.ok()) {
    v.Set("tier", *tier);
  }
  v.Set("mapped_bytes", engine->registry().mapped_bytes());
  if (const Result<MaintenanceStatus> m = engine->registry().Maintenance(name);
      m.ok()) {
    v.Set("last_max_drift", m->last_max_drift);
    v.Set("regrouping", m->regroup_in_flight);
  }
  if (const Result<SlotDurability> d = engine->registry().Durability(name);
      d.ok() && d->durable) {
    v.Set("durable", true);
    v.Set("wal_seq", d->last_seq);
    v.Set("wal_dirty", d->records_since_checkpoint);
    v.Set("checkpoints", d->checkpoints_completed);
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

Result<json::Value> DoPersist(Engine* engine, Session*, const Command& cmd,
                              const ExecContext&) {
  const auto dit = cmd.options.find("dir");
  if (dit != cmd.options.end()) {
    DurabilityOptions opt;
    opt.dir = dit->second;
    ONEX_ASSIGN_OR_RETURN(long long every, OptInt(cmd, "every", 0));
    if (every < 0 || every > kMaxCheckpointEvery) {
      return Status::InvalidArgument(StrFormat(
          "every must be in [0, %lld]", kMaxCheckpointEvery));
    }
    opt.checkpoint_every = static_cast<std::uint64_t>(every);
    ONEX_ASSIGN_OR_RETURN(long long fsync, OptInt(cmd, "fsync", 1));
    opt.fsync = fsync != 0;
    ONEX_RETURN_IF_ERROR(engine->EnableDurability(opt));
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

/// Shared query-option parsing for MATCH/KNN/BATCH.
Result<QueryOptions> ParseQueryOptions(const Command& cmd) {
  QueryOptions qopt;
  ONEX_ASSIGN_OR_RETURN(long long window, OptInt(cmd, "window", -1));
  ONEX_ASSIGN_OR_RETURN(long long topg, OptInt(cmd, "topgroups", 1));
  ONEX_ASSIGN_OR_RETURN(long long exhaustive, OptInt(cmd, "exhaustive", 0));
  // Any negative window means unconstrained; a width past int would wrap.
  if (window > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(
        StrFormat("window must be <= %d", std::numeric_limits<int>::max()));
  }
  qopt.window = window < 0 ? kNoWindow : static_cast<int>(window);
  qopt.explore_top_groups = topg < 1 ? 1 : static_cast<std::size_t>(topg);
  qopt.exhaustive = exhaustive != 0;
  return qopt;
}

/// Builds the query's cancellation token from deadline_ms= and the serving
/// layer's disconnect flag. The token lives on the Do* stack, so it must be
/// constructed there and only *pointed to* from QueryOptions.
Result<Cancellation> ParseCancellation(const Command& cmd,
                                       const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(long long deadline_ms, OptInt(cmd, "deadline_ms", 0));
  if (deadline_ms < 0) {
    return Status::InvalidArgument("deadline_ms must be >= 0");
  }
  if (deadline_ms == 0) return Cancellation(ctx.disconnected);
  return Cancellation(ctx.arrival + std::chrono::milliseconds(deadline_ms),
                      ctx.disconnected);
}

/// Side-band export for binary responses: the matched subsequence's
/// normalized values, appended in match order. Never touches the JSON, so
/// text and binary bodies stay byte-identical.
void ExportMatchValues(const MatchResult& r, const ExecContext& ctx) {
  if (ctx.out_values == nullptr) return;
  ctx.out_values->insert(ctx.out_values->end(), r.match_values.begin(),
                         r.match_values.end());
}

/// MATCH/KNN/BATCH with datasets=<a,b,c>: the one-node case of the
/// coordinator's fan-out (cluster_merge.h). Each dataset runs the shard
/// command in a scratch session, as a shard runs a forwarded one, and the
/// answers go to the same merge. q= resolves within each dataset.
Result<json::Value> DoFanOut(Engine* engine, const Command& cmd,
                             const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(FanOut plan, PlanFanOut(cmd));
  std::vector<WireResponse> answers;
  for (const std::string& name : plan.names) {
    Command shard = plan.shard;
    shard.options["dataset"] = name;
    WireResponse& answer = answers.emplace_back();
    ExecContext local = ctx;
    local.cluster = nullptr;
    local.verb = nullptr;
    local.out_values = &answer.values;
    Session scratch;
    answer.body = ExecuteCommand(engine, &scratch, shard, local);
    if (!answer.body["ok"].as_bool()) break;
  }
  return MergeFanOut(cmd, plan.names, answers, ctx.out_values);
}

/// MATCH (knn=false) and KNN (knn=true).
template <bool knn>
Result<json::Value> DoMatch(Engine* engine, Session* session,
                            const Command& cmd, const ExecContext& ctx) {
  if (cmd.options.count("datasets") != 0) return DoFanOut(engine, cmd, ctx);
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  const auto qit = cmd.options.find("q");
  if (qit == cmd.options.end()) {
    return Status::InvalidArgument("missing q=<series>:<start>:<len>");
  }
  ONEX_ASSIGN_OR_RETURN(QuerySpec spec, ParseQueryRef(qit->second));
  ONEX_ASSIGN_OR_RETURN(QueryOptions qopt, ParseQueryOptions(cmd));
  ONEX_ASSIGN_OR_RETURN(Cancellation cancel, ParseCancellation(cmd, ctx));
  qopt.cancel = &cancel;

  json::Value v = Ok();
  if (knn) {
    ONEX_ASSIGN_OR_RETURN(long long k, OptInt(cmd, "k", 3));
    if (k < 1 || k > kMaxKnnK) {
      return Status::InvalidArgument(
          StrFormat("k must be in [1, %lld]", kMaxKnnK));
    }
    ONEX_ASSIGN_OR_RETURN(
        std::vector<MatchResult> results,
        engine->Knn(name, spec, static_cast<std::size_t>(k), qopt));
    json::Value arr = json::Value::MakeArray();
    for (const MatchResult& r : results) {
      arr.Append(MatchToJson(r));
      ExportMatchValues(r, ctx);
    }
    v.Set("matches", std::move(arr));
    // One KnnQuery produced all k matches, so the stats are shared.
    if (!results.empty()) v.Set("stats", StatsToJson(results.front().stats));
  } else {
    ONEX_ASSIGN_OR_RETURN(MatchResult r,
                          engine->SimilaritySearch(name, spec, qopt));
    v.Set("match", MatchToJson(r));
    v.Set("stats", StatsToJson(r.stats));
    ExportMatchValues(r, ctx);
  }
  return v;
}

Result<json::Value> DoBatch(Engine* engine, Session* session,
                            const Command& cmd, const ExecContext& ctx) {
  if (cmd.options.count("datasets") != 0) return DoFanOut(engine, cmd, ctx);
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  const auto qit = cmd.options.find("q");
  if (qit == cmd.options.end()) {
    return Status::InvalidArgument(
        "missing q=<series>:<start>:<len>[;<series>:<start>:<len>...]");
  }
  std::vector<QuerySpec> specs;
  for (const std::string& ref : SplitKeepEmpty(qit->second, ';')) {
    if (specs.size() >= kMaxBatchSpecs) {
      return Status::InvalidArgument(StrFormat(
          "BATCH accepts at most %zu queries per frame", kMaxBatchSpecs));
    }
    ONEX_ASSIGN_OR_RETURN(QuerySpec spec, ParseQueryRef(ref));
    specs.push_back(std::move(spec));
  }
  ONEX_ASSIGN_OR_RETURN(QueryOptions qopt, ParseQueryOptions(cmd));
  ONEX_ASSIGN_OR_RETURN(Cancellation cancel, ParseCancellation(cmd, ctx));
  qopt.cancel = &cancel;
  ONEX_ASSIGN_OR_RETURN(long long k, OptInt(cmd, "k", 1));
  if (k < 1 || k > kMaxKnnK) {
    return Status::InvalidArgument(
        StrFormat("k must be in [1, %lld]", kMaxKnnK));
  }
  // The response carries specs x k matches; bound the product so one frame
  // cannot command an unbounded result materialization.
  if (static_cast<long long>(specs.size()) * k > kMaxKnnK) {
    return Status::InvalidArgument(StrFormat(
        "BATCH result volume (queries x k) is capped at %lld", kMaxKnnK));
  }

  ONEX_ASSIGN_OR_RETURN(
      std::vector<std::vector<MatchResult>> per_query,
      engine->KnnBatch(name, specs, static_cast<std::size_t>(k), qopt));
  json::Value v = Ok();
  json::Value results = json::Value::MakeArray();
  for (const std::vector<MatchResult>& matches : per_query) {
    json::Value entry = json::Value::MakeObject();
    json::Value arr = json::Value::MakeArray();
    for (const MatchResult& r : matches) {
      arr.Append(MatchToJson(r));
      ExportMatchValues(r, ctx);
    }
    entry.Set("matches", std::move(arr));
    if (!matches.empty()) {
      entry.Set("stats", StatsToJson(matches.front().stats));
    }
    results.Append(std::move(entry));
  }
  v.Set("results", std::move(results));
  return v;
}

Result<json::Value> DoSeasonal(Engine* engine, Session* session,
                               const Command& cmd, const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  ONEX_ASSIGN_OR_RETURN(long long series, OptInt(cmd, "series", 0));
  ONEX_ASSIGN_OR_RETURN(long long length, OptInt(cmd, "length", 0));
  ONEX_ASSIGN_OR_RETURN(long long minocc, OptInt(cmd, "minocc", 2));
  ONEX_ASSIGN_OR_RETURN(long long top, OptInt(cmd, "top", 5));
  if (series < 0 || length < 0 || minocc < 2 || top < 0) {
    return Status::InvalidArgument("invalid seasonal options");
  }
  SeasonalOptions opt;
  opt.length = static_cast<std::size_t>(length);
  opt.min_occurrences = static_cast<std::size_t>(minocc);
  opt.top_k = static_cast<std::size_t>(top);
  ONEX_ASSIGN_OR_RETURN(
      std::vector<SeasonalPattern> patterns,
      engine->Seasonal(name, static_cast<std::size_t>(series), opt));
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
                               const Command& cmd, const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  ONEX_ASSIGN_OR_RETURN(long long length, OptInt(cmd, "length", 0));
  ONEX_ASSIGN_OR_RETURN(long long top, OptInt(cmd, "top", 12));
  if (length < 0 || top < 0) {
    return Status::InvalidArgument("invalid overview options");
  }
  OverviewOptions opt;
  opt.length = static_cast<std::size_t>(length);
  opt.top_n = static_cast<std::size_t>(top);
  ONEX_ASSIGN_OR_RETURN(std::vector<OverviewEntry> entries,
                        engine->Overview(name, opt));
  json::Value v = Ok();
  v.Set("overview", viz::BuildOverviewPane(entries).ToJson());
  return v;
}

Result<json::Value> DoThreshold(Engine* engine, Session* session,
                                const Command& cmd, const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  ThresholdAdvisorOptions opt;
  ONEX_ASSIGN_OR_RETURN(long long pairs, OptInt(cmd, "pairs", 2000));
  ONEX_ASSIGN_OR_RETURN(long long minlen, OptInt(cmd, "minlen", 4));
  ONEX_ASSIGN_OR_RETURN(long long maxlen, OptInt(cmd, "maxlen", 0));
  if (pairs < 1 || pairs > kMaxThresholdPairs || minlen < 2 || maxlen < 0) {
    return Status::InvalidArgument("invalid threshold options");
  }
  opt.sample_pairs = static_cast<std::size_t>(pairs);
  opt.min_length = static_cast<std::size_t>(minlen);
  opt.max_length = static_cast<std::size_t>(maxlen);
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

Result<json::Value> DoAppend(Engine* engine, Session* session,
                             const Command& cmd, const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  std::vector<double> values;
  const auto vit = cmd.options.find("v");
  if (vit != cmd.options.end()) {
    for (const std::string& token : SplitKeepEmpty(vit->second, ',')) {
      ONEX_ASSIGN_OR_RETURN(double v, FiniteWireDouble(token));
      values.push_back(v);
    }
  } else if (!cmd.payload.empty()) {
    // Binary frame: the values rode as raw float64s (already capped by the
    // frame decoder), no ASCII parse at all — but the finite-number
    // contract is the same in both dialects.
    ONEX_RETURN_IF_ERROR(CheckPayloadFinite(cmd.payload));
    values = cmd.payload;
  } else {
    return Status::InvalidArgument(
        "missing v=<comma-separated values> (or a binary value payload)");
  }
  const std::string sname = OptString(cmd, "series", "appended");
  ONEX_RETURN_IF_ERROR(
      engine->AppendSeries(name, TimeSeries(sname, std::move(values))));
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
                                        const Command& cmd) {
  const auto sit = cmd.options.find("series");
  if (sit == cmd.options.end()) {
    return Status::InvalidArgument("missing series=<index or name>");
  }
  const Result<long long> idx = ParseInt(sit->second);
  if (idx.ok()) {
    if (*idx < 0) {
      return Status::InvalidArgument("series index must be >= 0");
    }
    return static_cast<std::size_t>(*idx);
  }
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        engine->Get(name));
  return ds->raw->FindByName(sit->second);
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
  ONEX_ASSIGN_OR_RETURN(long long length, OptInt(cmd, "length", 0));
  ONEX_ASSIGN_OR_RETURN(long long top, OptInt(cmd, "top", 10));
  ONEX_ASSIGN_OR_RETURN(long long minpts, OptInt(cmd, "minpts", 2));
  ONEX_ASSIGN_OR_RETURN(double eps, OptDouble(cmd, "eps", 0.0));
  if (length < 0 || top < 1 || top > kMaxAnalyticsTop || minpts < 1 ||
      minpts > kMaxAnalyticsTop || eps < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "ANOMALY needs length>=0, top/minpts in [1, %lld] and eps>=0",
        kMaxAnalyticsTop));
  }
  ONEX_ASSIGN_OR_RETURN(Cancellation cancel, ParseCancellation(cmd, ctx));
  AnomalyOptions opt;
  opt.length = static_cast<std::size_t>(length);
  opt.top_k = static_cast<std::size_t>(top);
  opt.min_pts = static_cast<std::size_t>(minpts);
  opt.eps = eps;
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
                        ResolveSeriesOption(engine, name, cmd));
  ONEX_ASSIGN_OR_RETURN(double hazard, OptDouble(cmd, "hazard", 0.01));
  ONEX_ASSIGN_OR_RETURN(double threshold, OptDouble(cmd, "threshold", 0.5));
  ONEX_ASSIGN_OR_RETURN(long long maxrun, OptInt(cmd, "maxrun", 256));
  ONEX_ASSIGN_OR_RETURN(long long last, OptInt(cmd, "last", 0));
  ONEX_ASSIGN_OR_RETURN(long long probs, OptInt(cmd, "probs", 0));
  if (maxrun < 2 || maxrun > kMaxChangepointRun || last < 0) {
    return Status::InvalidArgument(StrFormat(
        "CHANGEPOINT needs maxrun in [2, %lld] and last>=0",
        kMaxChangepointRun));
  }
  ONEX_ASSIGN_OR_RETURN(Cancellation cancel, ParseCancellation(cmd, ctx));
  ChangepointOptions opt;
  opt.hazard = hazard;
  opt.threshold = threshold;
  opt.max_run = static_cast<std::size_t>(maxrun);
  opt.last = static_cast<std::size_t>(last);
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
  if (probs != 0) {
    v.Set("probabilities",
          json::Value::NumberArray(report.change_probability));
  }
  return v;
}

Result<json::Value> DoMotif(Engine* engine, Session* session,
                            const Command& cmd, const ExecContext& ctx) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  ONEX_ASSIGN_OR_RETURN(long long length, OptInt(cmd, "length", 0));
  ONEX_ASSIGN_OR_RETURN(long long top, OptInt(cmd, "top", 5));
  ONEX_ASSIGN_OR_RETURN(long long discords, OptInt(cmd, "discords", 3));
  if (length < 0 || top < 0 || top > kMaxAnalyticsTop || discords < 0 ||
      discords > kMaxAnalyticsTop) {
    return Status::InvalidArgument(StrFormat(
        "MOTIF needs length>=0 and top/discords in [0, %lld]",
        kMaxAnalyticsTop));
  }
  ONEX_ASSIGN_OR_RETURN(Cancellation cancel, ParseCancellation(cmd, ctx));
  MotifOptions opt;
  opt.length = static_cast<std::size_t>(length);
  opt.top_k = static_cast<std::size_t>(top);
  opt.discords = static_cast<std::size_t>(discords);
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
                        ResolveSeriesOption(engine, name, cmd));
  ONEX_ASSIGN_OR_RETURN(long long horizon, OptInt(cmd, "horizon", 8));
  ONEX_ASSIGN_OR_RETURN(long long length, OptInt(cmd, "length", 0));
  ONEX_ASSIGN_OR_RETURN(long long k, OptInt(cmd, "k", 3));
  ONEX_ASSIGN_OR_RETURN(long long period, OptInt(cmd, "period", 0));
  const std::string method = ToLower(OptString(cmd, "method", "group"));
  if (horizon < 1 || horizon > kMaxForecastHorizon || length < 0 ||
      k < 1 || k > kMaxKnnK || period < 0) {
    return Status::InvalidArgument(StrFormat(
        "FORECAST needs horizon in [1, %lld], k in [1, %lld], "
        "length>=0 and period>=0",
        kMaxForecastHorizon, kMaxKnnK));
  }
  ONEX_ASSIGN_OR_RETURN(Cancellation cancel, ParseCancellation(cmd, ctx));
  ForecastOptions opt;
  opt.horizon = static_cast<std::size_t>(horizon);
  opt.length = static_cast<std::size_t>(length);
  opt.k = static_cast<std::size_t>(k);
  opt.period = static_cast<std::size_t>(period);
  opt.cancel = &cancel;
  if (method == "group") {
    opt.method = ForecastMethod::kGroupNn;
  } else if (method == "seasonal") {
    opt.method = ForecastMethod::kSeasonalNaive;
  } else {
    return Status::InvalidArgument("method must be group or seasonal");
  }
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
  // values; the JSON body stays byte-identical across dialects.
  if (ctx.out_values != nullptr) {
    ctx.out_values->insert(ctx.out_values->end(), result.raw_values.begin(),
                           result.raw_values.end());
  }
  return v;
}

Result<json::Value> DoExtend(Engine* engine, Session* session,
                             const Command& cmd, const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  std::vector<double> points;
  const auto pit = cmd.options.find("points");
  if (pit != cmd.options.end()) {
    for (const std::string& token : SplitKeepEmpty(pit->second, ',')) {
      if (points.size() >= kMaxExtendPoints) {
        return Status::InvalidArgument(StrFormat(
            "EXTEND accepts at most %zu points per frame", kMaxExtendPoints));
      }
      ONEX_ASSIGN_OR_RETURN(double v, FiniteWireDouble(token));
      points.push_back(v);
    }
  } else if (!cmd.payload.empty()) {
    // Binary payloads honor the same caps as the text form: the transport
    // changed, neither the streaming-tail contract nor the finite-number
    // contract did.
    if (cmd.payload.size() > kMaxExtendPoints) {
      return Status::InvalidArgument(StrFormat(
          "EXTEND accepts at most %zu points per frame", kMaxExtendPoints));
    }
    ONEX_RETURN_IF_ERROR(CheckPayloadFinite(cmd.payload));
    points = cmd.payload;
  } else {
    return Status::InvalidArgument(
        "missing points=<comma-separated values> (or a binary value payload)");
  }

  ONEX_ASSIGN_OR_RETURN(std::size_t series,
                        ResolveSeriesOption(engine, name, cmd));
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
                            const Command& cmd, const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  // Validate everything before committing the (registry-wide) threshold, so
  // a failed command leaves no side effect behind.
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> ds,
                        engine->Get(name));
  const auto tit = cmd.options.find("threshold");
  if (tit != cmd.options.end()) {
    ONEX_ASSIGN_OR_RETURN(double threshold, FiniteWireDouble(tit->second));
    if (!(threshold >= 0.0) || threshold > 1.0) {
      return Status::InvalidArgument("threshold must be in [0, 1]");
    }
    engine->registry().SetDriftThreshold(threshold);
  }
  ONEX_ASSIGN_OR_RETURN(MaintenanceStatus status,
                        engine->registry().Maintenance(name));
  json::Value v = Ok();
  v.Set("dataset", name);
  v.Set("threshold", status.drift_threshold);
  v.Set("regrouping", status.regroup_in_flight);
  v.Set("regroups_completed", status.regroups_completed);
  v.Set("last_max_drift", status.last_max_drift);
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

Result<json::Value> DoBudget(Engine* engine, Session*, const Command& cmd,
                             const ExecContext&) {
  const auto it = cmd.options.find("bytes");
  if (it != cmd.options.end()) {
    ONEX_ASSIGN_OR_RETURN(long long bytes, ParseInt(it->second));
    if (bytes < 0) {
      return Status::InvalidArgument("budget bytes must be >= 0");
    }
    if (bytes > 0 && !engine->registry().durable()) {
      return Status::FailedPrecondition(
          "a budget needs durability (PERSIST or onexd --data-dir): evicted "
          "bases serve from their checkpoint");
    }
    engine->registry().SetPreparedBudget(static_cast<std::size_t>(bytes));
  }
  json::Value v = Ok();
  v.Set("budget", engine->registry().prepared_budget());
  v.Set("prepared_bytes", engine->registry().prepared_bytes());
  return v;
}

Result<json::Value> DoTier(Engine* engine, Session* session,
                           const Command& cmd, const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  if (const auto it = cmd.options.find("pin"); it != cmd.options.end()) {
    ONEX_ASSIGN_OR_RETURN(long long pin, ParseInt(it->second));
    if (pin != 0 && pin != 1) {
      return Status::InvalidArgument("pin must be 0 or 1");
    }
    ONEX_RETURN_IF_ERROR(engine->registry().SetPinned(name, pin == 1));
  }
  if (const auto it = cmd.options.find("demote"); it != cmd.options.end()) {
    ONEX_ASSIGN_OR_RETURN(long long demote, ParseInt(it->second));
    if (demote != 0 && demote != 1) {
      return Status::InvalidArgument("demote must be 0 or 1");
    }
    if (demote == 1) {
      ONEX_RETURN_IF_ERROR(engine->registry().Demote(name));
    }
  }
  ONEX_ASSIGN_OR_RETURN(std::string tier, engine->registry().Tier(name));
  json::Value v = Ok();
  v.Set("dataset", name);
  v.Set("tier", tier);
  for (const DatasetSlotInfo& info : engine->registry().Describe()) {
    if (info.name != name) continue;
    v.Set("pinned", info.pinned);
    v.Set("mapped_bytes", info.mapped_bytes);
    break;
  }
  return v;
}

Result<json::Value> DoLoad(Engine* engine, Session* session,
                           const Command& cmd, const ExecContext&) {
  // Positionals win over options, independently per field, so the mixed
  // forms ("LOAD foo path=/x") behave like every other verb's resolution.
  const Result<std::string> name = NewNameArg(cmd, *session);
  const std::string path =
      cmd.args.size() >= 2 ? cmd.args[1] : OptString(cmd, "path", "");
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

Result<std::uint64_t> ParseHex64(const std::string& text) {
  if (text.empty() || text.size() > 16) {
    return Status::InvalidArgument("crc must be 1..16 hex digits");
  }
  std::uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return Status::InvalidArgument("crc must be hexadecimal");
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  return value;
}

Result<std::string> ReplDatasetArg(const Command& cmd) {
  const auto it = cmd.options.find("dataset");
  if (it == cmd.options.end() || it->second.empty()) {
    return Status::InvalidArgument(cmd.verb + " needs dataset=<name>");
  }
  return it->second;
}

Result<json::Value> DoReplHello(Engine* engine, Session*, const Command& cmd,
                                const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, ReplDatasetArg(cmd));
  json::Value v = Ok();
  v.Set("dataset", name);
  Result<SlotDurability> d = engine->registry().Durability(name);
  if (!d.ok()) {
    if (d.status().code() != StatusCode::kNotFound) return d.status();
    // Unknown slot: the replica starts from the log's beginning.
    v.Set("last_seq", 0);
    return v;
  }
  if (!d->durable) {
    return Status::FailedPrecondition(
        "dataset '" + name +
        "' has no journal here; replication needs a durable registry");
  }
  v.Set("last_seq", d->last_seq);
  return v;
}

Result<json::Value> DoReplApply(Engine* engine, Session*, const Command& cmd,
                                const ExecContext&) {
  if (cmd.blob.empty()) {
    return Status::InvalidArgument(
        "REPLAPPLY carries WAL lines after the command line and is only "
        "meaningful over the binary frame");
  }
  ONEX_ASSIGN_OR_RETURN(std::string name, ReplDatasetArg(cmd));
  ONEX_ASSIGN_OR_RETURN(long long first, OptInt(cmd, "first", 0));
  ONEX_ASSIGN_OR_RETURN(long long count, OptInt(cmd, "count", 0));
  if (first < 1 || count < 1) {
    return Status::InvalidArgument("REPLAPPLY needs first=>=1 and count=>=1");
  }
  ONEX_ASSIGN_OR_RETURN(std::uint64_t crc,
                        ParseHex64(OptString(cmd, "crc", "")));
  ONEX_ASSIGN_OR_RETURN(
      std::vector<WalRecord> records,
      DecodeWalBatchBlob(cmd.blob, crc, static_cast<std::uint64_t>(first),
                         static_cast<std::uint64_t>(count)));
  for (const WalRecord& record : records) {
    ONEX_RETURN_IF_ERROR(engine->registry().ApplyReplicated(name, record));
  }
  ONEX_ASSIGN_OR_RETURN(SlotDurability d, engine->registry().Durability(name));
  json::Value v = Ok();
  v.Set("dataset", name);
  v.Set("applied", records.size());
  v.Set("last_seq", d.last_seq);
  return v;
}

Result<json::Value> DoReplStatus(Engine* engine, Session*, const Command&,
                                 const ExecContext&) {
  json::Value v = Ok();
  json::Value floors = json::Value::MakeObject();
  for (const std::string& name : engine->ListDatasets()) {
    Result<SlotDurability> d = engine->registry().Durability(name);
    if (d.ok() && d->durable) floors.Set(name, d->last_seq);
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
                              const Command& cmd, const ExecContext&) {
  ONEX_ASSIGN_OR_RETURN(std::string name, DatasetArg(cmd, *session));
  ONEX_ASSIGN_OR_RETURN(long long points, OptInt(cmd, "points", 24));
  if (points < 1 || points > kMaxCatalogPoints) {
    return Status::InvalidArgument(
        StrFormat("points must be in [1, %lld]", kMaxCatalogPoints));
  }
  ONEX_ASSIGN_OR_RETURN(
      std::vector<Engine::CatalogEntry> entries,
      engine->Catalog(name, static_cast<std::size_t>(points)));
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

/// The verb table. A verb in it is dispatched, pipelined, routed and
/// counted by its row; a verb missing from it is none of those.
constexpr VerbSpec kVerbTable[] = {
    {"PING", DoPing, EC::kInline, CR::kLocal, nullptr},
    {"LIST", DoList, EC::kReadOnly, CR::kScatter, nullptr},
    {"DATASETS", DoDatasets, EC::kReadOnly, CR::kScatter, nullptr},
    {"USE", DoUse, EC::kMutator, CR::kSelect, ExplicitNameArg},
    {"BUDGET", DoBudget, EC::kMutator, CR::kBlocked, nullptr},
    {"TIER", DoTier, EC::kMutator, CR::kBlocked, DatasetArg},
    {"GEN", DoGen, EC::kMutator, CR::kOwner, NewNameArg},
    {"LOAD", DoLoad, EC::kMutator, CR::kOwner, NewNameArg},
    {"DROP", DoDrop, EC::kMutator, CR::kBlocked, ExplicitNameArg},
    {"PREPARE", DoPrepare, EC::kMutator, CR::kOwner, DatasetArg},
    {"APPEND", DoAppend, EC::kMutator, CR::kOwner, DatasetArg},
    {"EXTEND", DoExtend, EC::kMutator, CR::kOwner, DatasetArg},
    {"DRIFT", DoDrift, EC::kReadOnly, CR::kOwner, DatasetArg},
    {"SAVEBASE", DoSavePrepared, EC::kMutator, CR::kBlocked, nullptr},
    {"LOADBASE", DoLoadPrepared, EC::kMutator, CR::kBlocked, nullptr},
    {"PERSIST", DoPersist, EC::kMutator, CR::kBlocked, nullptr},
    {"CHECKPOINT", DoCheckpoint, EC::kMutator, CR::kBlocked, DatasetArg},
    {"STATS", DoStats, EC::kReadOnly, CR::kOwner, DatasetArg},
    {"CATALOG", DoCatalog, EC::kReadOnly, CR::kOwner, DatasetArg},
    {"OVERVIEW", DoOverview, EC::kReadOnly, CR::kOwner, DatasetArg},
    {"MATCH", DoMatch<false>, EC::kReadOnly, CR::kOwner, DatasetArg},
    {"KNN", DoMatch<true>, EC::kReadOnly, CR::kOwner, DatasetArg},
    {"BATCH", DoBatch, EC::kReadOnly, CR::kOwner, DatasetArg},
    {"SEASONAL", DoSeasonal, EC::kReadOnly, CR::kOwner, DatasetArg},
    {"THRESHOLD", DoThreshold, EC::kReadOnly, CR::kOwner, DatasetArg},
    {"ANOMALY", DoAnomaly, EC::kReadOnly, CR::kOwner, DatasetArg},
    {"CHANGEPOINT", DoChangepoint, EC::kReadOnly, CR::kOwner, DatasetArg},
    {"MOTIF", DoMotif, EC::kReadOnly, CR::kOwner, DatasetArg},
    {"FORECAST", DoForecast, EC::kReadOnly, CR::kOwner, DatasetArg},
    {"QUIT", DoQuit, EC::kInline, CR::kLocal, nullptr},
    // Inline for liveness, not latency: a forwarded mutator parks its pool
    // thread until this node acks the shipped batch, so WAL application
    // runs on the reactor thread, the one thread that is always live.
    {"REPLHELLO", DoReplHello, EC::kInline, CR::kLocal, nullptr},
    {"REPLAPPLY", DoReplApply, EC::kInline, CR::kLocal, nullptr},
    {"REPLSTATUS", DoReplStatus, EC::kInline, CR::kLocal, nullptr},
    {"CLUSTER", DoCluster, EC::kReadOnly, CR::kStatus, nullptr},
    {"BIN", nullptr, EC::kInline, CR::kLocal, nullptr},
    {"METRICS", nullptr, EC::kInline, CR::kLocal, nullptr},
};
static_assert(std::size(kVerbTable) == kNumVerbs,
              "kNumVerbs (protocol.h) must match the verb table");

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

json::Value ExecuteCommand(Engine* engine, Session* session,
                           const Command& command, const ExecContext& context) {
  ExecContext ctx = context;
  if (ctx.verb == nullptr) ctx.verb = FindVerb(command.verb);
  if (ctx.cluster != nullptr) {
    // Cluster mode: the coordinator routes the command — forwarding it to
    // the owning shard or re-entering this executor with cluster cleared.
    return ctx.cluster->Execute(engine, session, command, ctx);
  }
  if (ctx.verb == nullptr || ctx.verb->handler == nullptr) {
    return ErrorResponse(Status::InvalidArgument("unknown command: '" +
                                                 command.verb + "'"));
  }
  Result<json::Value> result = ctx.verb->handler(engine, session, command, ctx);
  if (!result.ok()) return ErrorResponse(result.status());
  return std::move(result).value();
}

json::Value ExecuteCommand(Engine* engine, Session* session,
                           const Command& command) {
  return ExecuteCommand(engine, session, command, ExecContext{});
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
