/// The traced run's in-process replay: for a sample of the reads the run
/// served, call each layer's public entry point with the request's own
/// inputs and time it from outside —
///
///   net       ParseCommandLine, EncodeFrame/DecodeFrame, FormatResponse
///   protocol  ExecuteCommand on the oracle Engine (same data as the server)
///   engine    Engine::Get / SimilaritySearch / Knn / KnnBatch / Catalog /
///             Overview
///   core      QueryProcessor::KnnQuery on the snapshot's base (the query
///             path the engine itself takes; MATCH is k=1),
///             Engine::Anomaly / Forecast
///   distance  ActiveKernel().dtw_ea_sq on the (query, answer) pairs
///
/// Each request becomes a span tree net.request -> protocol.execute ->
/// engine.* -> core.* -> distance.dtw. The child calls are replayed one
/// after another with identical inputs rather than observed inside their
/// parent, so every child span is anchored at its parent's start; a layer's
/// self time is then its span minus what its children cover (stats.h).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "bench.h"
#include "onex/core/query_processor.h"
#include "onex/distance/kernels.h"
#include "onex/net/frame.h"
#include "onex/net/protocol.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSampleReads = 200;
constexpr int kMicroReps = 20;  // repetitions for sub-microsecond calls

std::int64_t NsOf(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

double MedianOrZero(std::vector<double> v) {
  return v.empty() ? 0.0 : Median(std::move(v));
}

/// Cascade counters summed over the replayed queries.
struct Cascade {
  double queries = 0, groups_total = 0, groups_pruned = 0;
  double members_pruned = 0, member_dtw = 0;
  double kim = 0, keogh = 0, dtw = 0;

  void Add(const onex::QueryStats& s) {
    queries += 1;
    groups_total += static_cast<double>(s.groups_total);
    groups_pruned += static_cast<double>(s.groups_pruned_lb);
    members_pruned += static_cast<double>(s.members_pruned_lb);
    member_dtw += static_cast<double>(s.member_dtw_evaluations);
    kim += static_cast<double>(s.pruned_kim);
    keogh += static_cast<double>(s.pruned_keogh);
    dtw += static_cast<double>(s.dtw_evals);
  }
};

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

}  // namespace

void ReplayReadLayers(const ReplayInput& in, std::mt19937_64* rng,
                      Metrics* out) {
  std::vector<const LogEntry*> sample = in.reads;
  std::shuffle(sample.begin(), sample.end(), *rng);
  if (sample.size() > kSampleReads) sample.resize(kSampleReads);

  onex::Engine& engine = *in.oracle;
  onex::QueryOptions qopt;  // the executor's defaults for MATCH/KNN/BATCH
  onex::DtwWorkspace ws;
  Trace trace;
  std::vector<double> parse_us, frame_us, format_us, get_us, core_ms,
      analytics_ms, dtw_us, exec_read;
  std::map<std::string, std::vector<double>> exec_by_verb, get_by_tier;
  Cascade all;
  std::map<std::string, Cascade> by_kind;

  for (const LogEntry* e : sample) {
    const Request& req = (*in.requests)[e->request];
    const std::uint64_t id = e->request;

    // net: the wire-format layers, on this request's own bytes.
    auto t = Clock::now();
    for (int r = 0; r < kMicroReps; ++r) {
      (void)onex::net::ParseCommandLine(req.text);
    }
    parse_us.push_back(NsOf(Clock::now() - t) / 1e3 / kMicroReps);
    onex::Result<onex::net::Command> cmd = onex::net::ParseCommandLine(req.text);
    if (!cmd.ok()) continue;

    // protocol: the whole command through the executor.
    t = Clock::now();
    const onex::json::Value response = onex::net::ExecuteCommand(&engine, *cmd);
    const std::int64_t exec_ns = NsOf(Clock::now() - t);
    exec_read.push_back(exec_ns / 1e6);
    exec_by_verb[req.verb].push_back(exec_ns / 1e6);

    t = Clock::now();
    const std::string line = onex::net::FormatResponse(response);
    format_us.push_back(NsOf(Clock::now() - t) / 1e3);

    onex::net::Frame rq, rs;
    rq.request_id = rs.request_id = id;
    rq.text = req.text;
    rs.type = onex::net::FrameType::kResponse;
    rs.text = line.substr(0, line.size() - 1);
    t = Clock::now();
    for (int r = 0; r < kMicroReps; ++r) {
      (void)onex::net::DecodeFrame(onex::net::EncodeFrame(rq));
      (void)onex::net::DecodeFrame(onex::net::EncodeFrame(rs),
                                   onex::net::ResponseFrameLimits());
    }
    frame_us.push_back(NsOf(Clock::now() - t) / 1e3 / kMicroReps);

    // engine: snapshot acquire, then the verb's engine entry point.
    t = Clock::now();
    const auto snap = engine.Get(req.dataset);
    get_us.push_back(NsOf(Clock::now() - t) / 1e3);
    if (!snap.ok()) continue;
    const onex::Result<std::string> tier = engine.registry().Tier(req.dataset);
    get_by_tier[tier.ok() ? *tier : "?"].push_back(get_us.back());

    const int root = trace.Add(
        {"net.request", 0, static_cast<std::int64_t>(e->t.latency() * 1e9), -1, id});
    const int exec = trace.Add({"protocol.execute", 0, exec_ns, root, id});

    std::vector<onex::MatchResult> matches;
    std::string engine_span = "engine.search";
    t = Clock::now();
    if (req.verb == "MATCH") {
      auto r = engine.SimilaritySearch(req.dataset, req.specs[0], qopt);
      if (r.ok()) matches.push_back(std::move(*r));
    } else if (req.verb == "KNN") {
      auto r = engine.Knn(req.dataset, req.specs[0], req.k, qopt);
      if (r.ok()) matches = std::move(*r);
    } else if (req.verb == "BATCH") {
      // KnnBatch fans its queries across the engine's pool, so their serial
      // core times are not a child of its wall time: a leaf span.
      engine_span = "engine.batch";
      auto r = engine.KnnBatch(req.dataset, req.specs, req.k, qopt);
      if (r.ok()) {
        for (auto& q : *r) {
          if (!q.empty()) {
            all.Add(q.front().stats);
            by_kind[in.kinds.at(req.dataset)].Add(q.front().stats);
          }
        }
      }
    } else if (req.verb == "ANOMALY" || req.verb == "FORECAST") {
      engine_span = "core.analytics";
      if (req.verb == "ANOMALY") {
        onex::AnomalyOptions opt;
        opt.length = req.length;
        (void)engine.Anomaly(req.dataset, opt);
      } else {
        onex::ForecastOptions opt;
        (void)engine.Forecast(req.dataset, req.series, opt);
      }
    } else if (req.verb == "CATALOG") {
      engine_span = "engine.read";
      (void)engine.Catalog(req.dataset, 16);
    } else if (req.verb == "OVERVIEW") {
      engine_span = "engine.read";
      onex::OverviewOptions opt;
      opt.top_n = 8;
      (void)engine.Overview(req.dataset, opt);
    } else {
      engine_span = "engine.read";
      (void)engine.Get(req.dataset);
    }
    const std::int64_t engine_ns = NsOf(Clock::now() - t);
    const int eng = trace.Add({engine_span, 0, engine_ns, exec, id});
    if (engine_span == "core.analytics") analytics_ms.push_back(engine_ns / 1e6);
    if (engine_span != "engine.search") continue;

    // core: the query processor on the snapshot's base, same query values.
    const onex::QuerySpec& spec = req.specs[0];
    onex::Result<std::vector<double>> qvals = engine.ResolveQuery(**snap, spec);
    if (!qvals.ok() || (*snap)->base == nullptr) continue;
    onex::QueryProcessor qp((*snap)->base.get());
    onex::QueryStats stats;
    t = Clock::now();
    (void)qp.KnnQuery(*qvals, req.k, qopt, &stats);
    const std::int64_t core_ns = NsOf(Clock::now() - t);
    core_ms.push_back(core_ns / 1e6);
    all.Add(stats);
    by_kind[in.kinds.at(req.dataset)].Add(stats);
    const int core = trace.Add({"core.query", 0, core_ns, eng, id});

    // distance: the active DTW kernel on the (query, answer) pairs.
    std::int64_t dist_ns = 0;
    for (const onex::MatchResult& m : matches) {
      t = Clock::now();
      (void)onex::ActiveKernel().dtw_ea_sq(
          m.query_values.data(), m.query_values.size(), m.match_values.data(),
          m.match_values.size(), std::numeric_limits<double>::infinity(), -1,
          &ws);
      const std::int64_t d = NsOf(Clock::now() - t);
      dist_ns += d;
      dtw_us.push_back(d / 1e3);
    }
    trace.Add({"distance.dtw", 0, dist_ns, core, id});
  }

  const std::map<std::string, std::vector<double>> self =
      SelfTimesByName(trace.spans());
  auto self_of = [&](std::initializer_list<const char*> names) {
    std::vector<double> v;
    for (const char* n : names) {
      const auto it = self.find(n);
      if (it != self.end()) v.insert(v.end(), it->second.begin(), it->second.end());
    }
    return MedianOrZero(std::move(v));
  };

  Metrics& m = *out;
  m["net.parse_us"] = MedianOrZero(parse_us);
  m["net.frame_us"] = MedianOrZero(frame_us);
  m["net.format_us"] = MedianOrZero(format_us);
  m["net.self_ms"] = self_of({"net.request"});
  const Summary exec_all = Summarize(exec_read);
  m["protocol.execute_ms.read.p50"] = exec_all.p50;
  m["protocol.execute_ms.read.tail"] = exec_all.tail;
  m["protocol.execute_ms.MATCH.p50"] = MedianOrZero(exec_by_verb["MATCH"]);
  m["protocol.self_ms"] = self_of({"protocol.execute"});
  m["engine.get_us"] = MedianOrZero(get_us);
  m["engine.search_self_ms"] = self_of({"engine.search"});
  m["engine.self_ms"] = self_of({"engine.search", "engine.batch", "engine.read"});
  m["core.query_ms"] = MedianOrZero(core_ms);
  m["core.analytics_ms"] = MedianOrZero(analytics_ms);
  m["core.self_ms"] = self_of({"core.query", "core.analytics"});
  m["core.groups_pruned_frac"] = Ratio(all.groups_pruned, all.groups_total);
  m["core.members_pruned_frac"] =
      Ratio(all.members_pruned, all.members_pruned + all.member_dtw);
  m["core.dtw_evals_per_query"] = Ratio(all.dtw, all.queries);
  m["distance.dtw_us"] = MedianOrZero(dtw_us);
  m["distance.self_ms"] = self_of({"distance.dtw"});
  m["distance.lb_prune_frac"] =
      Ratio(all.kim + all.keogh, all.kim + all.keogh + all.dtw);
  for (const auto& [kind, c] : by_kind) {
    m["distance.lb_prune_frac." + kind] =
        Ratio(c.kim + c.keogh, c.kim + c.keogh + c.dtw);
    m["distance.kim_share." + kind] = Ratio(c.kim, c.kim + c.keogh);
  }

  std::printf("\nlayer replay: %zu of %zu traced reads, %zu spans\n",
              sample.size(), in.reads.size(), trace.spans().size());
  for (const auto& [verb, v] : exec_by_verb) {
    const Summary s = Summarize(v);
    std::printf("  protocol.execute %-9s n=%-4zu p50=%.4fms p%.1f=%.4fms\n",
                verb.c_str(), s.n, s.p50, s.tail_pct, s.tail);
  }
  for (const auto& [tier, v] : get_by_tier) {
    std::printf("  engine.get_us tier=%-9s n=%-4zu p50=%.3fus\n", tier.c_str(),
                v.size(), MedianOrZero(v));
  }
  for (const auto& [name, v] : self) {
    const Summary s = Summarize(v);
    std::printf("  self %-18s n=%-4zu p50=%.4fms p%.1f=%.4fms\n", name.c_str(),
                s.n, s.p50, s.tail_pct, s.tail);
  }
  for (const auto& [kind, c] : by_kind) {
    std::printf("  cascade %-5s queries=%.0f kim=%.0f keogh=%.0f dtw=%.0f "
                "lb_prune_frac=%.4f kim_share=%.4f\n", kind.c_str(), c.queries,
                c.kim, c.keogh, c.dtw, Ratio(c.kim + c.keogh, c.kim + c.keogh + c.dtw),
                Ratio(c.kim, c.kim + c.keogh));
  }
}

}  // namespace servebench
