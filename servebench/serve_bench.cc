/// serve_bench — served-load benchmark for onexd (see README.md here).
///
///   serve_bench --workload explore|ingest|dashboard --seed N --seconds S
///               --trace 0|1 --onexd PATH --workdir DIR
///               [--git REV] [--source-hash H] [--build-type T]
///
/// Starts `onexd` as a child process, sets up the workload's datasets over
/// the wire (timed as setup_s, three times, median), then drives the server
/// from this one process over the ONEXB binary dialect: one thread and one
/// connection per traffic stream, at most four. Every answer is checked
/// against an in-process Engine built from the same seeds. The last stdout
/// line is one JSON object: {"correct", "attempted", "failed", "metrics"} —
/// the end-to-end metrics with --trace 0, the per-layer metrics with
/// --trace 1. Exits 1 on any wrong answer or an invalid (backlogged) run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"
#include "onex/common/hash.h"
#include "onex/distance/kernels.h"
#include "onex/json/json.h"
#include "onex/net/protocol.h"
#include "wire.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr int kSetupReps = 3;
constexpr int kSlices = 5;              // tails and rates: median of slices
constexpr std::size_t kMaxStreams = 4;  // generator threads = connections
constexpr std::size_t kFeedPoints = 8;  // points per EXTEND tick
constexpr double kDrainGraceS = 10.0;   // wait for in-flight answers

// ---------------------------------------------------------------------------
// Options and provenance
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string onexd;
  std::string workdir;
  std::string git = "unknown";
  std::string source_hash = "unknown";
  std::string build_type = "unknown";
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o->workload = v;
    else if (k == "--seed") o->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o->seconds = std::atof(v.c_str());
    else if (k == "--trace") o->trace = v == "1";
    else if (k == "--onexd") o->onexd = v;
    else if (k == "--workdir") o->workdir = v;
    else if (k == "--git") o->git = v;
    else if (k == "--source-hash") o->source_hash = v;
    else if (k == "--build-type") o->build_type = v;
    else return false;
  }
  return !o->workload.empty() && !o->onexd.empty() && !o->workdir.empty() &&
         o->seconds > 0;
}

/// Filesystem type of the mount holding `path` (for the provenance block).
std::string FilesystemOf(const std::string& path) {
  std::ifstream mounts("/proc/mounts");
  std::string dev, mnt, type, rest, best_type = "unknown";
  std::size_t best_len = 0;
  const std::string abs = fs::absolute(path).string();
  while (mounts >> dev >> mnt >> type && std::getline(mounts, rest)) {
    if (abs.rfind(mnt, 0) == 0 && mnt.size() >= best_len) {
      best_len = mnt.size();
      best_type = type;
    }
  }
  return best_type;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct DatasetSpec {
  std::string name;
  std::string kind;  // GEN generator: walk | sine
  int num = 0;
  int len = 0;
  int maxlen = 0;
  bool checkpoint = false;  // CHECKPOINT during setup
  bool prepare = true;      // PREPARE during setup (else a raw slot)
  std::string PrepareCommand() const {
    return "PREPARE " + name + " st=0.2 maxlen=" + std::to_string(maxlen) +
           " threads=4";
  }
};

/// One traffic stream: one generator thread on one connection.
struct StreamPlan {
  std::string name;
  bool closed = false;  ///< One event outstanding at a time (else open loop).
  OpenLoop loop;        ///< Open loop: the arrival schedule.
  /// The requests (command-table indices) of event i, sent together.
  std::function<std::vector<std::uint32_t>(std::size_t, std::mt19937_64&)> next;
};

struct Workload {
  std::string name;
  std::vector<DatasetSpec> datasets;
  /// Commands after the datasets are built, sent to the server only (the
  /// oracle never regroups, so its state is a pure function of the writes).
  std::vector<std::string> server_only_setup;
  bool quarter_budget = false;  ///< BUDGET = 1/4 of the prepared base bytes.
  std::vector<Request> requests;
  std::vector<StreamPlan> streams;
  /// Reads touch only datasets nobody writes, so every read answer is
  /// compared with the oracle's.
  bool check_each_read = true;
  /// Streaming feeds: (dataset, series) extended round-robin.
  std::vector<std::pair<std::string, std::size_t>> feeds;
  double write_rate = 0.0;  ///< EXTEND ticks per second, all feeds together.

  std::set<std::string> Written() const {
    std::set<std::string> out;
    for (const auto& f : feeds) out.insert(f.first);
    return out;
  }
  const DatasetSpec& Spec(const std::string& dataset) const {
    for (const DatasetSpec& d : datasets) {
      if (d.name == dataset) return d;
    }
    return datasets.front();
  }
};

/// Zipf(s) over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::size_t Uniform(std::mt19937_64& rng, std::size_t lo, std::size_t hi) {
  return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
}

std::string Ref(std::size_t series, std::size_t start, std::size_t len) {
  return std::to_string(series) + ":" + std::to_string(start) + ":" +
         std::to_string(len);
}

onex::QuerySpec Spec(std::size_t series, std::size_t start, std::size_t len) {
  onex::QuerySpec q;
  q.series = series;
  q.start = start;
  q.length = len;
  return q;
}

Request MatchLike(const std::string& verb, const DatasetSpec& d,
                  std::size_t series, std::size_t qlen, std::size_t k,
                  std::mt19937_64& rng) {
  Request r;
  r.verb = verb;
  r.dataset = d.name;
  r.k = k;
  const std::size_t start =
      Uniform(rng, 0, static_cast<std::size_t>(d.len) - qlen);
  r.specs.push_back(Spec(series, start, qlen));
  r.text = verb + " " + d.name + " q=" + Ref(series, start, qlen);
  if (verb == "KNN") r.text += " k=" + std::to_string(k);
  return r;
}

Request Forecast(const DatasetSpec& d, std::size_t series) {
  Request r;
  r.verb = "FORECAST";
  r.dataset = d.name;
  r.series = series;
  r.text = "FORECAST " + d.name + " series=" + std::to_string(series) +
           " horizon=8";
  return r;
}

/// The live feed of explore and dashboard: a raw (unprepared) slot, so each
/// tick costs a journal append plus a snapshot install, and the feed neither
/// checkpoints nor grows a base under the workload's reads. `maxlen` only
/// scopes the PREPARE of the post-run check.
DatasetSpec FeedDataset() { return {"feed", "walk", 16, 128, 16, false, false}; }

/// explore: analysts in a closed loop over four resident datasets (two walk,
/// two sine — the cascade behaves oppositely on them), zipfian query series,
/// query lengths uniform in 16..64; a light live feed ticks into a dataset
/// the analysts do not read.
Workload MakeExplore(std::uint64_t seed) {
  Workload wl;
  wl.name = "explore";
  const int lens[4] = {128, 256, 160, 224};
  for (int i = 0; i < 4; ++i) {
    wl.datasets.push_back({"e" + std::to_string(i), i < 2 ? "walk" : "sine",
                           100, lens[i], 64, false, true});
  }
  wl.datasets.push_back(FeedDataset());
  std::mt19937_64 rng(seed * 7919 + 1);

  // Per (dataset, series) key: two MATCH, two KNN, one BATCH and one
  // FORECAST variant; per dataset, ANOMALY on four length classes. A request
  // draws its key zipfian (keys ranked by a seeded permutation), its verb
  // from a fixed mix, and one of that verb's variants for the key.
  constexpr std::size_t kKeys = 400, kPerKey = 6;
  for (std::size_t key = 0; key < kKeys; ++key) {
    const DatasetSpec& d = wl.datasets[key / 100];
    const std::size_t series = key % 100;
    for (const char* verb : {"MATCH", "MATCH", "KNN", "KNN"}) {
      const std::size_t k = std::string(verb) == "KNN" ? 5 : 1;
      wl.requests.push_back(MatchLike(verb, d, series, Uniform(rng, 16, 64), k, rng));
    }
    Request batch = MatchLike("BATCH", d, series, Uniform(rng, 16, 64), 1, rng);
    for (int extra = 0; extra < 3; ++extra) {
      const std::size_t s = Uniform(rng, 0, 99);
      const std::size_t l = Uniform(rng, 16, 64);
      const std::size_t st = Uniform(rng, 0, static_cast<std::size_t>(d.len) - l);
      batch.specs.push_back(Spec(s, st, l));
      batch.text += ";" + Ref(s, st, l);
    }
    wl.requests.push_back(std::move(batch));
    wl.requests.push_back(Forecast(d, series));
  }
  const auto anomaly_base = static_cast<std::uint32_t>(wl.requests.size());
  for (std::size_t di = 0; di < 4; ++di) {
    for (const std::size_t len : {16, 32, 48, 64}) {
      Request r;
      r.verb = "ANOMALY";
      r.dataset = wl.datasets[di].name;
      r.length = len;
      r.text = "ANOMALY " + r.dataset + " length=" + std::to_string(len) + " top=10";
      wl.requests.push_back(std::move(r));
    }
  }
  std::vector<std::uint32_t> keys(kKeys);
  std::iota(keys.begin(), keys.end(), 0);
  std::shuffle(keys.begin(), keys.end(), rng);
  // The verb mix is exact, not drawn: each analyst cycles through a seeded
  // shuffle of 100 slots (40 MATCH, 30 KNN, 20 BATCH, 7 FORECAST, 3 ANOMALY),
  // so a run's cost does not hinge on how many heavy verbs the dice gave it.
  std::vector<int> slots;
  for (const auto& [verb, count] :
       {std::pair{0, 40}, std::pair{1, 30}, std::pair{2, 20}, std::pair{3, 7},
        std::pair{4, 3}}) {
    slots.insert(slots.end(), static_cast<std::size_t>(count), verb);
  }
  auto zipf = std::make_shared<Zipf>(kKeys, 0.8);
  for (int a = 0; a < 3; ++a) {
    StreamPlan p;
    p.name = "analyst" + std::to_string(a);
    p.closed = true;
    std::shuffle(slots.begin(), slots.end(), rng);
    p.next = [zipf, keys, slots, anomaly_base](std::size_t i,
                                               std::mt19937_64& r) {
      const std::uint32_t key = keys[(*zipf)(r)];
      const std::uint32_t base = key * static_cast<std::uint32_t>(kPerKey);
      std::uint32_t id = 0;
      switch (slots[i % slots.size()]) {
        case 0: id = base + (r() & 1); break;                    // MATCH
        case 1: id = base + 2 + (r() & 1); break;                // KNN k=5
        case 2: id = base + 4; break;                            // BATCH of 4
        case 3: id = base + 5; break;                            // FORECAST
        default: id = anomaly_base + (key / 100) * 4 + (r() & 3);  // ANOMALY
      }
      return std::vector<std::uint32_t>{id};
    };
    wl.streams.push_back(std::move(p));
  }
  for (std::size_t s = 0; s < 16; ++s) wl.feeds.emplace_back("feed", s);
  // EXTEND is a per-connection barrier that waits for a pool thread the
  // analysts keep busy, so the feed ticks slowly enough not to queue up.
  wl.write_rate = 25.0;
  return wl;
}

/// dashboard: fixed-rate refreshes, each a pipelined burst of twelve cheap
/// reads against one zipf-chosen dataset out of 64 small checkpointed ones;
/// the resident budget holds a quarter of them, the rest serve mapped.
Workload MakeDashboard(std::uint64_t seed) {
  Workload wl;
  wl.name = "dashboard";
  for (int i = 0; i < 64; ++i) {
    char name[8];
    std::snprintf(name, sizeof(name), "d%02d", i);
    wl.datasets.push_back({name, i % 2 == 0 ? "walk" : "sine", 20, 96, 32,
                           true, true});
  }
  wl.datasets.push_back(FeedDataset());
  wl.quarter_budget = true;
  std::mt19937_64 rng(seed * 7919 + 2);
  for (int i = 0; i < 64; ++i) {
    const DatasetSpec& d = wl.datasets[static_cast<std::size_t>(i)];
    auto plain = [&](const std::string& verb, const std::string& opts) {
      Request r;
      r.verb = verb;
      r.dataset = d.name;
      r.text = verb + " " + d.name + opts;
      return r;
    };
    wl.requests.push_back(plain("STATS", ""));
    wl.requests.push_back(plain("CATALOG", " points=16"));
    wl.requests.push_back(plain("OVERVIEW", " top=8"));
    wl.requests.push_back(Forecast(d, Uniform(rng, 0, 19)));
    for (int j = 0; j < 4; ++j) {
      wl.requests.push_back(
          MatchLike("MATCH", d, Uniform(rng, 0, 19), Uniform(rng, 8, 32), 1, rng));
    }
    for (int j = 0; j < 4; ++j) {
      wl.requests.push_back(
          MatchLike("KNN", d, Uniform(rng, 0, 19), Uniform(rng, 8, 32), 3, rng));
    }
  }
  std::vector<std::size_t> order(64);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  auto zipf = std::make_shared<Zipf>(64, 1.0);
  const double refresh_rate = 60.0;
  for (int c = 0; c < 3; ++c) {
    StreamPlan p;
    p.name = "panel" + std::to_string(c);
    p.loop = OpenLoop{refresh_rate / 3, c / refresh_rate};
    p.next = [zipf, order](std::size_t, std::mt19937_64& r) {
      const std::size_t d = order[(*zipf)(r)];
      std::vector<std::uint32_t> burst(12);
      std::iota(burst.begin(), burst.end(), static_cast<std::uint32_t>(12 * d));
      return burst;
    };
    wl.streams.push_back(std::move(p));
  }
  for (std::size_t s = 0; s < 16; ++s) wl.feeds.emplace_back("feed", s);
  wl.write_rate = 100.0;
  return wl;
}

/// ingest: sixteen feeds tick EXTENDs into two durable datasets at a fixed
/// rate (about half the measured EXTEND capacity), with a drift threshold
/// low enough that background regroups fire during the run; a second
/// connection reads the same datasets at a fixed rate.
Workload MakeIngest(std::uint64_t seed) {
  Workload wl;
  wl.name = "ingest";
  wl.datasets.push_back({"i0", "walk", 16, 64, 16, false, true});
  wl.datasets.push_back({"i1", "sine", 16, 64, 16, false, true});
  wl.server_only_setup.push_back("DRIFT i0 threshold=0.01");
  wl.check_each_read = false;
  std::mt19937_64 rng(seed * 7919 + 3);
  for (int j = 0; j < 256; ++j) {
    const DatasetSpec& d = wl.datasets[static_cast<std::size_t>(j % 2)];
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    const std::size_t series = Uniform(rng, 0, static_cast<std::size_t>(d.num) - 1);
    const std::size_t qlen = Uniform(rng, 8, static_cast<std::size_t>(d.maxlen));
    if (u < 0.45) {
      wl.requests.push_back(MatchLike("MATCH", d, series, qlen, 1, rng));
    } else if (u < 0.90) {
      wl.requests.push_back(MatchLike("KNN", d, series, qlen, 3, rng));
    } else {
      wl.requests.push_back(Forecast(d, series));
    }
  }
  StreamPlan reader;
  reader.name = "reader";
  reader.loop.rate = 150.0;
  reader.next = [](std::size_t, std::mt19937_64& r) {
    return std::vector<std::uint32_t>{
        static_cast<std::uint32_t>(Uniform(r, 0, 255))};
  };
  wl.streams.push_back(std::move(reader));
  for (std::size_t f = 0; f < 16; ++f) {
    wl.feeds.emplace_back(f % 2 == 0 ? "i0" : "i1", f / 2);
  }
  wl.write_rate = 40.0;
  return wl;
}

bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* wl) {
  if (name == "explore") *wl = MakeExplore(seed);
  else if (name == "dashboard") *wl = MakeDashboard(seed);
  else if (name == "ingest") *wl = MakeIngest(seed);
  else return false;
  return true;
}

/// Setup script for one dataset, run identically by server and oracle. The
/// datasets are a fixed corpus (the GEN seed is the dataset's index): the
/// run's --seed drives the traffic — query tables, zipf rankings, verb
/// draws, feed values — so runs with different seeds compare like with like.
std::vector<std::string> DatasetSetup(const DatasetSpec& d, std::size_t index) {
  std::vector<std::string> out = {
      "GEN " + d.name + " " + d.kind + " num=" + std::to_string(d.num) +
      " len=" + std::to_string(d.len) +
      " seed=" + std::to_string(1000 + index)};
  if (d.prepare) out.push_back(d.PrepareCommand());
  if (d.checkpoint) out.push_back("CHECKPOINT " + d.name);
  return out;
}

/// Appends the feeds' EXTEND ticks (enough for the whole window) to the
/// command table, continuing each fed series as a random walk from its
/// current last value with its own step size, and adds the writer stream.
void AddFeedWrites(Workload* wl, onex::Engine& oracle, double seconds,
                   std::uint64_t seed) {
  struct FeedState {
    double last = 0;
    double step = 1;
  };
  std::vector<FeedState> state;
  for (const auto& [ds, series] : wl->feeds) {
    const auto snap = oracle.Get(ds);
    const std::vector<double>& v = (*(*snap)->raw)[series].values();
    double ss = 0;
    for (std::size_t i = 1; i < v.size(); ++i) ss += (v[i] - v[i - 1]) * (v[i] - v[i - 1]);
    state.push_back({v.back(), std::sqrt(ss / static_cast<double>(v.size() - 1)) + 1e-6});
  }
  std::mt19937_64 rng(seed * 7919 + 4);
  std::normal_distribution<double> normal(0.0, 1.0);
  const auto ticks =
      static_cast<std::size_t>(std::ceil(wl->write_rate * seconds)) + 2;
  const auto base = static_cast<std::uint32_t>(wl->requests.size());
  for (std::size_t t = 0; t < ticks; ++t) {
    const std::size_t f = t % wl->feeds.size();
    FeedState& st = state[f];
    Request r;
    r.write = true;
    r.verb = "EXTEND";
    r.dataset = wl->feeds[f].first;
    r.series = wl->feeds[f].second;
    r.text = "EXTEND " + r.dataset + " series=" + std::to_string(r.series);
    for (std::size_t i = 0; i < kFeedPoints; ++i) {
      st.last += st.step * normal(rng);
      r.values.push_back(st.last);
    }
    wl->requests.push_back(std::move(r));
  }
  StreamPlan writer;
  writer.name = "feed";
  writer.loop.rate = wl->write_rate;
  writer.next = [base](std::size_t i, std::mt19937_64&) {
    return std::vector<std::uint32_t>{base + static_cast<std::uint32_t>(i)};
  };
  wl->streams.push_back(std::move(writer));
}

// ---------------------------------------------------------------------------
// Answer comparison
// ---------------------------------------------------------------------------

/// Removes `"key":<value>` members from compact JSON text. Values here are
/// numbers or plain strings, so the member ends at the next ',' or '}'.
void EraseMember(std::string* text, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  std::size_t at = 0;
  while ((at = text->find(pat, at)) != std::string::npos) {
    std::size_t end = text->find_first_of(",}", at + pat.size());
    if (end == std::string::npos) return;
    if ((*text)[end] == ',') {
      ++end;
    } else if (at > 0 && (*text)[at - 1] == ',') {
      --at;
    }
    text->erase(at, end - at);
  }
}

/// A response body with the fields that legitimately differ between two
/// executions of the same read removed: wall-clock timings, and STATS's
/// process-wide counters and tier (which depend on the LRU history, not on
/// the dataset).
std::uint64_t ScrubbedHash(const std::string& verb, std::string text) {
  EraseMember(&text, "elapsed_ms");
  if (verb == "STATS") {
    for (const char* k : {"queries", "pruned_kim", "pruned_keogh", "dtw_evals",
                          "tier", "mapped_bytes"}) {
      EraseMember(&text, k);
    }
  }
  return onex::Fnv1a64(text);
}

void ScrubVolatile(onex::json::Value* v) {
  if (v->is_object()) {
    for (const char* k : {"elapsed_ms", "build_seconds", "uptime_s"}) {
      v->mutable_object().erase(k);
    }
    for (auto& entry : v->mutable_object()) ScrubVolatile(&entry.second);
  } else if (v->is_array()) {
    for (auto& entry : v->mutable_array()) ScrubVolatile(&entry);
  }
}

onex::json::Value ExecLocal(onex::Engine* engine, const std::string& text) {
  onex::Result<onex::net::Command> cmd = onex::net::ParseCommandLine(text);
  if (!cmd.ok()) return onex::net::ErrorResponse(cmd.status());
  return onex::net::ExecuteCommand(engine, *cmd);
}

onex::json::Value ParseBody(const onex::net::Frame& frame) {
  onex::Result<onex::json::Value> v = onex::json::Parse(frame.text);
  return v.ok() ? *v : onex::json::Value();
}

// ---------------------------------------------------------------------------
// Server setup
// ---------------------------------------------------------------------------

struct SetupResult {
  double seconds = 0;
  double build_seconds = 0;  ///< PREPARE build_seconds, summed.
};

onex::Result<SetupResult> SetupServer(const Options& opt, const Workload& wl,
                                      const std::string& data_dir,
                                      ServerProcess* server) {
  SetupResult out;
  const auto t0 = Clock::now();
  ONEX_RETURN_IF_ERROR(
      server->Start(opt.onexd, {"0", "--data-dir=" + data_dir}));
  ONEX_ASSIGN_OR_RETURN(Control control, Control::Open(server->port()));
  std::vector<std::string> script;
  for (std::size_t i = 0; i < wl.datasets.size(); ++i) {
    for (std::string& c : DatasetSetup(wl.datasets[i], i)) {
      script.push_back(std::move(c));
    }
  }
  for (const std::string& c : wl.server_only_setup) script.push_back(c);
  for (const std::string& c : script) {
    ONEX_ASSIGN_OR_RETURN(onex::net::Frame f, control.Call(c));
    const onex::json::Value body = ParseBody(f);
    if (!body["ok"].as_bool()) {
      return onex::Status::Internal("setup '" + c + "' failed: " + f.text);
    }
    out.build_seconds += body["build_seconds"].as_number();
  }
  if (wl.quarter_budget) {
    ONEX_ASSIGN_OR_RETURN(onex::net::Frame f, control.Call("DATASETS"));
    double bytes = 0;
    const onex::json::Value described = ParseBody(f);
    for (const onex::json::Value& row : described["datasets"].as_array()) {
      bytes += row["bytes"].as_number();
    }
    const auto budget = static_cast<long long>(bytes / 4);
    ONEX_ASSIGN_OR_RETURN(onex::net::Frame b,
                          control.Call("BUDGET bytes=" + std::to_string(budget)));
    if (!ParseBody(b)["ok"].as_bool()) {
      return onex::Status::Internal("BUDGET failed: " + b.text);
    }
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

/// The in-process twin: same setup script through the same executor, with
/// durability on (so checkpoints adopt the same canonical images) but no
/// drift-triggered regroups, which makes its state a function of the writes.
onex::Status BuildOracle(const Options& opt, const Workload& wl,
                         onex::Engine* oracle) {
  std::vector<std::string> script = {"PERSIST dir=" + opt.workdir +
                                     "/oracle every=0 fsync=1"};
  for (std::size_t i = 0; i < wl.datasets.size(); ++i) {
    for (std::string& c : DatasetSetup(wl.datasets[i], i)) {
      script.push_back(std::move(c));
    }
  }
  for (const std::string& c : script) {
    const onex::json::Value v = ExecLocal(oracle, c);
    if (!v["ok"].as_bool()) {
      return onex::Status::Internal("oracle setup '" + c + "' failed: " + v.Dump());
    }
  }
  if (wl.quarter_budget) {
    std::size_t bytes = 0;
    for (const onex::DatasetSlotInfo& info : oracle->registry().Describe()) {
      bytes += info.prepared_bytes;
    }
    oracle->registry().SetPreparedBudget(bytes / 4);
  }
  return onex::Status::OK();
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const auto n = it->file_size(size_ec);
      if (!size_ec) total += n;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// The measured window
// ---------------------------------------------------------------------------

struct StreamResult {
  std::vector<LogEntry> log;
  std::size_t events = 0;  ///< Events issued.
  Trace trace;
  onex::Status status;
};

std::int64_t Ns(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

/// Drives one stream over its own connection until the window closes, then
/// waits (bounded) for the answers still in flight.
void DriveStream(const Workload& wl, const StreamPlan& plan, Conn* conn,
                 Clock::time_point t0, double seconds, bool trace,
                 std::uint64_t seed, StreamResult* out) {
  std::mt19937_64 rng(seed);
  std::unordered_map<std::uint64_t, std::size_t> inflight;
  std::unordered_map<std::uint64_t, std::int64_t> encode_ns;
  std::uint64_t next_id = 1;
  std::size_t next_event = 0;
  auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  auto due_of = [&](std::size_t i) { return plan.loop.Due(i); };
  auto issue = [&](double due) {
    // A traced run traces every other event, so traced and untraced requests
    // see the same load and their latency difference is the tracing cost.
    const bool traced = trace && next_event % 2 == 1;
    const std::vector<std::uint32_t> ids = plan.next(next_event++, rng);
    const double sent = now_s();
    for (const std::uint32_t id : ids) {
      const Request& req = wl.requests[id];
      LogEntry e;
      e.request = id;
      e.t = RequestTimes{due, sent, -1.0};
      e.traced = traced;
      const std::int64_t enc = conn->Queue(next_id, req.text, req.values);
      if (e.traced) encode_ns[next_id] = enc;
      inflight[next_id++] = out->log.size();
      out->log.push_back(e);
    }
  };
  auto on_response = [&](Response&& r) {
    const auto it = inflight.find(r.frame.request_id);
    if (it == inflight.end()) return;
    LogEntry& e = out->log[it->second];
    inflight.erase(it);
    e.t.done = now_s();
    e.failed = (r.frame.flags & onex::net::kFrameFlagError) != 0;
    const Request& req = wl.requests[e.request];
    if (!req.write && wl.check_each_read) {
      e.hash = ScrubbedHash(req.verb, std::move(r.frame.text));
    }
    if (e.traced) {
      const std::uint64_t rid = r.frame.request_id;
      const int root = out->trace.Add(
          {"client.request", Ns(e.t.due), Ns(e.t.done), -1, rid});
      out->trace.Add({"net.encode", Ns(e.t.sent),
                      Ns(e.t.sent) + encode_ns[rid], root, rid});
      out->trace.Add({"net.decode", Ns(e.t.done) - r.decode_ns, Ns(e.t.done),
                      root, rid});
      encode_ns.erase(rid);
    }
  };

  std::this_thread::sleep_until(t0);
  while (true) {
    const double now = now_s();
    if (plan.closed) {
      if (inflight.empty() && now < seconds) issue(now);
    } else {
      while (due_of(next_event) < seconds && due_of(next_event) <= now) {
        issue(due_of(next_event));
      }
    }
    const bool more = plan.closed ? now < seconds : due_of(next_event) < seconds;
    if (!more && inflight.empty()) break;
    if (now > seconds + kDrainGraceS) break;  // the rest count as failed
    double wait = 0.05;
    if (!plan.closed && more) wait = std::max(0.0, due_of(next_event) - now);
    if (plan.closed && inflight.empty()) wait = 0;
    if (onex::Status s = conn->Pump(Ns(std::min(wait, 0.05)), on_response);
        !s.ok()) {
      out->status = s;
      break;
    }
  }
  for (auto& [id, index] : inflight) out->log[index].failed = true;
  out->events = next_event;
}

// ---------------------------------------------------------------------------
// Verification of written datasets
// ---------------------------------------------------------------------------

struct Checker {
  Control* control;
  onex::Engine* oracle;
  std::size_t checked = 0;
  std::size_t wrong = 0;

  /// Runs `text` on both sides; compares the scrubbed bodies, or only the
  /// listed fields when `fields` is non-empty.
  void Compare(const std::string& text,
               const std::vector<std::string>& fields = {}) {
    ++checked;
    onex::Result<onex::net::Frame> f = control->Call(text);
    onex::json::Value served = f.ok() ? ParseBody(*f) : onex::json::Value();
    onex::json::Value local = ExecLocal(oracle, text);
    ScrubVolatile(&served);
    ScrubVolatile(&local);
    bool same = served["ok"].as_bool() && local["ok"].as_bool();
    if (same && fields.empty()) same = served.Dump() == local.Dump();
    for (const std::string& k : fields) {
      same = same && served[k].Dump() == local[k].Dump();
    }
    if (!same) {
      ++wrong;
      std::printf("MISMATCH %s\n  served: %.300s\n  oracle: %.300s\n",
                  text.c_str(), served.Dump().c_str(), local.Dump().c_str());
    }
  }
};

/// Waits until no background regroup or checkpoint is running on the
/// server (two identical DATASETS snapshots, nothing regrouping).
onex::json::Value Quiesce(Control* control) {
  std::string last;
  onex::json::Value body;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    onex::Result<onex::net::Frame> f = control->Call("DATASETS");
    if (!f.ok()) break;
    body = ParseBody(*f);
    bool busy = false;
    for (const onex::json::Value& row : body["datasets"].as_array()) {
      busy = busy || row["regrouping"].as_bool();
    }
    if (!busy && f->text == last) break;
    last = f->text;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return body;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct MetricInfo {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0), in BENCHMARK.json order: the ones that
// stay steady on a shared host whose hypervisor steals a varying share of
// the CPU. Client-observed latencies and closed-loop throughput move with
// that share; they are reported on every run and, as client.*, in the
// traced run's metrics.
const MetricInfo kEndToEnd[] = {
    {"setup_s", "s"},
    {"server_cpu_ms_per_req", "ms"},
    {"write_points_per_s", "1/s"},
    {"write_amp", "ratio"},
    {"peak_rss_mb", "MiB"},
};

// Per-layer metrics (--trace 1), in BENCHMARK.json order.
const MetricInfo kPerLayer[] = {
    {"client.read_p50_ms", "ms"},
    {"client.read_p99_ms", "ms"},
    {"client.read_qps", "1/s"},
    {"client.write_p50_ms", "ms"},
    {"client.write_p99_ms", "ms"},
    {"net.parse_us", "us"},
    {"net.frame_us", "us"},
    {"net.format_us", "us"},
    {"net.server_p50_ms.MATCH", "ms"},
    {"net.server_p99_ms.MATCH", "ms"},
    {"net.server_p50_ms.KNN", "ms"},
    {"net.server_p99_ms.KNN", "ms"},
    {"net.server_p50_ms.EXTEND", "ms"},
    {"net.server_p99_ms.EXTEND", "ms"},
    {"net.wire_share", "ratio"},
    {"net.queue_wait_ms", "ms"},
    {"net.bytes_out_per_req", "bytes"},
    {"net.self_ms", "ms"},
    {"protocol.execute_ms.read.p50", "ms"},
    {"protocol.execute_ms.read.tail", "ms"},
    {"protocol.execute_ms.EXTEND.p50", "ms"},
    {"protocol.execute_ms.EXTEND.tail", "ms"},
    {"protocol.self_ms", "ms"},
    {"engine.get_us", "us"},
    {"engine.search_self_ms", "ms"},
    {"engine.extend_ms.p50", "ms"},
    {"engine.extend_ms.tail", "ms"},
    {"engine.regroups", "count"},
    {"engine.checkpoints", "count"},
    {"engine.wal_bytes_per_point", "bytes"},
    {"engine.storage_bytes_per_point", "bytes"},
    {"engine.tier_resident", "count"},
    {"engine.tier_mapped", "count"},
    {"engine.self_ms", "ms"},
    {"core.build_s", "s"},
    {"core.query_ms", "ms"},
    {"core.analytics_ms", "ms"},
    {"core.groups_pruned_frac", "ratio"},
    {"core.members_pruned_frac", "ratio"},
    {"core.dtw_evals_per_query", "count"},
    {"core.self_ms", "ms"},
    {"distance.dtw_us", "us"},
    {"distance.lb_prune_frac", "ratio"},
    {"distance.lb_prune_frac.walk", "ratio"},
    {"distance.lb_prune_frac.sine", "ratio"},
    {"distance.kim_share.walk", "ratio"},
    {"distance.kim_share.sine", "ratio"},
    {"distance.self_ms", "ms"},
    {"gen.late_p99_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const Metrics& m, const MetricInfo* table, std::size_t n) {
  std::printf("\n%-36s %16s  %s\n", "metric", "value", "unit");
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = m.find(table[i].name);
    std::printf("%-36s %16.6g  %s\n", table[i].name,
                it == m.end() ? 0.0 : it->second, table[i].unit);
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = m.find(table[i].name);
    json += std::string(i ? ", " : "") + "\"" + table[i].name +
            "\": {\"value\": " + Num(it == m.end() ? 0.0 : it->second) +
            ", \"unit\": \"" + table[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}


int Run(const Options& opt) {
  Workload wl;
  if (!MakeWorkload(opt.workload, opt.seed, &wl)) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  fs::create_directories(opt.workdir);

  std::printf("provenance: {\"hardware_threads\": %u, \"kernel\": \"%s\", "
              "\"simd_dispatch\": %s, \"git\": \"%s\", \"source_hash\": \"%s\", "
              "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"data_dir_fs\": \"%s\", "
              "\"fsync\": \"on (onexd default)\", \"checkpoint_every\": 256}\n",
              std::thread::hardware_concurrency(), onex::ActiveKernel().name,
              onex::SimdDispatchAvailable() ? "true" : "false", opt.git.c_str(),
              opt.source_hash.c_str(), opt.build_type.c_str(),
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, FilesystemOf(opt.workdir).c_str());

  // ---- setup, timed kSetupReps times; the last server stays up ----------
  std::vector<double> setup_times;
  std::unique_ptr<ServerProcess> server;
  SetupResult setup;
  std::string data_dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    data_dir = opt.workdir + "/data-" + std::to_string(rep);
    fs::remove_all(data_dir);
    server = std::make_unique<ServerProcess>();
    onex::Result<SetupResult> r = SetupServer(opt, wl, data_dir, server.get());
    if (!r.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    setup = *r;
    setup_times.push_back(setup.seconds);
    if (rep + 1 < kSetupReps) {
      server->Stop();
      fs::remove_all(data_dir);
    }
  }
  std::printf("setup: %zu datasets, %.3fs median of %d (build_seconds %.3f)\n",
              wl.datasets.size(), Median(setup_times),
              kSetupReps, setup.build_seconds);

  onex::Engine oracle;
  if (onex::Status s = BuildOracle(opt, wl, &oracle); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  AddFeedWrites(&wl, oracle, opt.seconds, opt.seed);
  if (wl.streams.size() > kMaxStreams) {
    std::fprintf(stderr, "%zu streams exceed the generator's %zu\n",
                 wl.streams.size(), kMaxStreams);
    return 2;
  }

  // ---- the measured window ---------------------------------------------
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t i = 0; i < wl.streams.size(); ++i) {
    onex::Result<Conn> c = Conn::Open(server->port());
    if (!c.ok()) {
      std::fprintf(stderr, "connect: %s\n", c.status().ToString().c_str());
      return 1;
    }
    conns.push_back(std::make_unique<Conn>(std::move(*c)));
  }
  const std::uint64_t storage0 = server->StorageWriteBytes();
  const double cpu0 = server->CpuSeconds();
  const auto steal0 = HostStealAndTotalTicks();
  const std::uint64_t dir0 = DirBytes(data_dir);
  std::vector<StreamResult> results(wl.streams.size());
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < wl.streams.size(); ++i) {
      threads.emplace_back(DriveStream, std::cref(wl), std::cref(wl.streams[i]),
                           conns[i].get(), t0, opt.seconds, opt.trace,
                           opt.seed * 131 + i, &results[i]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double window_end =
      std::chrono::duration<double>(Clock::now() - t0).count();
  conns.clear();

  onex::Result<Control> control_or = Control::Open(server->port());
  if (!control_or.ok()) {
    std::fprintf(stderr, "control: %s\n", control_or.status().ToString().c_str());
    return 1;
  }
  Control& control = *control_or;
  const onex::json::Value server_metrics = ParseBody(*control.Call("METRICS"));
  const double peak_rss_mb = static_cast<double>(server->PeakRssKib()) / 1024.0;
  const std::uint64_t storage1 = server->StorageWriteBytes();
  // Background regroups and checkpoints the window's writes triggered finish
  // before the data dir is measured, so its growth does not depend on where
  // in a checkpoint cycle the window happened to end.
  const onex::json::Value quiet = Quiesce(&control);
  const std::uint64_t dir1 = DirBytes(data_dir);
  const double server_cpu_s = server->CpuSeconds() - cpu0;
  const double server_cores = server_cpu_s / window_end;
  const auto steal1 = HostStealAndTotalTicks();
  const double steal_share =
      static_cast<double>(steal1.first - steal0.first) /
      std::max<double>(1.0, static_cast<double>(steal1.second - steal0.second));

  // ---- end-to-end accounting -------------------------------------------
  std::size_t attempted = 0, failed = 0;
  std::vector<TimedSample> read_ms, write_ms;
  std::map<std::string, std::vector<double>> reads_by_verb;
  std::vector<double> reads_traced, reads_untraced, lateness;
  std::size_t writes_done = 0, points_acked = 0, backlog = 0;
  std::map<std::string, std::size_t> acked_writes;
  double max_backlog = 0;
  // Open-loop honesty: a generator that fell behind, a backlog at the end of
  // the window, or open-loop reads completing below the offered rate make
  // the run invalid rather than recorded.
  bool valid = true;
  for (std::size_t s = 0; s < wl.streams.size(); ++s) {
    const StreamPlan& plan = wl.streams[s];
    const StreamResult& res = results[s];
    if (!res.status.ok()) {
      std::printf("stream %s: %s\n", plan.name.c_str(),
                  res.status.ToString().c_str());
    }
    std::size_t reads_offered = 0, reads_answered = 0;
    for (const LogEntry& e : res.log) {
      const Request& req = wl.requests[e.request];
      ++attempted;
      const bool in_window = e.t.due < opt.seconds;
      if (!req.write && in_window) ++reads_offered;
      if (!e.t.completed() || e.failed) {
        ++failed;
        continue;
      }
      const double ms = e.t.latency() * 1e3;
      if (!plan.closed) lateness.push_back(e.t.lateness() * 1e3);
      if (req.write) {
        write_ms.push_back({e.t.due, ms});
        ++writes_done;
        points_acked += req.values.size();
        ++acked_writes[req.dataset];
      } else {
        read_ms.push_back({e.t.due, ms});
        reads_by_verb[req.verb].push_back(ms);
        (e.traced ? reads_traced : reads_untraced).push_back(ms);
        reads_answered += in_window;
      }
    }
    if (plan.closed) continue;
    std::vector<RequestTimes> times;
    for (const LogEntry& e : res.log) times.push_back(e.t);
    backlog += BacklogAt(times, opt.seconds);
    const double per_event = static_cast<double>(res.log.size()) /
                             std::max<double>(1.0, static_cast<double>(res.events));
    max_backlog += plan.loop.rate * per_event;  // one second of arrivals
    if (res.events != plan.loop.DueBefore(opt.seconds)) {
      std::printf("INVALID: stream %s issued %zu of %zu due events\n",
                  plan.name.c_str(), res.events,
                  plan.loop.DueBefore(opt.seconds));
      valid = false;
    }
    if (static_cast<double>(reads_answered) < 0.99 * static_cast<double>(reads_offered)) {
      std::printf("INVALID: stream %s answered %zu of %zu offered reads\n",
                  plan.name.c_str(), reads_answered, reads_offered);
      valid = false;
    }
  }
  // The generator fell behind its schedule if it sent late as a rule (not
  // just when the host preempted it for a moment) or stalled outright.
  const Summary late = Summarize(lateness);
  if (late.n > 0 && (late.p50 > 5.0 || late.tail > 500.0)) {
    std::printf("INVALID: generator lateness p50 %.3fms (limit 5ms), p%.1f "
                "%.3fms (limit 500ms)\n", late.p50, late.tail_pct, late.tail);
    valid = false;
  }
  if (static_cast<double>(backlog) > std::ceil(max_backlog) + 2) {
    std::printf("INVALID: end-of-run backlog %zu > %.0f\n", backlog, max_backlog);
    valid = false;
  }

  // Medians, tails and rates are each the median over kSlices equal slices
  // of the window (stats.h): a burst of outside interference moves a slice,
  // not the result. The report also prints the whole-window figures.
  auto values = [](const std::vector<TimedSample>& v) {
    std::vector<double> out;
    for (const TimedSample& x : v) out.push_back(x.value);
    return out;
  };
  auto slice_rate = [&](const std::vector<Summary>& slices) {
    std::vector<double> rates;
    for (const Summary& sl : slices) {
      rates.push_back(static_cast<double>(sl.n) / (opt.seconds / kSlices));
    }
    return Median(rates);
  };
  const Summary rs = Summarize(values(read_ms));
  const Summary ws = Summarize(values(write_ms));
  const std::vector<Summary> rsl = SliceSummaries(read_ms, opt.seconds, kSlices);
  const std::vector<Summary> wsl = SliceSummaries(write_ms, opt.seconds, kSlices);
  Metrics e2e;
  e2e["setup_s"] = Median(setup_times);
  e2e["client.read_p50_ms"] = MedianSliceP50(rsl);
  e2e["client.read_p99_ms"] = MedianSliceTail(rsl);
  e2e["client.read_qps"] = slice_rate(rsl);
  e2e["client.write_p50_ms"] = MedianSliceP50(wsl);
  e2e["client.write_p99_ms"] = MedianSliceTail(wsl);
  // Server CPU (user + system; time the hypervisor stole is not charged)
  // per request answered in the window, background work included.
  e2e["server_cpu_ms_per_req"] =
      1e3 * server_cpu_s /
      std::max<double>(1.0, static_cast<double>(read_ms.size() + write_ms.size()));
  e2e["write_points_per_s"] = static_cast<double>(points_acked) / opt.seconds;
  // Bytes added under the data dir (journal growth, checkpoint files net of
  // the ones they replaced) per byte of acknowledged float64 payload.
  const double dir_growth = static_cast<double>(dir1) - static_cast<double>(dir0);
  e2e["write_amp"] = points_acked == 0 ? 0.0
                     : dir_growth / (8.0 * static_cast<double>(points_acked));
  e2e["peak_rss_mb"] = peak_rss_mb;

  std::printf("\nworkload %s: %zu streams, window %.2fs (+%.2fs drain)\n",
              wl.name.c_str(), wl.streams.size(), opt.seconds,
              window_end - opt.seconds);
  auto print_slices = [](const char* what, const Summary& all,
                         const std::vector<Summary>& slices) {
    std::printf("  %-6s n=%zu p50=%.3fms p%.1f=%.3fms; per slice:", what, all.n,
                all.p50, all.tail_pct, all.tail);
    for (const Summary& sl : slices) {
      std::printf(" [n=%zu p%.1f=%.3fms]", sl.n, sl.tail_pct, sl.tail);
    }
    std::printf("\n");
  };
  print_slices("reads", rs, rsl);
  for (const auto& [verb, v] : reads_by_verb) {
    const Summary s = Summarize(v);
    std::printf("    %-9s n=%-6zu p50=%.3fms p%.1f=%.3fms\n", verb.c_str(), s.n,
                s.p50, s.tail_pct, s.tail);
  }
  print_slices("writes", ws, wsl);
  std::printf("  %zu writes, %zu points acked\n", writes_done, points_acked);
  std::printf("  generator lateness p50=%.3fms p%.1f=%.3fms, end-of-run "
              "backlog %zu\n", late.p50, late.tail_pct, late.tail, backlog);
  std::printf("  server used %.2f cores; host CPU steal %.1f%% during the window\n",
              server_cores, 100 * steal_share);

  // ---- verification -----------------------------------------------------
  std::size_t wrong = 0;
  // (1) Every read answer of a static workload against the oracle's.
  if (wl.check_each_read) {
    std::map<std::uint32_t, std::set<std::uint64_t>> seen;
    for (const StreamResult& r : results) {
      for (const LogEntry& e : r.log) {
        if (!wl.requests[e.request].write && e.t.completed() && !e.failed) {
          seen[e.request].insert(e.hash);
        }
      }
    }
    std::vector<std::pair<std::uint32_t, std::set<std::uint64_t>>> todo(
        seen.begin(), seen.end());
    std::atomic<std::size_t> next{0}, bad{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i = next++; i < todo.size(); i = next++) {
          const Request& req = wl.requests[todo[i].first];
          const std::uint64_t want =
              ScrubbedHash(req.verb, ExecLocal(&oracle, req.text).Dump());
          for (const std::uint64_t got : todo[i].second) {
            if (got != want) {
              ++bad;
              std::printf("MISMATCH %s\n", req.text.c_str());
            }
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    wrong += bad;
    std::printf("verify: %zu distinct reads checked against the oracle, %zu "
                "mismatched\n", todo.size(), bad.load());
  }

  // (2) Written datasets: the journal holds exactly the acknowledged writes,
  // the oracle replays them, and both answer a fixed query set alike.
  Metrics layer;
  double regroups = 0, checkpoints = 0;
  std::map<std::string, double> wal_seq, ds_ckpts;
  for (const onex::json::Value& row : quiet["datasets"].as_array()) {
    const std::string& name = row["name"].as_string();
    wal_seq[name] = row["wal_seq"].as_number();
    ds_ckpts[name] = row["checkpoints"].as_number();
    const std::string& tier = row["tier"].as_string();
    layer["engine.tier_resident"] += tier == "resident";
    layer["engine.tier_mapped"] += tier == "mapped";
  }
  Checker check{&control, &oracle};
  std::vector<double> extend_exec_ms;
  for (const std::string& ds : wl.Written()) {
    const double regroups_ds =
        ParseBody(*control.Call("DRIFT " + ds))["regroups_completed"].as_number();
    regroups += regroups_ds;
    const DatasetSpec& spec = wl.Spec(ds);
    const double setup_ckpts = spec.checkpoint ? 1 : 0;
    checkpoints += ds_ckpts[ds] - setup_ckpts;
    // GEN and PREPARE journal one record each; so does every acknowledged
    // write, regroup and checkpoint.
    const double setup_records = spec.prepare ? 2 : 1;
    const double expect = setup_records + static_cast<double>(acked_writes[ds]) + regroups_ds +
                          ds_ckpts[ds];
    if (wal_seq[ds] != expect) {
      ++wrong;
      std::printf("MISMATCH wal_seq of %s: %.0f, expected %.0f (%.0f setup + %zu "
                  "acked writes + %.0f regroups + %.0f checkpoints)\n",
                  ds.c_str(), wal_seq[ds], expect, setup_records, acked_writes[ds],
                  regroups_ds, ds_ckpts[ds]);
    }
  }
  std::printf("  written datasets: %.0f regroups, %.0f checkpoints\n", regroups,
              checkpoints);
  // Replay the acknowledged writes, in acknowledgement order, into the
  // oracle (one connection carries all writes, so that is also send order).
  // Alternate writes go through the executor and straight to
  // Engine::ExtendSeries — the same state change — which times both layers
  // on the same growing data.
  std::vector<double> extend_engine_ms;
  for (const StreamResult& r : results) {
    for (const LogEntry& e : r.log) {
      const Request& req = wl.requests[e.request];
      if (!req.write || e.failed || !e.t.completed()) continue;
      const auto x0 = Clock::now();
      if (extend_exec_ms.size() <= extend_engine_ms.size()) {
        onex::Result<onex::net::Command> cmd = onex::net::ParseCommandLine(req.text);
        cmd->payload = req.values;
        const onex::json::Value v = onex::net::ExecuteCommand(&oracle, *cmd);
        extend_exec_ms.push_back(Ms(Clock::now() - x0));
        if (!v["ok"].as_bool()) {
          ++wrong;
          std::printf("oracle replay of '%s' failed: %s\n", req.text.c_str(),
                      v.Dump().c_str());
        }
      } else {
        const auto res = oracle.ExtendSeries(req.dataset, req.series, req.values);
        extend_engine_ms.push_back(Ms(Clock::now() - x0));
        if (!res.ok()) {
          ++wrong;
          std::printf("oracle replay of '%s' failed: %s\n", req.text.c_str(),
                      res.status().ToString().c_str());
        }
      }
    }
  }
  std::mt19937_64 vrng(opt.seed * 7919 + 5);
  for (const std::string& ds : wl.Written()) {
    const DatasetSpec& spec = wl.Spec(ds);
    // Answers that depend only on the raw values the writes produced.
    check.Compare("STATS " + ds,
                  {"series", "total_points", "min_length", "max_length",
                   "subsequences"});
    check.Compare("CATALOG " + ds + " points=32");
    for (const std::size_t s : {std::size_t{0}, std::size_t{1}}) {
      if (!spec.prepare) break;  // normalized values exist once prepared
      check.Compare("CHANGEPOINT " + ds + " series=" + std::to_string(s) +
                    " last=64");
      check.Compare("FORECAST " + ds + " series=" + std::to_string(s) +
                    " method=seasonal period=8", {"values", "values_norm"});
    }
    // Group-dependent answers after both sides rebuild from those values
    // (regroup and checkpoint timing is the server's own business).
    check.Compare(spec.PrepareCommand(), {"groups", "subsequences"});
    check.Compare("CHECKPOINT " + ds, {"dataset"});
    for (int j = 0; j < 4; ++j) {
      const std::size_t series = Uniform(vrng, 0, static_cast<std::size_t>(spec.num) - 1);
      const std::size_t qlen = Uniform(vrng, 8, static_cast<std::size_t>(spec.maxlen));
      const std::size_t start = Uniform(vrng, 0, static_cast<std::size_t>(spec.len) - qlen);
      check.Compare("MATCH " + ds + " q=" + Ref(series, start, qlen));
      check.Compare("KNN " + ds + " q=" + Ref(series, start, qlen) + " k=3");
      check.Compare("FORECAST " + ds + " series=" + std::to_string(series));
    }
    check.Compare("ANOMALY " + ds + " length=" + std::to_string(spec.maxlen / 2) +
                  " top=5");
  }
  wrong += check.wrong;
  std::printf("verify: written datasets %zu, %zu post-run answers compared, "
              "%zu mismatched; %zu writes acked\n", wl.Written().size(),
              check.checked, check.wrong, writes_done);

  failed += wrong;
  const bool correct = wrong == 0 && failed == 0 && valid;
  e2e["error_frac"] = attempted == 0 ? 1.0
                      : static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("  error_frac=%.6f (failed or wrong %zu of %zu attempted)%s\n",
              e2e["error_frac"], failed, attempted, valid ? "" : " INVALID RUN");

  if (!opt.trace) {
    server->Stop();
    fs::remove_all(opt.workdir);
    PrintResult(correct, attempted, failed, e2e, kEndToEnd,
                sizeof(kEndToEnd) / sizeof(kEndToEnd[0]));
    return correct ? 0 : 1;
  }

  // ---- traced run: per-layer metrics ------------------------------------
  // net: server-side histograms and byte counters from METRICS.
  const onex::json::Value& verbs = server_metrics["verbs"];
  for (const char* v : {"MATCH", "KNN", "EXTEND"}) {
    layer[std::string("net.server_p50_ms.") + v] = verbs[v]["p50_ms"].as_number();
    layer[std::string("net.server_p99_ms.") + v] = verbs[v]["p99_ms"].as_number();
  }
  layer["net.bytes_out_per_req"] =
      server_metrics["bytes_out"].as_number() /
      std::max(1.0, server_metrics["requests"].as_number());
  const double client_match_p50 = Summarize(reads_by_verb["MATCH"]).p50;
  layer["net.wire_share"] =
      1.0 - layer["net.server_p50_ms.MATCH"] / client_match_p50;
  layer["engine.regroups"] = regroups;
  layer["engine.checkpoints"] = checkpoints;
  const double points = std::max<double>(1.0, static_cast<double>(points_acked));
  layer["engine.wal_bytes_per_point"] = dir_growth / points;
  // Everything the server wrote to storage on the way (fsync'd journal
  // pages, every checkpoint file including superseded and retried ones).
  layer["engine.storage_bytes_per_point"] =
      static_cast<double>(storage1 - storage0) / points;
  layer["core.build_s"] = setup.build_seconds;
  for (const char* k : {"client.read_p50_ms", "client.read_p99_ms",
                        "client.read_qps", "client.write_p50_ms",
                        "client.write_p99_ms"}) {
    layer[k] = e2e[k];
  }
  layer["gen.late_p99_ms"] = late.tail;
  const Summary ext = Summarize(extend_exec_ms);
  layer["protocol.execute_ms.EXTEND.p50"] = ext.p50;
  layer["protocol.execute_ms.EXTEND.tail"] = ext.tail;

  ReplayInput in;
  in.oracle = &oracle;
  in.requests = &wl.requests;
  for (const StreamResult& r : results) {
    for (const LogEntry& e : r.log) {
      if (e.traced && !wl.requests[e.request].write && e.t.completed() && !e.failed) {
        in.reads.push_back(&e);
      }
    }
  }
  for (const DatasetSpec& d : wl.datasets) in.kinds[d.name] = d.kind;
  std::mt19937_64 rrng(opt.seed * 7919 + 6);
  ReplayReadLayers(in, &rrng, &layer);
  layer["net.queue_wait_ms"] = layer["net.server_p50_ms.MATCH"] -
                               layer["protocol.execute_ms.MATCH.p50"];

  const Summary es = Summarize(extend_engine_ms);
  layer["engine.extend_ms.p50"] = es.p50;
  layer["engine.extend_ms.tail"] = es.tail;
  std::printf("  EXTEND in-process: protocol.execute p50=%.3fms p%.1f=%.3fms; "
              "Engine::ExtendSeries p50=%.3fms p%.1f=%.3fms\n", ext.p50,
              ext.tail_pct, ext.tail, es.p50, es.tail_pct, es.tail);

  // Client-side spans recorded for the traced requests.
  std::vector<Span> spans;
  for (const StreamResult& r : results) {
    for (const Span& s : r.trace.spans()) spans.push_back(s);
  }
  std::printf("  client spans of the traced requests: %zu\n", spans.size());
  for (const auto& [name, v] : SelfTimesByName(spans)) {
    const Summary s = Summarize(v);
    std::printf("  self %-18s n=%-5zu p50=%.4fms p%.1f=%.4fms\n", name.c_str(),
                s.n, s.p50, s.tail_pct, s.tail);
  }
  const Summary un = Summarize(reads_untraced);
  const Summary tr = Summarize(reads_traced);
  layer["trace.overhead_ms"] = tr.p50 - un.p50;
  std::printf("  tracing overhead: read p50 traced %.4fms - untraced %.4fms = "
              "%.4fms\n", tr.p50, un.p50, tr.p50 - un.p50);

  server->Stop();
  fs::remove_all(opt.workdir);
  const bool traced_correct = correct && wrong == 0;
  PrintResult(traced_correct, attempted, failed, layer, kPerLayer,
              sizeof(kPerLayer) / sizeof(kPerLayer[0]));
  return traced_correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Options opt;
  if (!servebench::ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload explore|ingest|dashboard "
                 "--seed N --seconds S --trace 0|1 --onexd PATH --workdir DIR\n");
    return 2;
  }
  return servebench::Run(opt);
}
