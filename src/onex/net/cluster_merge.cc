#include "onex/net/cluster_merge.h"

#include <algorithm>
#include <set>
#include <utility>

#include "onex/common/string_utils.h"

namespace onex::net {

namespace {

double NumberKey(const json::Value& match, const std::string& field) {
  return match[field].as_number();
}

/// One query's candidates and summed stats across every dataset.
struct MergedQuery {
  std::vector<ShardMatch> cands;
  json::Value stats = json::Value::MakeObject();
  bool has_stats = false;

  /// Adds one dataset's entry ({"matches", "stats"}), cutting each match's
  /// values out of the response's float64 section at `*cursor`.
  void Absorb(const std::string& dataset, const json::Value& entry,
              const std::vector<double>& values, std::size_t* cursor) {
    for (const json::Value& m : entry["matches"].as_array()) {
      ShardMatch c;
      c.dataset = dataset;
      c.match = m;
      c.match.Set("dataset", dataset);
      const std::size_t begin = std::min(*cursor, values.size());
      const std::size_t end = std::min(
          begin + static_cast<std::size_t>(m["length"].as_number()),
          values.size());
      c.values.assign(values.begin() + static_cast<std::ptrdiff_t>(begin),
                      values.begin() + static_cast<std::ptrdiff_t>(end));
      *cursor = end;
      cands.push_back(std::move(c));
    }
    if (entry["matches"].as_array().empty()) return;
    AccumulateStats(&stats, entry["stats"]);
    has_stats = true;
  }

  /// {"matches", "stats"} of the top k, their values appended in order.
  json::Value Finish(std::size_t k, std::vector<double>* out_values) {
    MergeTopK(&cands, k);
    json::Value arr = json::Value::MakeArray();
    for (const ShardMatch& c : cands) {
      arr.Append(c.match);
      if (out_values != nullptr) {
        out_values->insert(out_values->end(), c.values.begin(), c.values.end());
      }
    }
    json::Value entry = json::Value::MakeObject();
    entry.Set("matches", std::move(arr));
    if (has_stats) entry.Set("stats", std::move(stats));
    return entry;
  }
};

}  // namespace

bool ShardMatchBefore(const ShardMatch& a, const ShardMatch& b) {
  const double da = NumberKey(a.match, "normalized_dtw");
  const double db = NumberKey(b.match, "normalized_dtw");
  if (da != db) return da < db;
  if (a.dataset != b.dataset) return a.dataset < b.dataset;
  const double sa = NumberKey(a.match, "series");
  const double sb = NumberKey(b.match, "series");
  if (sa != sb) return sa < sb;
  const double oa = NumberKey(a.match, "start");
  const double ob = NumberKey(b.match, "start");
  if (oa != ob) return oa < ob;
  return NumberKey(a.match, "length") < NumberKey(b.match, "length");
}

void MergeTopK(std::vector<ShardMatch>* candidates, std::size_t k) {
  std::stable_sort(candidates->begin(), candidates->end(), ShardMatchBefore);
  if (candidates->size() > k) candidates->resize(k);
}

void AccumulateStats(json::Value* total, const json::Value& stats) {
  if (!stats.is_object()) return;
  for (const auto& [key, value] : stats.as_object()) {
    if (!value.is_number()) continue;
    (*total).Set(key, (*total)[key].as_number() + value.as_number());
  }
}

Result<std::vector<std::string>> ParseDatasetsOption(std::string_view value) {
  std::vector<std::string> names;
  std::set<std::string> seen;
  for (const std::string& part : SplitKeepEmpty(value, ',')) {
    const std::string name(TrimString(part));
    if (name.empty()) {
      return Status::InvalidArgument(
          "datasets= entries must be non-empty names");
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("datasets= lists '" + name + "' twice");
    }
    names.push_back(name);
  }
  if (names.empty()) {
    return Status::InvalidArgument("datasets= names at least one dataset");
  }
  return names;
}

Result<FanOut> PlanFanOut(const Command& cmd, const CheckedOptions& opt) {
  FanOut plan;
  ONEX_ASSIGN_OR_RETURN(plan.names, ParseDatasetsOption(opt.Text("datasets")));
  plan.k = cmd.verb == "MATCH" ? 1 : opt.Size("k");
  if (cmd.verb == "BATCH" && opt.Has("q")) {
    // A spec count over its own cap is left to the shards' error.
    const std::size_t specs = SplitKeepEmpty(opt.Text("q"), ';').size();
    if (specs <= kMaxBatchSpecs &&
        static_cast<long long>(specs * plan.names.size() * plan.k) >
            kMaxKnnK) {
      return Status::InvalidArgument(StrFormat(
          "BATCH result volume (queries x datasets x k) is capped at %lld",
          kMaxKnnK));
    }
  }
  plan.shard.verb = cmd.verb == "BATCH" ? "BATCH" : "KNN";
  plan.shard.options = cmd.options;
  for (const char* key : {"datasets", "dataset", "fwd"}) {
    plan.shard.options.erase(key);
  }
  if (cmd.verb == "MATCH") plan.shard.options["k"] = "1";
  plan.shard.payload = cmd.payload;
  return plan;
}

json::Value MergeFanOut(const Command& cmd, const FanOut& plan,
                        const std::vector<WireResponse>& answers,
                        std::vector<double>* out_values) {
  // A dataset's rejection wins in user order, where a one-at-a-time run
  // stops.
  for (const WireResponse& r : answers) {
    if (!r.body["ok"].as_bool()) return r.body;
  }
  const bool batch = cmd.verb == "BATCH";
  std::vector<MergedQuery> queries;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const WireResponse& r = answers[i];
    // A KNN body is one entry; a BATCH body holds one per query.
    const json::Value::Array single{r.body};
    const json::Value::Array& entries =
        batch ? r.body["results"].as_array() : single;
    if (queries.size() < entries.size()) queries.resize(entries.size());
    std::size_t cursor = 0;
    for (std::size_t qi = 0; qi < entries.size(); ++qi) {
      queries[qi].Absorb(plan.names[i], entries[qi], r.values, &cursor);
    }
  }

  const std::size_t k = plan.k;
  json::Value v = json::Value::MakeObject();
  if (batch) {
    json::Value results = json::Value::MakeArray();
    for (MergedQuery& q : queries) results.Append(q.Finish(k, out_values));
    v.Set("results", std::move(results));
  } else if (cmd.verb == "KNN") {
    v = queries[0].Finish(k, out_values);
  } else {
    // MATCH: the best match, with the stats of every dataset that had one.
    if (queries[0].cands.empty()) {
      return ErrorResponse(
          Status::NotFound("no match in any of the named datasets"));
    }
    const json::Value entry = queries[0].Finish(1, out_values);
    v.Set("match", entry["matches"][0]);
    v.Set("stats", entry["stats"]);
  }
  v.Set("ok", true);
  return v;
}

}  // namespace onex::net
