#ifndef ONEX_NET_CLUSTER_MERGE_H_
#define ONEX_NET_CLUSTER_MERGE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "onex/common/result.h"
#include "onex/json/json.h"
#include "onex/net/client.h"
#include "onex/net/protocol.h"

namespace onex::net {

/// The `datasets=` fan-out of MATCH/KNN/BATCH (DESIGN.md §16), shared by a
/// single node and the cluster coordinator. PlanFanOut turns the request
/// into one single-dataset shard command; the caller runs it once per
/// dataset — a single node in process, the coordinator on each dataset's
/// owner — and hands the per-dataset responses to MergeFanOut. A single
/// node is thus the one-node cluster: both build the same candidates and
/// run the same ordering, so a cluster answer is bitwise equal to a single
/// node's, whichever shard answered first, however datasets were assigned
/// to nodes, and however threads were scheduled.

/// One candidate match from one dataset. `match` is the per-match response
/// object (MatchToJson shape) with a "dataset" field added; `values` is the
/// side-band normalized subsequence for binary clients, carried alongside so
/// the merged value stream lines up with the merged match order.
struct ShardMatch {
  std::string dataset;
  json::Value match;
  std::vector<double> values;
};

/// Strict weak order over candidates: ascending normalized_dtw, ties broken
/// by (dataset, series, start, length). Distance ties are real — symmetric
/// generators and repeated series produce exactly-equal doubles — and without
/// the structural tie-break the merged order would depend on shard
/// assignment. The keys are read from the match JSON itself, the bytes every
/// shard response carries.
bool ShardMatchBefore(const ShardMatch& a, const ShardMatch& b);

/// Stable-sorts `candidates` with ShardMatchBefore and truncates to `k`.
/// Stability keeps engine-produced within-dataset order for fully equal keys.
void MergeTopK(std::vector<ShardMatch>* candidates, std::size_t k);

/// Field-wise sum of cascade stats objects (StatsToJson shape): every numeric
/// field of `stats` is added into `*total`, missing fields start at zero.
/// The merge accumulates in user-given dataset order (double addition is
/// order-sensitive; these are counters, but the discipline keeps the
/// contract exact).
void AccumulateStats(json::Value* total, const json::Value& stats);

/// Parses a `datasets=a,b,c` option value: comma-separated, order-preserving.
/// Empty entries and duplicates are InvalidArgument — a duplicate would
/// double-count stats and return the same subsequences twice.
Result<std::vector<std::string>> ParseDatasetsOption(const std::string& value);

/// What a fan-out asks of each dataset.
struct FanOut {
  std::vector<std::string> names;  ///< User order.
  /// The single-dataset form of the request, without a dataset: MATCH
  /// becomes KNN k=1 (so the merge sees uniform k-lists), BATCH stays
  /// BATCH, and datasets=, dataset= and fwd= are dropped. The runner adds
  /// dataset=<name>.
  Command shard;
};

/// Parses datasets= and builds the shard command. A BATCH whose combined
/// volume (queries x datasets x k) passes kMaxKnnK is refused here, before
/// any dataset runs: each shard only sees queries x k. A k or q= the cap
/// cannot read is left to the shards, whose own error then answers.
Result<FanOut> PlanFanOut(const Command& cmd);

/// The one merge. `answers[i]` is dataset `names[i]`'s response to the
/// shard command, body plus float64 values section. `answers` may end at
/// the first error. The first error in user order is the answer. Otherwise
/// the candidates merge with MergeTopK per query, stats are summed with
/// AccumulateStats, each match's values are sliced by its "length", and the
/// response takes `cmd`'s shape: MATCH's single match (NotFound when no
/// dataset has one), KNN's match list or BATCH's per-query lists. Merged
/// values are appended to `out_values` when it is non-null.
json::Value MergeFanOut(const Command& cmd,
                        const std::vector<std::string>& names,
                        const std::vector<WireResponse>& answers,
                        std::vector<double>* out_values);

}  // namespace onex::net

#endif  // ONEX_NET_CLUSTER_MERGE_H_
