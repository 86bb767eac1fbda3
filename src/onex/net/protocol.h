#ifndef ONEX_NET_PROTOCOL_H_
#define ONEX_NET_PROTOCOL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "onex/common/result.h"
#include "onex/engine/engine.h"
#include "onex/json/json.h"

namespace onex::net {

/// The wire protocol the ONEX server speaks: one command per line, one JSON
/// response per line — the minimal stand-in for the demo's HTTP/JSON web
/// API. Commands are a verb, positional arguments and key=value options.
///
/// One server session serves a whole dashboard of datasets: every
/// dataset-scoped verb resolves its target from (in priority order) a
/// positional name, a `dataset=<name>` option, or the session's current
/// dataset as set by USE (DESIGN.md §11). The persistence pair
/// (SAVEBASE/LOADBASE) is the exception: both name a dataset *and* a file,
/// so both arguments stay positional.
///
///   PING
///   LIST                                             names only
///   DATASETS                                         per-slot detail: series,
///                                                    prepared flag, tier,
///                                                    base bytes, LRU budget
///   USE <name>|name=<name>                           session default dataset
///   BUDGET [bytes=N]                                 get/set prepared-base
///                                                    LRU byte budget (0 = off)
///       An evicted base serves from its mmap'd checkpoint, so bytes=N > 0
///       needs durability (PERSIST or onexd --data-dir); FailedPrecondition
///       otherwise.
///   TIER [<name>] [pin=0|1] [demote=1]               serving-tier control
///       Reports the slot's tier (resident|mapped|raw, DESIGN.md
///       §17) plus pinned/mapped_bytes. pin=1 exempts the slot from LRU
///       eviction and downgrade; demote=1 swaps a clean checkpointed base
///       for its mmap'd arena now (FailedPrecondition if the WAL is dirty
///       or durability is off).
///   GEN <name> <kind> [num=50] [len=100] [seed=42]   kind: walk|sine|shapes|
///                                                    electricity|economic
///   LOAD <name> <path> | LOAD name=<n> path=<p>      UCR-format file
///   DROP <name>|name=<name>
///   PREPARE [st=0.2] [minlen=4] [maxlen=0] [lenstep=1] [stride=1]
///           [norm=minmax-dataset] [policy=running-mean] [threads=1]
///   APPEND v=<v1,v2,...> [series=appended]           incremental insert
///   EXTEND series=<idx|name> points=<v1,v2,...>      streaming point-append
///       Appends points (original units) to an existing series; the tail is
///       normalized with the frozen dataset parameters and only the new
///       subsequences join the base (DESIGN.md §12). Reports the per-class
///       drift the write caused and whether a background regroup of the
///       drifted classes was scheduled.
///   DRIFT [threshold=f]                              maintenance report
///       Per-length-class drift of the prepared base (members beyond ST/2
///       of their centroid), the regroup trigger threshold, and whether a
///       regroup is in flight. threshold= sets the registry-wide trigger
///       (0 disables), like BUDGET sets the LRU budget.
///   SAVEBASE <name> <path>                           persist prepared state
///       Writes the prepared dataset as an ONEXARENA checkpoint file
///       (temp file plus rename: a failed write leaves nothing at <path>).
///   LOADBASE <name> <path>                           restore prepared state
///       Reads an ONEXARENA file (a SAVEBASE output or a checkpoint) into a
///       new resident slot, bit-identical to the saved state.
///   PERSIST [dir=<path>] [every=<records>] [fsync=0|1]
///       Durability control (DESIGN.md §13). With dir=, enables the
///       write-ahead journal rooted there: existing journals are recovered
///       (replayed bit-identically) and every later acknowledged mutation
///       is journaled before it is acknowledged. every= sets the
///       background checkpoint threshold (records since the last
///       checkpoint; 0 = manual only). Without dir=, reports the current
///       durability state. Enabling twice, or on an engine that holds any
///       dataset, is FailedPrecondition (durability starts at a dataset's
///       birth).
///   CHECKPOINT [<name>|dataset=<name>]               checkpoint a slot now
///       Folds the slot's journal into a fresh ONEXARENA checkpoint file
///       and restarts its WAL. The file stores the live snapshot exactly,
///       so recovery from it is bit-exact and the slot is left as it is (a
///       mapped slot stays mapped). Reports the captured log position and
///       file size.
///   STATS
///   CATALOG [points=24]                              series list + previews
///   OVERVIEW [length=0] [top=12]
///   MATCH q=<series>:<start>:<len> [window=-1] [topgroups=1]
///         [exhaustive=0] [deadline_ms=0]
///   KNN q=<series>:<start>:<len> [k=3] [window=-1] [exhaustive=0]
///       [deadline_ms=0]
///   BATCH q=<s>:<st>:<len>[;<s>:<st>:<len>...] [k=1] [window=-1]
///         [topgroups=1] [exhaustive=0] [deadline_ms=0]
///       Executes every query in one round-trip, fanned across the engine's
///       task pool (a dashboard refreshing its linked views issues one
///       BATCH instead of N MATCHes). Responds with results in query order:
///       {"ok":true,"results":[{"matches":[...]}, ...]}.
///   SEASONAL series=<idx> [length=0] [minocc=2] [top=5]
///   THRESHOLD [pairs=2000] [minlen=4] [maxlen=0]
///   ANOMALY [length=0] [top=10] [eps=0] [minpts=2] [deadline_ms=0]
///       Scores every member of the selected length class(es) by its exact
///       distance to the nearest centroid and flags outliers with the
///       DBSCAN-style rule (no centroid within eps heading a group of
///       >= minpts members). eps=0 uses the base's ST/2. Reports the top
///       findings plus the per-class drift view (DESIGN.md §18).
///   CHANGEPOINT series=<idx|name> [hazard=0.01] [maxrun=256]
///               [threshold=0.5] [last=0] [probs=0] [deadline_ms=0]
///       Bayesian online changepoint detection over the series' normalized
///       values (last= restricts to the streamed tail). Reports steps whose
///       new-regime posterior exceeds threshold=, the final MAP run length,
///       and the truncation error bound; probs=1 adds the full per-step
///       probability array.
///   MOTIF [length=0] [top=5] [discords=3] [deadline_ms=0]
///       Per length class: the densest groups (the motifs as the group
///       structure sees them), the exact closest non-overlapping pair, and
///       the exact loneliest members (discords), via admissible
///       centroid-distance pruning.
///   FORECAST series=<idx|name> [horizon=8] [length=0] [k=3]
///            [method=group|seasonal] [period=0] [deadline_ms=0]
///       Predicts horizon= points past the series' end. method=group
///       averages the continuations of the k exact nearest same-length
///       members; method=seasonal repeats the last period= points. Values
///       are reported in original units ("values") and normalized units
///       ("values_norm"); binary clients additionally receive the raw
///       forecast as the frame's float64 section.
///   QUIT
///
/// MATCH/KNN/BATCH also accept datasets=<a,b,c> in place of a single
/// dataset: the query runs against every named dataset (q= resolves within
/// each dataset independently) and the per-dataset top-k lists are merged
/// in the deterministic order of cluster_merge.h — ascending
/// normalized_dtw, ties by (dataset, series, start, length). Each merged
/// match carries a "dataset" field; stats are summed in the given dataset
/// order; the first dataset to fail, in that order, answers for the whole
/// request. A BATCH over the combined volume cap (queries x datasets x k)
/// is refused before any dataset runs. A single node and the cluster
/// coordinator run the same per-dataset command and the same merge
/// (cluster_merge.h), the node in process and the coordinator on each
/// dataset's owner, so a cluster answers bitwise equal to a single node
/// holding all the data.
///
/// Replication verbs (DESIGN.md §16; spoken between cluster nodes over the
/// ONEXB frame, not meant for interactive use):
///
///   REPLHELLO dataset=<name>           replica's journal floor for a slot
///   REPLAPPLY dataset=<n> first=<seq> count=<k> crc=<fnv64hex>  + blob
///       Applies a checksummed batch of the primary's WAL lines (carried
///       after the first '\n' of the frame text). The response is the ack:
///       {"ok":true,"last_seq":<floor>}. Corrupt, truncated, reordered or
///       non-contiguous batches install nothing.
///   REPLSTATUS                         all journal floors of this node
///   CLUSTER                            cluster topology/health (single-node
///                                      servers answer {"enabled":false})
///
/// `deadline_ms=` (MATCH/KNN/BATCH) bounds wall time from request *arrival*
/// (queue time included): the cancellation token is polled between cascade
/// stages and an expired query answers {"ok":false,"code":
/// "DeadlineExceeded"} instead of holding its connection's pipeline.
///
/// The reactor front end (reactor.h) serves two verbs itself — BIN, which
/// upgrades a connection to the ONEXB binary frame (frame.h), and METRICS,
/// which reports serving statistics. They concern a *connection* and a
/// *server*, which this executor deliberately knows nothing about, so their
/// VerbSpec rows carry no handler and ExecuteCommand answers them as unknown
/// commands.
///
/// Responses: {"ok":true, ...payload...} or {"ok":false,"error":"...",
/// "code":"..."} — always a single line. Size-driving options (GEN
/// num/len, CATALOG points, KNN/BATCH k, THRESHOLD pairs, ANOMALY/MOTIF
/// top/minpts/discords, CHANGEPOINT maxrun, FORECAST horizon) are capped so
/// a malformed or hostile frame cannot make the server allocate unbounded
/// memory; the caps are far above anything the line protocol can usefully
/// carry and surface as InvalidArgument. Numeric option values and binary
/// value payloads must be finite: "nan"/"inf" tokens and NaN/Inf float64s
/// are rejected at parse time (InvalidArgument) before they can poison
/// distance comparisons downstream.
/// The largest k a KNN, BATCH or FORECAST may ask for, and the most queries
/// one BATCH frame may carry. A BATCH answers at most kMaxKnnK matches in
/// all: queries x k, times the datasets of a datasets= fan-out.
inline constexpr long long kMaxKnnK = 100'000;
inline constexpr std::size_t kMaxBatchSpecs = 1024;

struct Command {
  std::string verb;  ///< Upper-cased.
  std::vector<std::string> args;
  std::map<std::string, std::string> options;
  /// Raw float64 payload from a binary frame (frame.h). APPEND and EXTEND
  /// consume it in place of v=/points= when those options are absent, so a
  /// binary client ships bulk points without ASCII round-trips. Empty for
  /// text-protocol commands.
  std::vector<double> payload;
  /// Everything after the first '\n' of a binary frame's text section: the
  /// replication layer ships raw WAL lines here (REPLAPPLY), outside the
  /// tokenizer so arbitrary journal bytes never fight the k=v grammar. The
  /// text protocol is line-delimited and therefore can never produce a
  /// blob; REPLAPPLY over text is rejected for exactly that reason.
  std::string blob;
};

/// Per-connection protocol state: the current dataset selected with USE.
struct Session {
  std::string dataset;
};

/// Splits a protocol line; ParseError on empty input or malformed k=v.
Result<Command> ParseCommandLine(const std::string& line);

struct VerbSpec;

/// Serving-layer context threaded into one command execution. The plain
/// ExecuteCommand overloads pass defaults, so in-process callers are
/// unaffected; the reactor fills it in per request.
struct ExecContext {
  /// When the request came off the wire; deadline_ms counts from here, so a
  /// request that sat queued behind a deep pipeline pays for the wait.
  std::chrono::steady_clock::time_point arrival =
      std::chrono::steady_clock::now();
  /// Connection-level kill switch (set on disconnect); owned by the caller
  /// and must outlive the execution.
  const std::atomic<bool>* disconnected = nullptr;
  /// When non-null, MATCH/KNN/BATCH append each match's normalized values
  /// here (concatenated in match order) for the binary response's raw
  /// float64 section. The JSON body is byte-identical either way.
  std::vector<double>* out_values = nullptr;
  /// Cluster-mode routing (DESIGN.md §16): when non-null, ExecuteCommand
  /// hands the command to the coordinator, which either forwards it to the
  /// owning shard or re-enters the executor locally with this pointer
  /// cleared. Single-node servers leave it null and nothing changes.
  class ClusterNode* cluster = nullptr;
  /// The command's verb-table row, when the caller already looked it up
  /// (the reactor does, once per request). Null: ExecuteCommand looks it up.
  const VerbSpec* verb = nullptr;
};

/// How a verb interacts with its connection's pipeline (reactor.h).
enum class ExecClass : std::uint8_t {
  kInline,    ///< Answered on the reactor thread, after everything before it.
  kReadOnly,  ///< Reads only: concurrent with its neighbours on binary links.
  kMutator,   ///< Writes the engine or the session: a barrier, runs alone.
};

/// Where a cluster coordinator sends a verb (cluster.h, DESIGN.md §16).
enum class ClusterRoute : std::uint8_t {
  kLocal,    ///< Answered by the node that received it.
  kOwner,    ///< Forwarded to its dataset's owner; owner-routed mutators
             ///< reach the journal and replicate before the ack.
  kSelect,   ///< USE: the owner validates the name, the coordinator's
             ///< session adopts it.
  kScatter,  ///< Asked of every live node; per-dataset rows merged.
  kBlocked,  ///< Node-local state: FailedPrecondition in cluster mode.
  kStatus,   ///< CLUSTER: the coordinator's own topology report.
};

/// One verb's handler, run with the engine, the caller's session, the
/// command and its serving context.
using VerbHandler = Result<json::Value> (*)(Engine*, Session*, const Command&,
                                            const ExecContext&);

/// How a verb finds the dataset it acts on. The executor and the cluster
/// coordinator call the same function, so a command is routed to exactly
/// the dataset its owner will act on.
using DatasetResolver = Result<std::string> (*)(const Command&,
                                                const Session&);

/// Everything the serving layers know about one verb: the executor calls
/// its handler, the reactor pipelines it by its class, the coordinator
/// routes it, and METRICS counts it in the slot at its table index.
struct VerbSpec {
  std::string_view name;
  VerbHandler handler;      ///< Null: served by the reactor (BIN, METRICS).
  ExecClass exec;
  ClusterRoute route;
  DatasetResolver dataset;  ///< Null: the verb names no single dataset.
};

/// Rows in the verb table. METRICS has one slot per row plus a final
/// "OTHER" slot (index kNumVerbs) for names not in the table.
inline constexpr std::size_t kNumVerbs = 36;

/// The verb table, in protocol order.
std::span<const VerbSpec> Verbs();

/// The row for an upper-cased verb, or null for names not in the table.
const VerbSpec* FindVerb(std::string_view verb);

/// METRICS slot of a row returned by FindVerb; kNumVerbs for null.
std::size_t VerbSlot(const VerbSpec* spec);

/// Runs one command against the engine, reading and updating the session's
/// current dataset. Never fails — errors become {"ok":false,...} payloads,
/// so one bad command cannot kill a session.
json::Value ExecuteCommand(Engine* engine, Session* session,
                           const Command& command);

/// Full-context form used by the reactor (deadlines, disconnect
/// cancellation, binary value payloads).
json::Value ExecuteCommand(Engine* engine, Session* session,
                           const Command& command, const ExecContext& context);

/// Session-less convenience (in-process callers, tests): every command must
/// carry its dataset explicitly.
json::Value ExecuteCommand(Engine* engine, const Command& command);

/// Serializes a response (single line + '\n').
std::string FormatResponse(const json::Value& response);

/// Convenience: error payload with a status.
json::Value ErrorResponse(const Status& status);

}  // namespace onex::net

#endif  // ONEX_NET_PROTOCOL_H_
