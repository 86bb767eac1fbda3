#ifndef ONEX_NET_CLUSTER_H_
#define ONEX_NET_CLUSTER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "onex/common/result.h"
#include "onex/engine/engine.h"
#include "onex/json/json.h"
#include "onex/net/client.h"
#include "onex/net/protocol.h"
#include "onex/net/replication.h"

namespace onex::net {

/// Cluster coordinator (DESIGN.md §16). Every node runs one: datasets are
/// assigned to nodes by rendezvous (HRW) hashing, each node serves the
/// datasets it owns, forwards everything else to the owner over pooled
/// pipelined binary connections, and ships every local WAL append to every
/// peer through a ReplicationHub — full replication (R = N-1), so any
/// survivor holds a bit-identical copy of every acked write and can be
/// promoted.
///
/// Clients connect to ANY node with the unchanged text or ONEXB protocol;
/// the node they happen to reach is their coordinator. Forwarded commands
/// carry `fwd=1`, which pins execution to the receiving node — routing
/// decisions are made exactly once, by the coordinator that took the
/// request, so two nodes with divergent liveness views can never bounce a
/// command between each other. The pin applies to routed verbs only; a
/// verb the cluster blocks stays blocked with it.
///
/// Failure model: a node failure is detected by a transport error on a
/// forward (or a CLUSTER health probe). The failed node is marked dead for
/// good, its pooled connections are dropped, and each of its datasets is
/// re-owned: the most-caught-up live replica wins (max journal floor via
/// REPLSTATUS; ties break by HRW weight, then node index), recorded as an
/// explicit promotion override. Idempotent reads that were in flight are
/// retried against the new owner using SendMany's per-request completion
/// map; writes are never silently retried — a write that raced the crash
/// reports a structured error, because the coordinator cannot know whether
/// the dead primary applied it.
///
/// In cluster mode the durability knobs are not client-reachable: PERSIST,
/// CHECKPOINT, BUDGET, DROP, SAVEBASE and LOADBASE answer
/// FailedPrecondition. Checkpointing must stay disabled on cluster nodes —
/// replica catch-up replays the primary's WAL file from seq 1, which a
/// rotation would truncate (replication.h).
class ClusterNode {
 public:
  struct Options {
    /// Every node's "host:port", identically ordered on every node; the
    /// index in this list is the node id the hash ring uses.
    std::vector<std::string> nodes;
    /// This node's index into `nodes`.
    std::size_t self = 0;
    /// Replication ack timeout (ReplicationHub::Options::ack_timeout).
    std::chrono::milliseconds ack_timeout{5000};
  };

  /// The engine must outlive the node; ownership is not taken. Construct
  /// after the engine recovered and before the server starts serving: the
  /// replication hub is built here, and its WAL sink must see every append.
  ClusterNode(Engine* engine, Options options);
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Checks the node list and starts the hub's link threads. Call once the
  /// server's listener is up.
  Status Start();
  void Stop();

  /// The routing entry point, invoked by ExecuteCommand when the serving
  /// layer set ExecContext::cluster. Returns the response payload (errors
  /// included, like ExecuteCommand itself).
  json::Value Execute(Engine* engine, Session* session, const Command& command,
                      const ExecContext& ctx);

  /// HRW owner of `dataset` among live nodes, honoring promotion
  /// overrides; SIZE_MAX when no node is alive. Exposed for tests.
  std::size_t OwnerOf(const std::string& dataset) const;

  /// Rendezvous weight of (dataset, node) — FNV-1a over "name#index".
  /// Every node computes the same weights, so ownership needs no
  /// coordination. Exposed for tests.
  static std::uint64_t HrwWeight(const std::string& dataset,
                                 std::size_t node_index);

 private:
  static constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

  std::size_t OwnerOfLocked(const std::string& dataset) const;
  bool IsAlive(std::size_t node) const;

  /// Pooled binary connection management. Acquire pops an idle connection
  /// or dials a new one; Release returns it. Connections to a node marked
  /// dead are refused/discarded.
  Result<std::unique_ptr<OnexClient>> Acquire(std::size_t node);
  void Release(std::size_t node, std::unique_ptr<OnexClient> client);
  /// One request/response against a node through the pool.
  Result<WireResponse> CallNode(std::size_t node, const WireRequest& request);

  /// Marks a node dead for routing and replication: drops its pooled
  /// connections and its hub link. False when it already was dead.
  bool MarkNodeDead(std::size_t node);
  /// Marks a node dead and promotes its datasets.
  void HandleNodeFailure(std::size_t node);

  /// Local execution with the cluster pointer cleared; local primary
  /// mutations additionally wait for every live peer's replication ack
  /// before the response (sync replication — the ack floor IS the
  /// promotion guarantee).
  json::Value ExecuteLocal(Engine* engine, Session* session,
                           const Command& cmd, const ExecContext& ctx);
  WireResponse ExecuteLocalWire(Engine* engine, const WireRequest& request,
                                const ExecContext& ctx);

  /// Routes one dataset-scoped command to its owner (local or forwarded).
  json::Value RouteSingle(Engine* engine, Session* session,
                          const std::string& dataset, const Command& cmd,
                          const ExecContext& ctx);

  /// Runs one prepared request per dataset against the owning shards —
  /// grouped per owner, pipelined with SendManyTracked, incomplete
  /// requests retried on promoted owners after a failure. Results align
  /// with `names`.
  Result<std::vector<WireResponse>> ScatterPerDataset(
      Engine* engine, const std::vector<std::string>& names,
      const std::vector<WireRequest>& requests, const ExecContext& ctx);

  /// datasets= fan-out for MATCH/KNN/BATCH: PlanFanOut's shard command,
  /// forwarded to each dataset's owner, then MergeFanOut — the merge a
  /// single node runs on its own answers (cluster_merge.h).
  json::Value ScatterMulti(Engine* engine, const Command& cmd,
                           const ExecContext& ctx);

  /// LIST/DATASETS: ask every live node, merge the per-dataset rows.
  json::Value Scatter(Engine* engine, const Command& cmd,
                      const ExecContext& ctx);
  /// CLUSTER verb: probe every node (dead ones get promoted away) and
  /// report topology, overrides and replication floors.
  json::Value StatusReport(Engine* engine);

  Engine* engine_;
  Options options_;
  /// Fixed for the node's life, so the serving threads read it unlocked.
  ReplicationHub hub_;

  mutable std::mutex mutex_;  ///< Guards alive_ and overrides_.
  std::vector<bool> alive_;
  /// Promotion overrides: dataset → node that holds the longest acked log.
  std::map<std::string, std::size_t> overrides_;

  std::mutex pool_mutex_;  ///< Guards pools_.
  std::vector<std::vector<std::unique_ptr<OnexClient>>> pools_;

  std::mutex promotion_mutex_;  ///< Serializes HandleNodeFailure sweeps.
};

}  // namespace onex::net

#endif  // ONEX_NET_CLUSTER_H_
