#ifndef ONEX_NET_REPLICATION_H_
#define ONEX_NET_REPLICATION_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "onex/common/result.h"
#include "onex/engine/engine.h"
#include "onex/engine/wal.h"
#include "onex/json/json.h"

namespace onex::net {

/// WAL shipping between cluster nodes (DESIGN.md §16). The unit on the wire
/// is the WAL line itself — the exact bytes the primary journaled, batched
/// and guarded by a batch checksum — so a replica that applies an acked
/// batch holds a byte-identical log prefix and, through the same
/// snapshot_ops writers recovery uses, a bit-identical snapshot.
///
/// The protocol rides the existing ONEXB frame as three verbs:
///
///   REPLHELLO dataset=<name>
///     → {"ok":true,"dataset":...,"last_seq":<replica's journal floor>}
///   REPLAPPLY dataset=<name> first=<seq> count=<n> crc=<fnv64 hex>
///     (frame text carries the concatenated WAL lines after the first '\n')
///     → {"ok":true,"dataset":...,"last_seq":<new floor>}
///   REPLSTATUS
///     → {"ok":true,"datasets":{<name>:<floor>,...}}
///
/// The REPLAPPLY response IS the ack: a primary's floor for a peer advances
/// only on a decoded {"ok":true}. Any structured error tells the shipper to
/// fall back to catch-up from its own WAL file ("resubscribe"); nothing is
/// ever installed from a batch that fails its checksum, decoding, or
/// sequence contiguity.

/// Formats the REPLAPPLY frame text: the command line, then '\n', then the
/// blob of concatenated encoded WAL lines. `lines` must each be the full
/// EncodeWalRecord output (trailing newline included) in ascending seq
/// order starting at `first_seq`.
std::string EncodeReplApplyText(const std::string& dataset,
                                std::uint64_t first_seq,
                                const std::vector<std::string>& lines);

/// Validates and decodes a shipped batch: the blob checksum must equal
/// `crc`, the blob must be `count` whole newline-terminated WAL lines, each
/// line must decode (its own per-record checksum included), and the
/// sequence numbers must run first_seq, first_seq+1, ... contiguously.
/// Any violation is a structured error and no records are returned.
Result<std::vector<WalRecord>> DecodeWalBatchBlob(std::string_view blob,
                                                  std::uint64_t crc,
                                                  std::uint64_t first_seq,
                                                  std::uint64_t count);

/// Splits a cluster node's "host:port"; InvalidArgument unless both parts
/// are present and the port is 1..65535.
Result<std::pair<std::string, std::uint16_t>> SplitHostPort(
    const std::string& endpoint);

/// Primary-side shipper: one background link per peer, fed by the
/// registry's WalSink. Each link lazily subscribes per dataset (REPLHELLO),
/// catches a behind replica up from the local WAL file, then streams live
/// records in batches and tracks the peer's ack floor. A link that fails —
/// transport error, rejected batch, or an ack timeout observed by
/// AwaitReplication — is dead for good (fail-stop): promotion safety comes
/// from never acknowledging a write as replicated to a peer that might not
/// have it.
class ReplicationHub {
 public:
  struct Options {
    /// Peer endpoints, "host:port". The hub ships every local primary
    /// append to every peer (full replication — R = N-1; the right trade
    /// at the 3-node scale this targets, and what makes any survivor a
    /// promotion candidate).
    std::vector<std::string> peers;
    /// How long a mutator waits for every live peer's ack before the slow
    /// peer is declared dead and the write proceeds without it.
    std::chrono::milliseconds ack_timeout{5000};
    /// Delay between connect attempts while a peer has not yet come up.
    std::chrono::milliseconds connect_backoff{100};
    /// Max records per REPLAPPLY batch.
    std::size_t batch_records = 64;
  };

  /// Installs the WalSink and queues a catch-up of every dataset the engine
  /// holds now. Construct before the node starts serving, so no append can
  /// slip past the sink.
  ReplicationHub(Engine* engine, Options options);
  ~ReplicationHub();

  ReplicationHub(const ReplicationHub&) = delete;
  ReplicationHub& operator=(const ReplicationHub&) = delete;

  /// Spawns the link threads, which ship what the sink queued. Call once
  /// the node's listener is up: peers dial in as soon as their own links
  /// start. A write served before then waits in AwaitReplication.
  void Start();

  /// Uninstalls the sink and joins the links. Idempotent.
  void Stop();

  /// Blocks until every live peer has acked `(dataset, seq)` or the ack
  /// timeout passes; a peer that times out is marked dead and skipped from
  /// then on. Returns the number of peers that have the record.
  std::size_t AwaitReplication(const std::string& dataset, std::uint64_t seq);

  /// Marks the link to `endpoint` dead for good, as if an ack had timed
  /// out: the cluster calls this when it declares that node dead, so no
  /// write waits out the ack timeout on a link that never connected.
  void MarkPeerDead(const std::string& endpoint, const std::string& why);

  /// Per-peer state for the CLUSTER status verb: endpoint, liveness, and
  /// ack floors.
  json::Value StatusJson() const;

 private:
  struct Item {
    std::string dataset;
    std::uint64_t seq = 0;
    std::shared_ptr<const std::string> line;  ///< Full encoded WAL line.
  };

  struct Link {
    std::string host;
    std::uint16_t port = 0;
    std::string label;  ///< "host:port" for status/errors.
    std::thread thread;

    mutable std::mutex mutex;
    std::condition_variable cv;       ///< Queue activity (link thread waits).
    std::condition_variable ack_cv;   ///< Floor advances (AwaitReplication).
    std::deque<Item> queue;
    std::map<std::string, std::uint64_t> floors;  ///< Acked seq per dataset.
    bool alive = true;
    bool connected = false;
    bool stop = false;
    std::string last_error;
  };

  void LinkMain(Link* link);
  /// One serving pass over a connected client; returns the error that ended
  /// the connection (the link is then dead).
  Status ServeLink(Link* link, class OnexClient* client);
  Status ShipBatch(Link* link, OnexClient* client, const std::string& dataset,
                   std::uint64_t first_seq,
                   const std::vector<std::string>& lines);
  /// Ships records (floor, tip] of `dataset`, read from the registry's
  /// journal.
  Status CatchUpFromFile(Link* link, OnexClient* client,
                         const std::string& dataset);
  void MarkDead(Link* link, const std::string& why);

  Engine* engine_;
  Options options_;
  std::vector<std::unique_ptr<Link>> links_;  ///< Fixed at construction.
  bool started_ = false;
};

}  // namespace onex::net

#endif  // ONEX_NET_REPLICATION_H_
