#ifndef ONEX_NET_REACTOR_H_
#define ONEX_NET_REACTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "onex/common/result.h"
#include "onex/engine/engine.h"
#include "onex/net/metrics.h"
#include "onex/net/protocol.h"
#include "onex/net/socket.h"

namespace onex::net {

/// Tuning knobs for ReactorServer. The defaults serve the intended
/// deployment (thousands of mostly-idle dashboard connections, a few dozen
/// hot pipelines); tests shrink them to provoke the edge behaviours.
struct ReactorOptions {
  /// Outbox backpressure watermark. While a connection's pending response
  /// bytes sit above this, the reactor stops dispatching its queued requests
  /// and stops reading from its socket — a slow reader throttles itself
  /// instead of growing server memory.
  std::size_t outbox_high_bytes = 1u << 20;  // 1 MiB

  /// Absolute outbox cap: crossing it disconnects the peer immediately. With
  /// dispatch paused above the high watermark, the outbox can legitimately
  /// exceed it by at most one in-flight burst of responses, so the hard cap
  /// only triggers for a peer that has stopped reading under a pipeline of
  /// large responses — memory protection, not flow control.
  std::size_t outbox_hard_bytes = 32u << 20;  // 32 MiB

  /// A connection above the high watermark that makes no write progress for
  /// this long is disconnected as a slow reader (METRICS counts these).
  int slow_reader_grace_ms = 5000;

  /// Decoded-but-unanswered requests one connection may hold (queued plus
  /// executing). Past it the reactor stops reading that socket; TCP pushes
  /// the backpressure to the client. Bounds per-connection request memory
  /// the same way the watermarks bound response memory.
  std::size_t max_pipeline = 128;

  /// Kernel accept queue. Sized for load ramps: a generator opening
  /// thousands of connections can land more SYNs between two accept sweeps
  /// than ServerSocket's interactive default would hold.
  int listen_backlog = 1024;
};

/// Epoll-driven serving front end: one reactor thread multiplexes every
/// connection (10k+ mostly-idle sockets cost one fd apiece, not one thread
/// apiece), decodes requests off the wire, and hands execution to the
/// process-wide TaskPool. Speaks both wire dialects: the newline/JSON text
/// protocol (protocol.h) and, after a BIN upgrade, the ONEXB binary frame
/// (frame.h).
///
/// Threading model (DESIGN.md §15):
///   - The reactor thread owns every fd: accept, edge-triggered reads,
///     frame/line decoding, nonblocking outbox flushes, disconnects.
///   - Decoded requests join a per-connection FIFO; execution runs on the
///     shared TaskPool so a slow query never blocks the wire for other
///     connections. Cheap request *recording* is thereby separated from
///     expensive request *execution*.
///   - Completions append the encoded response to the connection's outbox
///     and nudge the reactor through an eventfd; the reactor flushes.
///
/// Ordering: text connections execute strictly serially in arrival order
/// (text clients match responses by position). Binary connections execute
/// contiguous runs of read-only verbs (MATCH/KNN/BATCH/...) concurrently
/// and may complete them out of order — the echoed frame request id matches
/// them up — while mutators (GEN/PREPARE/APPEND/USE/...) act as barriers:
/// they run alone, after everything before them and before everything after
/// them, so PREPARE-then-MATCH pipelines read naturally.
///
/// A verb's pipeline class is its VerbSpec::exec (protocol.h). Inline verbs
/// are answered here, on the reactor thread, without a pool round-trip:
/// BIN (upgrade this connection's input to ONEXB frames; the
/// acknowledgement is the last text line), METRICS (ServerMetrics snapshot),
/// QUIT, PING and the replication verbs. Everything else goes to
/// ExecuteCommand on the TaskPool with an ExecContext
/// carrying the arrival time (deadline_ms= budgets count queue time) and
/// the connection's disconnect flag (a vanished caller cancels its queries
/// at the next cascade stage boundary).
class ReactorServer {
 public:
  /// The engine must outlive the server; ownership is not taken.
  explicit ReactorServer(Engine* engine, ReactorOptions options = {});
  ~ReactorServer();

  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the reactor thread.
  Status Start(std::uint16_t port = 0);

  /// Bound port, valid after Start().
  std::uint16_t port() const { return listener_.port(); }

  bool running() const { return running_.load(); }

  /// Disconnects every client (in-flight queries observe the disconnect and
  /// cancel), drains executor tasks, joins the reactor thread. The drain
  /// matters: executor tasks reference the engine, so returning while any
  /// are live would let callers destroy the engine under them. Safe to call
  /// twice.
  void Stop();

  /// Live serving statistics (also served on-wire by METRICS).
  const ServerMetrics& metrics() const { return metrics_; }

  /// Cluster-mode hookup (DESIGN.md §16): every executed command carries
  /// this pointer in its ExecContext, routing it through the coordinator.
  /// Must be set before Start() and outlive the server; single-node servers
  /// never call this.
  void SetCluster(ClusterNode* cluster) { cluster_ = cluster; }

 private:
  /// One decoded, not-yet-answered request.
  struct PendingRequest {
    Command cmd;
    Status parse_error;  ///< !ok(): answer with ErrorResponse, skip execute.
    bool binary = false;
    std::uint64_t request_id = 0;
    std::chrono::steady_clock::time_point arrival;
    /// The verb's table row, looked up once at parse time; null for parse
    /// errors and unknown verbs (METRICS counts both under "OTHER").
    const VerbSpec* spec = nullptr;
    /// Parse errors answer inline; unknown verbs, whose error responses are
    /// order-independent, run like reads.
    ExecClass exec = ExecClass::kReadOnly;
  };

  /// Per-connection state. Buffers and parse cursors belong to the reactor
  /// thread alone; the queue, outbox and session are shared with executor
  /// completions under `mutex`; `disconnected` is the lock-free kill switch
  /// in-flight queries poll.
  struct Conn {
    int fd = -1;

    // -- reactor thread only --
    std::string inbuf;
    std::size_t text_scan = 0;  ///< inbuf prefix known newline-free.
    bool binary_in = false;     ///< Input decodes as ONEXB after BIN.
    bool read_paused = false;
    std::chrono::steady_clock::time_point last_write_progress;
    bool over_high = false;
    std::chrono::steady_clock::time_point over_high_since;

    // -- shared, guarded by mutex --
    std::mutex mutex;
    Session session;
    std::deque<PendingRequest> queue;
    std::size_t inflight = 0;
    bool barrier_inflight = false;
    std::deque<std::string> outbox;
    std::size_t outbox_front_off = 0;
    std::size_t outbox_bytes = 0;
    bool close_after_flush = false;
    bool kill = false;    ///< Executor-requested disconnect (hard overflow).
    bool closed = false;  ///< fd gone; completions drop their responses.

    /// Set on any disconnect; ExecContext points queries at it.
    std::atomic<bool> disconnected{false};
  };

  void Loop();
  void AcceptReady();
  void WakeLoop();
  void NotifyDirty(const std::shared_ptr<Conn>& conn);

  /// Edge-triggered read: drain the socket, parse, pump, flush.
  void OnReadable(const std::shared_ptr<Conn>& conn);
  /// Post-completion service: flush the outbox, resume a paused read.
  void ServiceConn(const std::shared_ptr<Conn>& conn);
  /// ~100 ms tick: enforce the slow-reader grace across connections.
  void SweepSlowReaders();

  /// Decode as many requests as the pipeline cap admits. Lock held.
  /// Returns false on a protocol violation (close the connection).
  bool ParseInputLocked(const std::shared_ptr<Conn>& conn);
  /// Dispatch from the queue front per the ordering rules. Lock held.
  void PumpLocked(const std::shared_ptr<Conn>& conn);
  /// Nonblocking send until EAGAIN or empty. Lock held. Returns false when
  /// the connection must close (write error, hard cap, flushed-after-QUIT).
  bool FlushOutboxLocked(const std::shared_ptr<Conn>& conn);
  /// Recompute read_paused from queue depth + outbox level. Lock held.
  /// Returns true when a paused read should resume (caller re-reads; with
  /// edge triggering no new event will announce the already-arrived bytes).
  bool UpdateReadPauseLocked(const std::shared_ptr<Conn>& conn);

  void ExecuteInlineLocked(const std::shared_ptr<Conn>& conn,
                           PendingRequest req);
  void DispatchLocked(const std::shared_ptr<Conn>& conn, PendingRequest req);
  void CompleteRequest(const std::shared_ptr<Conn>& conn,
                       const PendingRequest& req, json::Value response,
                       std::vector<double> values, Session session_after);
  /// The response's wire bytes: an ONEXB frame for a binary request, else
  /// the text line. Runs without any lock, on whichever thread answered.
  static std::string EncodeResponse(const PendingRequest& req,
                                    const json::Value& response,
                                    std::vector<double> values);
  /// Queues already-encoded bytes and records the request in METRICS, whose
  /// latency therefore runs from arrival until the bytes are queued.
  void QueueResponseLocked(Conn* conn, const PendingRequest& req,
                           std::string bytes, bool deadline_expired);

  /// Reactor thread only: deregister, close, cancel, drop queued state.
  void CloseConn(const std::shared_ptr<Conn>& conn);

  Engine* engine_;
  ReactorOptions options_;
  ClusterNode* cluster_ = nullptr;
  ServerMetrics metrics_;

  ServerSocket listener_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread loop_thread_;

  /// Reactor-thread-only fd → connection map.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  /// Connections with fresh completions awaiting a reactor-side flush.
  std::mutex dirty_mutex_;
  std::vector<std::weak_ptr<Conn>> dirty_;

  /// Executor tasks in flight across all connections; Stop() drains to zero
  /// before returning.
  std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::size_t inflight_global_ = 0;
};

}  // namespace onex::net

#endif  // ONEX_NET_REACTOR_H_
