#include "onex/net/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <utility>

#include "onex/common/string_utils.h"
#include "onex/common/task_pool.h"
#include "onex/net/frame.h"

namespace onex::net {
namespace {

constexpr int kEpollTickMs = 100;  ///< Slow-reader sweep cadence.

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

bool DeadlineExpired(const json::Value& response) {
  return !response["ok"].as_bool() &&
         response["code"].as_string() == "DeadlineExceeded";
}

}  // namespace

ReactorServer::ReactorServer(Engine* engine, ReactorOptions options)
    : engine_(engine), options_(options) {}

ReactorServer::~ReactorServer() { Stop(); }

Status ReactorServer::Start(std::uint16_t port) {
  if (running_.load()) {
    return Status::FailedPrecondition("reactor already running");
  }
  ONEX_ASSIGN_OR_RETURN(listener_,
                        ServerSocket::Listen(port, options_.listen_backlog));
  ONEX_RETURN_IF_ERROR(SetNonBlocking(listener_.fd()));

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return Status::IoError("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::IoError("eventfd failed");
  }

  // Listener and wake fd are level-triggered: a missed accept burst or wake
  // just re-reports on the next epoll_wait. Connections are edge-triggered.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.fd();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    return Status::IoError("epoll_ctl(listener) failed");
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::IoError("epoll_ctl(wake) failed");
  }

  stopping_.store(false);
  running_.store(true);
  loop_thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void ReactorServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();

  // The loop closed every connection on exit (setting each `disconnected`
  // flag, which expires the cancellation tokens of in-flight queries), but
  // executor tasks may still be running. Wait them out: they reference the
  // engine, and our caller is free to destroy it the moment Stop returns.
  {
    std::unique_lock<std::mutex> lock(inflight_mutex_);
    inflight_cv_.wait(lock, [this] { return inflight_global_ == 0; });
  }

  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  epoll_fd_ = -1;
  wake_fd_ = -1;
  listener_.Close();
  {
    std::lock_guard<std::mutex> lock(dirty_mutex_);
    dirty_.clear();
  }
}

void ReactorServer::WakeLoop() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;  // Full counter still wakes the loop; nothing to handle.
}

void ReactorServer::NotifyDirty(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(dirty_mutex_);
    dirty_.push_back(conn);
  }
  WakeLoop();
}

void ReactorServer::Loop() {
  std::vector<epoll_event> events(512);
  auto last_sweep = std::chrono::steady_clock::now();
  while (!stopping_.load()) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), kEpollTickMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listener_.fd()) {
        AcceptReady();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t drain = 0;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // Closed earlier in this batch.
      std::shared_ptr<Conn> conn = it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConn(conn);
        continue;
      }
      if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
        OnReadable(conn);
      }
      if ((events[i].events & EPOLLOUT) != 0 && conns_.count(fd) != 0) {
        ServiceConn(conn);
      }
    }

    // Completions queued by executor threads since the last pass.
    std::vector<std::weak_ptr<Conn>> dirty;
    {
      std::lock_guard<std::mutex> lock(dirty_mutex_);
      dirty.swap(dirty_);
    }
    for (auto& weak : dirty) {
      if (std::shared_ptr<Conn> conn = weak.lock()) ServiceConn(conn);
    }

    const auto now = std::chrono::steady_clock::now();
    if (now - last_sweep >= std::chrono::milliseconds(kEpollTickMs)) {
      last_sweep = now;
      SweepSlowReaders();
    }
  }

  // Shutdown: disconnect everyone. In-flight queries observe `disconnected`
  // and cancel at their next stage boundary; Stop() waits for them.
  std::vector<std::shared_ptr<Conn>> live;
  live.reserve(conns_.size());
  for (auto& entry : conns_) live.push_back(entry.second);
  for (auto& conn : live) CloseConn(conn);
}

void ReactorServer::AcceptReady() {
  while (true) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient accept failure.
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    SetTcpNoDelay(fd);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->last_write_progress = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_[fd] = std::move(conn);
    metrics_.ConnectionOpened();
  }
}

void ReactorServer::OnReadable(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0 || conn->read_paused) return;

  // Edge-triggered: drain the socket completely or the edge never re-fires.
  bool peer_eof = false;
  bool read_error = false;
  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->inbuf.append(chunk, static_cast<std::size_t>(n));
      metrics_.AddBytesIn(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n == 0) {
      peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    read_error = true;
    break;
  }

  bool close_now = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (!ParseInputLocked(conn)) {
      close_now = true;  // Framing violation: no resync is possible.
    } else {
      PumpLocked(conn);
      if (!FlushOutboxLocked(conn)) {
        close_now = true;
      } else {
        (void)UpdateReadPauseLocked(conn);
      }
    }
  }

  // EOF counts as a disconnect even with requests still queued: a text
  // session ends at EOF, responses to a gone peer are waste, and a
  // half-closing pipeliner would deadlock itself against backpressure
  // anyway. Clients must keep the socket open until all responses arrive.
  if (close_now || peer_eof || read_error) CloseConn(conn);
}

bool ReactorServer::ParseInputLocked(const std::shared_ptr<Conn>& conn) {
  const auto now = std::chrono::steady_clock::now();
  std::size_t consumed = 0;
  bool violated = false;
  while (!conn->close_after_flush &&
         conn->queue.size() + conn->inflight < options_.max_pipeline) {
    PendingRequest req;
    req.arrival = now;
    if (conn->binary_in) {
      const std::string_view rest =
          std::string_view(conn->inbuf).substr(consumed);
      FrameDecodeResult r = DecodeFrame(rest, FrameLimits{});
      if (r.state == FrameDecodeState::kNeedMore) break;
      if (r.state == FrameDecodeState::kError ||
          r.frame.type != FrameType::kRequest) {
        violated = true;
        break;
      }
      consumed += r.consumed;
      req.binary = true;
      req.request_id = r.frame.request_id;
      // The frame text is the command line; anything after the first '\n'
      // is an opaque blob (REPLAPPLY's shipped WAL lines) that must never
      // meet the tokenizer. Text connections are line-delimited and so can
      // never produce a blob.
      const std::size_t nl = r.frame.text.find('\n');
      Result<Command> parsed = ParseCommandLine(
          nl == std::string::npos ? r.frame.text
                                  : r.frame.text.substr(0, nl));
      if (parsed.ok()) {
        req.cmd = std::move(parsed).value();
        if (nl != std::string::npos) {
          req.cmd.blob = r.frame.text.substr(nl + 1);
        }
        req.cmd.payload = std::move(r.frame.values);
      } else {
        req.parse_error = parsed.status();
      }
    } else {
      const std::size_t pos = conn->inbuf.find('\n', conn->text_scan);
      if (pos == std::string::npos) {
        conn->text_scan = conn->inbuf.size();
        // Same per-line cap as LineReader: a peer streaming newline-free
        // bytes is bounded by this constant, not by its patience.
        if (conn->inbuf.size() - consumed > LineReader::kDefaultMaxLineBytes) {
          violated = true;
        }
        break;
      }
      std::string line = conn->inbuf.substr(consumed, pos - consumed);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      consumed = pos + 1;
      conn->text_scan = consumed;
      if (TrimString(line).empty()) continue;  // Text sessions skip blanks.
      req.binary = false;
      Result<Command> parsed = ParseCommandLine(line);
      if (parsed.ok()) {
        req.cmd = std::move(parsed).value();
      } else {
        req.parse_error = parsed.status();
      }
      // The BIN upgrade takes effect at the parse boundary: every byte
      // after this line decodes as ONEXB frames. The acknowledgement
      // (written when the request reaches the queue front) is still a
      // text line — the last one on the connection.
      if (req.cmd.verb == "BIN") conn->binary_in = true;
    }
    // The verb's table row and pipeline class, resolved once per request.
    if (req.parse_error.ok()) {
      req.spec = FindVerb(req.cmd.verb);
      if (req.spec != nullptr) req.exec = req.spec->exec;
    } else {
      req.exec = ExecClass::kInline;
    }
    conn->queue.push_back(std::move(req));
    metrics_.QueueEnter();
  }
  if (consumed > 0) {
    conn->inbuf.erase(0, consumed);
    conn->text_scan = conn->text_scan > consumed ? conn->text_scan - consumed : 0;
  }
  return !violated;
}

void ReactorServer::PumpLocked(const std::shared_ptr<Conn>& conn) {
  while (!conn->closed && !conn->close_after_flush && !conn->queue.empty()) {
    // Backpressure gates dispatch too: past the high watermark this
    // connection stops generating responses, not just reading requests.
    if (conn->outbox_bytes > options_.outbox_high_bytes) break;
    PendingRequest& front = conn->queue.front();
    const bool concurrent =
        front.binary && front.exec == ExecClass::kReadOnly;
    if (concurrent) {
      if (conn->barrier_inflight) break;
    } else {
      if (conn->inflight != 0) break;  // Barriers (and all text) run alone.
    }
    PendingRequest req = std::move(front);
    conn->queue.pop_front();
    if (req.exec == ExecClass::kInline) {
      ExecuteInlineLocked(conn, std::move(req));
    } else {
      DispatchLocked(conn, std::move(req));
    }
  }
}

void ReactorServer::ExecuteInlineLocked(const std::shared_ptr<Conn>& conn,
                                        PendingRequest req) {
  json::Value resp;
  if (!req.parse_error.ok()) {
    resp = ErrorResponse(req.parse_error);
  } else if (req.cmd.verb == "BIN") {
    resp = json::Value::MakeObject();
    resp.Set("ok", true);
    resp.Set("proto", "ONEXB");
    resp.Set("version", static_cast<int>(kFrameVersion));
    metrics_.BinaryUpgrade();
  } else if (req.cmd.verb == "METRICS") {
    resp = metrics_.ToJson();
  } else {
    // PING, QUIT and the replication verbs go through the real executor so
    // the bodies stay byte-identical with the dispatched path. A shipped
    // kPrepare does stall the loop for its rebuild, the documented cost of
    // keeping the replication ack path deadlock-free (protocol.cc).
    ExecContext ctx;
    ctx.arrival = req.arrival;
    ctx.disconnected = &conn->disconnected;
    ctx.cluster = cluster_;
    ctx.verb = req.spec;
    resp = ExecuteCommand(engine_, &conn->session, req.cmd, ctx);
    if (req.cmd.verb == "QUIT") {
      conn->close_after_flush = true;
      // Pipelined requests behind a QUIT are discarded, unread.
      for (std::size_t i = 0; i < conn->queue.size(); ++i) {
        metrics_.QueueLeave();
      }
      conn->queue.clear();
    }
  }
  QueueResponseLocked(conn.get(), req, EncodeResponse(req, resp, {}),
                      DeadlineExpired(resp));
}

void ReactorServer::DispatchLocked(const std::shared_ptr<Conn>& conn,
                                   PendingRequest req) {
  conn->inflight += 1;
  const bool barrier = req.exec == ExecClass::kMutator || !req.binary;
  if (barrier) conn->barrier_inflight = true;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_global_ += 1;
  }
  // Barriers run alone, so snapshotting the session here and writing it
  // back at completion is race-free; concurrent read-only requests treat
  // their snapshot as immutable.
  Session session = conn->session;
  TaskPool::Shared().Submit(
      [this, conn, req = std::move(req), session]() mutable {
        std::vector<double> values;
        ExecContext ctx;
        ctx.arrival = req.arrival;
        ctx.disconnected = &conn->disconnected;
        ctx.out_values = req.binary ? &values : nullptr;
        ctx.cluster = cluster_;
        ctx.verb = req.spec;
        json::Value resp = ExecuteCommand(engine_, &session, req.cmd, ctx);
        CompleteRequest(conn, req, std::move(resp), std::move(values),
                        std::move(session));
      });
}

void ReactorServer::CompleteRequest(const std::shared_ptr<Conn>& conn,
                                    const PendingRequest& req,
                                    json::Value response,
                                    std::vector<double> values,
                                    Session session_after) {
  // Encode before taking the connection lock: the completions of one
  // pipelined burst contend for it, so it guards only the queueing.
  const bool deadline_expired = DeadlineExpired(response);
  std::string bytes = EncodeResponse(req, response, std::move(values));
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->inflight -= 1;
    const bool barrier = req.exec == ExecClass::kMutator || !req.binary;
    if (barrier) {
      conn->barrier_inflight = false;
      conn->session = std::move(session_after);
    }
    QueueResponseLocked(conn.get(), req, std::move(bytes), deadline_expired);
    if (!conn->closed) {
      if (conn->outbox_bytes > options_.outbox_hard_bytes) conn->kill = true;
      PumpLocked(conn);
      notify = true;
    }
  }
  if (notify) NotifyDirty(conn);
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    if (--inflight_global_ == 0) inflight_cv_.notify_all();
  }
}

std::string ReactorServer::EncodeResponse(const PendingRequest& req,
                                          const json::Value& response,
                                          std::vector<double> values) {
  if (!req.binary) return FormatResponse(response);
  Frame frame;
  frame.type = FrameType::kResponse;
  frame.flags = response["ok"].as_bool() ? 0 : kFrameFlagError;
  frame.request_id = req.request_id;
  frame.text = response.Dump();  // Identical to the text line, sans '\n'.
  frame.values = std::move(values);
  return EncodeFrame(frame);
}

void ReactorServer::QueueResponseLocked(Conn* conn, const PendingRequest& req,
                                        std::string bytes,
                                        bool deadline_expired) {
  if (!conn->closed) {
    conn->outbox_bytes += bytes.size();
    conn->outbox.push_back(std::move(bytes));
  }
  metrics_.RecordRequest(VerbSlot(req.spec), ElapsedMs(req.arrival),
                         deadline_expired);
  metrics_.QueueLeave();
}

bool ReactorServer::FlushOutboxLocked(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0) return true;
  while (!conn->outbox.empty()) {
    const std::string& front = conn->outbox.front();
    const ssize_t n =
        ::send(conn->fd, front.data() + conn->outbox_front_off,
               front.size() - conn->outbox_front_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbox_front_off += static_cast<std::size_t>(n);
      conn->outbox_bytes -= static_cast<std::size_t>(n);
      metrics_.AddBytesOut(static_cast<std::uint64_t>(n));
      conn->last_write_progress = std::chrono::steady_clock::now();
      if (conn->outbox_front_off == front.size()) {
        conn->outbox.pop_front();
        conn->outbox_front_off = 0;
      }
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // EPOLLOUT resumes.
    return false;  // Peer reset/closed mid-write.
  }
  if (conn->outbox.empty() && conn->close_after_flush) return false;
  if (conn->outbox_bytes > options_.outbox_high_bytes) {
    if (!conn->over_high) {
      conn->over_high = true;
      conn->over_high_since = std::chrono::steady_clock::now();
    }
  } else {
    conn->over_high = false;
  }
  return true;
}

bool ReactorServer::UpdateReadPauseLocked(const std::shared_ptr<Conn>& conn) {
  const bool want_pause =
      conn->close_after_flush ||
      conn->queue.size() + conn->inflight >= options_.max_pipeline ||
      conn->outbox_bytes > options_.outbox_high_bytes;
  if (want_pause) {
    conn->read_paused = true;
    return false;
  }
  return conn->read_paused;  // Caller clears the flag and re-reads.
}

void ReactorServer::ServiceConn(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0) return;
  bool close_now = false;
  bool resume = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->kill) {
      close_now = true;
    } else if (!FlushOutboxLocked(conn)) {
      close_now = true;
    } else {
      PumpLocked(conn);  // A drained outbox may unblock dispatch.
      if (!FlushOutboxLocked(conn)) {
        close_now = true;
      } else {
        resume = UpdateReadPauseLocked(conn);
      }
    }
  }
  if (close_now) {
    CloseConn(conn);
    return;
  }
  if (resume) {
    // Edge-triggered read: bytes that arrived while paused announced
    // themselves once, back when we ignored them. Read directly.
    conn->read_paused = false;
    OnReadable(conn);
  }
}

void ReactorServer::SweepSlowReaders() {
  const auto now = std::chrono::steady_clock::now();
  const auto grace = std::chrono::milliseconds(options_.slow_reader_grace_ms);
  std::vector<std::shared_ptr<Conn>> victims;
  for (auto& entry : conns_) {
    const std::shared_ptr<Conn>& conn = entry.second;
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->over_high && now - conn->over_high_since > grace &&
        now - conn->last_write_progress > grace) {
      victims.push_back(conn);
    }
  }
  for (auto& conn : victims) {
    metrics_.SlowReaderDisconnect();
    CloseConn(conn);
  }
}

void ReactorServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0) return;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) return;
    conn->closed = true;
    for (std::size_t i = 0; i < conn->queue.size(); ++i) metrics_.QueueLeave();
    conn->queue.clear();
    conn->outbox.clear();
    conn->outbox_bytes = 0;
    conn->outbox_front_off = 0;
  }
  // Expire the cancellation tokens of this connection's in-flight queries.
  conn->disconnected.store(true);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  conn->fd = -1;
  metrics_.ConnectionClosed();
}

}  // namespace onex::net
