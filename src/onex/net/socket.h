#ifndef ONEX_NET_SOCKET_H_
#define ONEX_NET_SOCKET_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "onex/common/result.h"

namespace onex::net {

/// Writes the whole buffer to a (blocking) fd, retrying EINTR and short
/// writes; the single place partial-write handling lives. MSG_NOSIGNAL keeps
/// a dead peer an IoError instead of a SIGPIPE process kill.
Status WriteAll(int fd, std::string_view data);

/// Disables Nagle. Pipelined protocols write many small frames; without this
/// every sub-MSS response waits for the previous ACK (~40 ms stalls on
/// request-response traffic). Applied to every accepted and client socket.
void SetTcpNoDelay(int fd);

/// O_NONBLOCK for reactor-owned fds (edge-triggered epoll requires it).
Status SetNonBlocking(int fd);

/// Move-only RAII wrapper over a connected TCP socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes the whole buffer, retrying on short writes and EINTR.
  Status SendAll(std::string_view data);

  /// Half-closes the write side then closes; unblocks a peer's read.
  void Shutdown();
  void Close();

 private:
  int fd_ = -1;
};

/// Buffered line reader over a Socket: the protocol is newline-delimited.
class LineReader {
 public:
  /// A line may buffer at most `max_line_bytes` before the newline arrives;
  /// beyond that ReadLine fails (the server then drops the connection), so
  /// a peer streaming bytes without '\n' cannot grow the buffer without
  /// bound — the DoS exposure per connection is this constant, not the
  /// peer's patience. The default admits the largest frame the protocol
  /// itself allows (an APPEND of a kMaxGenPoints-sized series is ~50 MB of
  /// text) with headroom; clients reading trusted server responses pass a
  /// larger cap.
  static constexpr std::size_t kDefaultMaxLineBytes = 64u << 20;  // 64 MiB

  explicit LineReader(Socket* socket,
                      std::size_t max_line_bytes = kDefaultMaxLineBytes)
      : socket_(socket), max_line_bytes_(max_line_bytes) {}

  /// Next '\n'-terminated line (terminator stripped, trailing '\r' too).
  /// IoError on EOF ("connection closed") or when the pending line exceeds
  /// the length cap. An unterminated fragment pending at EOF is discarded,
  /// not returned — it may be a truncated frame, and executing truncated
  /// commands is worse than dropping them.
  Result<std::string> ReadLine();

 private:
  Socket* socket_;
  std::size_t max_line_bytes_;
  std::string buffer_;
  /// Bytes of buffer_ already known newline-free, so each recv scans only
  /// the new chunk (a large line costs one linear pass, not a quadratic
  /// rescan).
  std::size_t scanned_ = 0;
  bool eof_ = false;
};

/// Client-side connect to host:port ("127.0.0.1" etc.; no DNS needed for
/// the loopback deployments this library targets).
Result<Socket> ConnectTcp(const std::string& host, std::uint16_t port);

/// Listening socket bound to 127.0.0.1. Port 0 picks an ephemeral port,
/// readable via port() — tests rely on this.
///
/// The fd is atomic because Shutdown() is the documented cross-thread
/// unblock for a blocking accept loop (one thread shuts down while another
/// sits in Accept); exchange-based Close also makes concurrent
/// double-closes harmless.
class ServerSocket {
 public:
  /// `backlog` sizes the kernel accept queue. The default suits a handful of
  /// interactive dashboards; the reactor passes a large value because a load
  /// generator ramping thousands of connections can easily land more SYNs
  /// between two accept sweeps than a small queue holds.
  static Result<ServerSocket> Listen(std::uint16_t port, int backlog = 16);

  ServerSocket() = default;
  ~ServerSocket() { Close(); }
  ServerSocket(const ServerSocket&) = delete;
  ServerSocket& operator=(const ServerSocket&) = delete;
  ServerSocket(ServerSocket&& other) noexcept
      : fd_(other.fd_.exchange(-1)), port_(other.port_) {}
  ServerSocket& operator=(ServerSocket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_.store(other.fd_.exchange(-1));
      port_ = other.port_;
    }
    return *this;
  }

  bool valid() const { return fd_.load() >= 0; }
  int fd() const { return fd_.load(); }
  std::uint16_t port() const { return port_; }

  /// Blocks until a client connects; IoError once Shutdown()/Close() has
  /// been called.
  Result<Socket> Accept();

  /// Unblocks any thread parked in Accept() and makes future Accepts fail,
  /// WITHOUT releasing the fd number. This is the safe cross-thread stop
  /// signal: because the descriptor stays reserved, a concurrent open()
  /// elsewhere in the process cannot recycle it under a racing accept().
  void Shutdown();

  /// Releases the descriptor. Only call once no other thread can still be
  /// inside Accept() (e.g. after joining the acceptor); use Shutdown() to
  /// get it out of there first.
  void Close();

 private:
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace onex::net

#endif  // ONEX_NET_SOCKET_H_
