#ifndef ONEX_SERVEBENCH_WIRE_H_
#define ONEX_SERVEBENCH_WIRE_H_

/// The benchmark's side of the wire: the `onexd` child process and the
/// generator's nonblocking ONEXB connection.
#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "onex/common/result.h"
#include "onex/net/frame.h"
#include "onex/net/socket.h"

namespace servebench {

/// A running `onexd` child. Started with an ephemeral port and a data
/// directory; Stop() sends SIGTERM and waits for the process to end (SIGKILL
/// after a grace period). The destructor stops a still-running child.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Launches `binary` with `args` (stderr discarded) and waits until it
  /// reports its listening port on stdout.
  onex::Status Start(const std::string& binary,
                     const std::vector<std::string>& args);
  void Stop();

  std::uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM) of the child, in KiB; 0 if unreadable.
  std::uint64_t PeakRssKib() const;
  /// Bytes the child caused to be written to storage (/proc/<pid>/io
  /// write_bytes); 0 if unreadable.
  std::uint64_t StorageWriteBytes() const;
  /// CPU seconds (user + system) the child has used so far.
  double CpuSeconds() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Host-wide CPU time stolen by the hypervisor so far, and all CPU time, in
/// clock ticks (/proc/stat): their deltas give the steal share of a window.
std::pair<std::uint64_t, std::uint64_t> HostStealAndTotalTicks();

/// One decoded response frame plus what the generator measured about it.
struct Response {
  onex::net::Frame frame;
  std::int64_t decode_ns = 0;  ///< DecodeFrame time for this frame.
};

/// A nonblocking ONEXB connection driven by one generator thread: requests
/// are encoded into an output buffer and flushed as the socket accepts
/// them, responses are decoded as they arrive and matched by request id.
class Conn {
 public:
  /// Connects and negotiates the binary dialect (blocking), then switches
  /// the socket to nonblocking mode.
  static onex::Result<Conn> Open(std::uint16_t port);

  /// Encodes one request frame into the output buffer; returns the
  /// EncodeFrame time in ns.
  std::int64_t Queue(std::uint64_t id, const std::string& text,
                     const std::vector<double>& values);

  /// Waits up to `timeout_ns` for the socket to become readable (or
  /// writable while output is pending), flushes output, reads what is
  /// available and hands each complete response to `on_response`.
  onex::Status Pump(std::int64_t timeout_ns,
                    const std::function<void(Response&&)>& on_response);

 private:
  Conn() = default;

  onex::net::Socket socket_;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
  std::size_t in_off_ = 0;
};

/// Blocking request/response over a fresh binary connection: the control
/// path used for setup and verification (never timed as served load).
class Control {
 public:
  static onex::Result<Control> Open(std::uint16_t port);

  /// Sends one request and waits for its response. IoError on transport
  /// failure; a server-side {"ok":false} is a response, not an error.
  onex::Result<onex::net::Frame> Call(const std::string& text,
                                      const std::vector<double>& values = {});

 private:
  Control() = default;
  onex::net::Socket socket_;
  std::string in_;
  std::uint64_t next_id_ = 1;
};

}  // namespace servebench

#endif  // ONEX_SERVEBENCH_WIRE_H_
