#include "wire.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

namespace servebench {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Reads one "<key>: <number>" field from a /proc file.
std::uint64_t ProcField(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      std::uint64_t v = 0;
      fields >> v;
      return v;
    }
  }
  return 0;
}

/// Negotiates ONEXB on a fresh blocking socket: "BIN" and its one-line text
/// acknowledgement are the connection's only text exchange.
onex::Status UpgradeBinary(onex::net::Socket* socket) {
  ONEX_RETURN_IF_ERROR(socket->SendAll("BIN\n"));
  std::string line;
  char c = 0;
  while (true) {
    const ssize_t n = ::recv(socket->fd(), &c, 1, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return onex::Status::IoError("connection closed during BIN");
    if (c == '\n') break;
    line.push_back(c);
  }
  if (line.find("\"ok\":true") == std::string::npos) {
    return onex::Status::FailedPrecondition("BIN rejected: " + line);
  }
  return onex::Status::OK();
}

}  // namespace

ServerProcess::~ServerProcess() { Stop(); }

onex::Status ServerProcess::Start(const std::string& binary,
                                  const std::vector<std::string>& args) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return onex::Status::IoError("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) return onex::Status::IoError("fork failed");
  if (pid == 0) {
    // The server never outlives the benchmark, even one that crashed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    const int null = ::open("/dev/null", O_WRONLY);
    if (null >= 0) ::dup2(null, STDERR_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    std::_Exit(127);
  }
  ::close(out_pipe[1]);
  pid_ = pid;
  stdout_fd_ = out_pipe[0];

  // The server prints "onexd listening on 127.0.0.1:<port> (...)" once its
  // listener is up (after recovering any state in its data dir).
  std::string seen;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd p{stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    seen.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = seen.find("listening on 127.0.0.1:");
    if (at != std::string::npos && seen.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(
          std::atoi(seen.c_str() + at + std::strlen("listening on 127.0.0.1:")));
      return onex::Status::OK();
    }
  }
  Stop();
  return onex::Status::IoError("onexd did not report a listening port: " + seen);
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

std::uint64_t ServerProcess::PeakRssKib() const {
  return ProcField("/proc/" + std::to_string(pid_) + "/status", "VmHWM:");
}

std::uint64_t ServerProcess::StorageWriteBytes() const {
  return ProcField("/proc/" + std::to_string(pid_) + "/io", "write_bytes:");
}

double ServerProcess::CpuSeconds() const {
  // Fields 14 and 15 of /proc/<pid>/stat, counted after the ")" that ends
  // the command name.
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), {});
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  double utime = 0, stime = 0;
  fields >> utime >> stime;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::pair<std::uint64_t, std::uint64_t> HostStealAndTotalTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // aggregate "cpu" line: user nice system idle iowait irq softirq steal
  std::uint64_t v[8] = {};
  for (std::uint64_t& x : v) in >> x;
  std::uint64_t total = 0;
  for (const std::uint64_t x : v) total += x;
  return {v[7], total};
}

onex::Result<Conn> Conn::Open(std::uint16_t port) {
  ONEX_ASSIGN_OR_RETURN(onex::net::Socket socket,
                        onex::net::ConnectTcp("127.0.0.1", port));
  ONEX_RETURN_IF_ERROR(UpgradeBinary(&socket));
  ONEX_RETURN_IF_ERROR(onex::net::SetNonBlocking(socket.fd()));
  Conn conn;
  conn.socket_ = std::move(socket);
  return conn;
}

std::int64_t Conn::Queue(std::uint64_t id, const std::string& text,
                         const std::vector<double>& values) {
  onex::net::Frame frame;
  frame.type = onex::net::FrameType::kRequest;
  frame.request_id = id;
  frame.text = text;
  frame.values = values;
  const std::int64_t t0 = NowNs();
  std::string bytes = onex::net::EncodeFrame(frame);
  const std::int64_t t1 = NowNs();
  out_ += bytes;
  return t1 - t0;
}

onex::Status Conn::Pump(std::int64_t timeout_ns,
                        const std::function<void(Response&&)>& on_response) {
  const bool want_out = out_off_ < out_.size();
  pollfd p{socket_.fd(),
           static_cast<short>(POLLIN | (want_out ? POLLOUT : 0)), 0};
  timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
              static_cast<long>(timeout_ns % 1000000000)};
  if (timeout_ns < 0) ts = {0, 0};
  const int ready = ::ppoll(&p, 1, &ts, nullptr);
  if (ready < 0 && errno != EINTR) return onex::Status::IoError("ppoll failed");

  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(socket_.fd(), out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return onex::Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    out_off_ += static_cast<std::size_t>(n);
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }

  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(socket_.fd(), chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return onex::Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) return onex::Status::IoError("server closed the connection");
    in_.append(chunk, static_cast<std::size_t>(n));
  }

  static const onex::net::FrameLimits limits = onex::net::ResponseFrameLimits();
  while (true) {
    const std::int64_t t0 = NowNs();
    onex::net::FrameDecodeResult r = onex::net::DecodeFrame(
        std::string_view(in_).substr(in_off_), limits);
    const std::int64_t t1 = NowNs();
    if (r.state == onex::net::FrameDecodeState::kError) return r.error;
    if (r.state == onex::net::FrameDecodeState::kNeedMore) break;
    in_off_ += r.consumed;
    on_response(Response{std::move(r.frame), t1 - t0});
  }
  if (in_off_ == in_.size()) {
    in_.clear();
    in_off_ = 0;
  } else if (in_off_ > (1u << 20)) {
    in_.erase(0, in_off_);
    in_off_ = 0;
  }
  return onex::Status::OK();
}

onex::Result<Control> Control::Open(std::uint16_t port) {
  ONEX_ASSIGN_OR_RETURN(onex::net::Socket socket,
                        onex::net::ConnectTcp("127.0.0.1", port));
  ONEX_RETURN_IF_ERROR(UpgradeBinary(&socket));
  Control control;
  control.socket_ = std::move(socket);
  return control;
}

onex::Result<onex::net::Frame> Control::Call(const std::string& text,
                                             const std::vector<double>& values) {
  onex::net::Frame frame;
  frame.type = onex::net::FrameType::kRequest;
  frame.request_id = next_id_++;
  frame.text = text;
  frame.values = values;
  ONEX_RETURN_IF_ERROR(socket_.SendAll(onex::net::EncodeFrame(frame)));
  static const onex::net::FrameLimits limits = onex::net::ResponseFrameLimits();
  while (true) {
    onex::net::FrameDecodeResult r = onex::net::DecodeFrame(in_, limits);
    if (r.state == onex::net::FrameDecodeState::kError) return r.error;
    if (r.state == onex::net::FrameDecodeState::kFrame) {
      in_.erase(0, r.consumed);
      if (r.frame.request_id != frame.request_id) {
        return onex::Status::IoError("response id does not match the request");
      }
      return std::move(r.frame);
    }
    char chunk[65536];
    const ssize_t n = ::recv(socket_.fd(), chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return onex::Status::IoError("server closed the connection");
    in_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace servebench
