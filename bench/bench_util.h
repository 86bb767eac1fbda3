#ifndef ONEX_BENCH_BENCH_UTIL_H_
#define ONEX_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "onex/distance/kernels.h"
#include "onex/json/json.h"

namespace onex::bench {

/// std::thread::hardware_concurrency(), with its "unknown" 0 read as 1.
inline std::size_t HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// First line of a shell command's stdout, or "" when it prints nothing.
inline std::string FirstLineOf(const char* command) {
  std::string line;
  if (FILE* pipe = ::popen(command, "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) line = buf;
    ::pclose(pipe);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

/// The "host" block every BENCH_*.json carries, so a figure is never read
/// without the machine and program that produced it: hardware threads, the
/// active distance-kernel table, the source tree's git commit ("-dirty"
/// when tracked files differ from it, "none" outside a git checkout) and
/// the CMake build type.
inline json::Value HostBlock() {
  const std::string git = std::string("git -C '") + ONEX_SOURCE_DIR + "' ";
  std::string commit = FirstLineOf((git + "rev-parse HEAD 2>/dev/null").c_str());
  if (commit.empty()) {
    commit = "none";
  } else if (!FirstLineOf((git + "status --porcelain --untracked-files=no "
                                 "2>/dev/null").c_str())
                  .empty()) {
    commit += "-dirty";
  }
  json::Value host = json::Value::MakeObject();
  host.Set("hardware_threads", HardwareThreads());
  host.Set("kernel", std::string(ActiveKernel().name));
  host.Set("git_commit", commit);
  host.Set("build_type", ONEX_BUILD_TYPE);
  return host;
}

/// Milliseconds elapsed running fn once.
inline double TimeOnceMs(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median of `reps` timed runs (the statistic the tables report; robust to
/// scheduler noise).
inline double MedianMs(const std::function<void()>& fn, int reps = 5) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) times.push_back(TimeOnceMs(fn));
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Fixed-width console table, printed paper-style:
///
///   Table header
///   ------------
///   col1        col2   ...
///   value       value  ...
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]),
                    c < cells.size() ? cells[c].c_str() : "");
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths) total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string FmtZu(std::size_t v) { return std::to_string(v); }

/// Experiment banner: ties console output back to DESIGN.md's index.
inline void Banner(const char* experiment, const char* paper_artifact,
                   const char* claim) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", experiment, paper_artifact);
  std::printf("paper: %s\n", claim);
  std::printf("==========================================================\n");
}

}  // namespace onex::bench

#endif  // ONEX_BENCH_BENCH_UTIL_H_
