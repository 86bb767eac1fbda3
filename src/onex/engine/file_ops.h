#ifndef ONEX_ENGINE_FILE_OPS_H_
#define ONEX_ENGINE_FILE_OPS_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "onex/common/result.h"

namespace onex {

class ArenaMapping;  // core/arena_layout.h

/// An open file that only grows: a WAL's handle. Append hands the bytes to
/// the kernel (one write, then a flush), so a process crash keeps them;
/// Sync makes them survive a power loss too (fsync).
class AppendFile {
 public:
  AppendFile() = default;
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  virtual ~AppendFile() = default;

  virtual Status Append(std::string_view bytes) = 0;
  virtual Status Sync() = 0;
};

/// One entry of a directory listing.
struct DirEntry {
  std::string name;
  bool is_dir = false;
};

/// Every call the durability layer makes that changes the disk or maps it
/// (DESIGN.md §13), so a test can record their order or make one fail.
/// PosixFiles() is the production implementation; a test passes its own
/// through DurabilityOptions::files. Reads (a WAL scan, a checkpoint read
/// into memory) call the kernel directly: they change nothing a crash
/// could lose. A mapping goes through Map, because the stores it serves
/// pin it past the call.
class FileOps {
 public:
  FileOps() = default;
  FileOps(const FileOps&) = delete;
  FileOps& operator=(const FileOps&) = delete;
  virtual ~FileOps() = default;

  /// Opens `path` for appending; with `create` the file must not exist yet.
  virtual Result<std::unique_ptr<AppendFile>> OpenAppend(
      const std::string& path, bool create) = 0;
  /// Writes `bytes` as the whole content of `path`, fsync'd when `sync`. A
  /// failed write removes what it wrote.
  virtual Status WriteFile(const std::string& path, std::string_view bytes,
                           bool sync) = 0;
  virtual Status SyncDir(const std::string& dir) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  /// Removes a file, or a directory with everything in it; a missing path
  /// is not an error.
  virtual Status Remove(const std::string& path) = 0;
  /// With `exclusive`, creates exactly one new directory (an existing one
  /// is an error); otherwise creates `dir` and any missing parents.
  virtual Status MakeDir(const std::string& dir, bool exclusive) = 0;
  virtual Result<std::vector<DirEntry>> List(const std::string& dir) = 0;
  virtual Status Truncate(const std::string& path, std::size_t size) = 0;
  virtual Result<std::shared_ptr<const ArenaMapping>> Map(
      const std::string& path) = 0;

  /// `path` ends up holding either its old content or all of `bytes`:
  /// written to `path.tmp`, renamed over it, and with `sync` the file and
  /// its directory fsync'd.
  Status WriteAtomically(const std::string& path, std::string_view bytes,
                         bool sync);
};

/// The POSIX implementation (engine/posix_file_ops.cc); one serves the
/// whole process.
FileOps& PosixFiles();

/// The directory holding `path` ("." for a bare name).
std::string ParentDir(const std::string& path);

}  // namespace onex

#endif  // ONEX_ENGINE_FILE_OPS_H_
