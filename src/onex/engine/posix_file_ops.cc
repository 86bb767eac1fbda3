#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "onex/core/arena_layout.h"
#include "onex/engine/file_ops.h"

namespace onex {
namespace {

/// OK when `ok`; otherwise an IoError naming the step, the path and errno.
Status Check(bool ok, const char* what, const std::string& path) {
  if (ok) return Status::OK();
  return Status::IoError(std::string(what) + " '" + path +
                         "': " + std::strerror(errno));
}

/// stdio keeps the WAL's syscalls at one write per append (the flush) and
/// one fsync per Sync.
class PosixAppendFile final : public AppendFile {
 public:
  PosixAppendFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}
  ~PosixAppendFile() override { std::fclose(file_); }

  Status Append(std::string_view bytes) override {
    return Check(
        std::fwrite(bytes.data(), 1, bytes.size(), file_) == bytes.size() &&
            std::fflush(file_) == 0,
        "cannot write", path_);
  }

  Status Sync() override {
    return Check(::fsync(::fileno(file_)) == 0, "cannot fsync", path_);
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class PosixFileOps final : public FileOps {
 public:
  Result<std::unique_ptr<AppendFile>> OpenAppend(const std::string& path,
                                                 bool create) override {
    std::FILE* f = std::fopen(path.c_str(), create ? "wbx" : "ab");
    ONEX_RETURN_IF_ERROR(Check(f != nullptr, "cannot open", path));
    return std::unique_ptr<AppendFile>(new PosixAppendFile(f, path));
  }

  Status WriteFile(const std::string& path, std::string_view bytes,
                   bool sync) override {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ONEX_RETURN_IF_ERROR(Check(f != nullptr, "cannot create", path));
    const Status wrote = Check(
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
            std::fflush(f) == 0 && (!sync || ::fsync(::fileno(f)) == 0),
        "cannot write", path);
    std::fclose(f);
    if (!wrote.ok()) std::remove(path.c_str());
    return wrote;
  }

  Status SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    ONEX_RETURN_IF_ERROR(Check(fd >= 0, "cannot open dir", dir));
    const Status synced = Check(::fsync(fd) == 0, "cannot fsync dir", dir);
    ::close(fd);
    return synced;
  }

  Status Rename(const std::string& from, const std::string& to) override {
    return Check(std::rename(from.c_str(), to.c_str()) == 0, "cannot rename",
                 from);
  }

  Status Remove(const std::string& path) override {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    return ec ? Status::IoError("cannot remove '" + path + "': " + ec.message())
              : Status::OK();
  }

  Status MakeDir(const std::string& dir, bool exclusive) override {
    std::error_code ec;
    // create_directories answers false, with no error, for a directory
    // that already exists.
    const bool made = exclusive
                          ? std::filesystem::create_directory(dir, ec)
                          : std::filesystem::create_directories(dir, ec) || !ec;
    if (made && !ec) return Status::OK();
    return Status::IoError("cannot create dir '" + dir + "': " +
                           (ec ? ec.message() : "already exists"));
  }

  Result<std::vector<DirEntry>> List(const std::string& dir) override {
    std::vector<DirEntry> entries;
    std::error_code ec;
    std::error_code type_ec;  // an entry of unknown type lists as a file
    for (const auto& entry :
         std::filesystem::directory_iterator(dir, ec)) {
      entries.push_back({entry.path().filename().string(),
                         entry.is_directory(type_ec)});
    }
    if (ec) {
      return Status::IoError("cannot list '" + dir + "': " + ec.message());
    }
    return entries;
  }

  Status Truncate(const std::string& path, std::size_t size) override {
    return Check(::truncate(path.c_str(), static_cast<off_t>(size)) == 0,
                 "cannot truncate", path);
  }

  Result<std::shared_ptr<const ArenaMapping>> Map(
      const std::string& path) override {
    return ArenaMapping::Map(path);
  }
};

}  // namespace

Status FileOps::WriteAtomically(const std::string& path,
                                std::string_view bytes, bool sync) {
  const std::string tmp = path + ".tmp";
  ONEX_RETURN_IF_ERROR(WriteFile(tmp, bytes, sync));
  if (Status s = Rename(tmp, path); !s.ok()) {
    (void)Remove(tmp);
    return s;
  }
  return sync ? SyncDir(ParentDir(path)) : Status::OK();
}

FileOps& PosixFiles() {
  static PosixFileOps ops;
  return ops;
}

std::string ParentDir(const std::string& path) {
  const std::size_t end = path.find_last_not_of('/');
  if (end == std::string::npos) return path.empty() ? "." : "/";
  const std::size_t slash = path.find_last_of('/', end);
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace onex
