/// The durability layer's file calls, made through a FileOps the test
/// controls (DESIGN.md §13). A recording one checks that every acknowledged
/// slot birth, drop and data-dir creation has made its new directory entry
/// durable (an fsync of the parent directory) before the acknowledgement. A
/// faulting one drives both failure branches of a checkpoint's log
/// rotation, which no real disk fails on demand. Run under every sanitizer
/// in CI.
#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/engine/engine.h"
#include "onex/engine/file_ops.h"
#include "onex/json/json.h"
#include "onex/net/protocol.h"
#include "test_util.h"

namespace onex {
namespace {

namespace fs = std::filesystem;

/// Forwards every call to PosixFiles(), logging it first as "<kind> <path>"
/// ("rename <from> <to>"). One call can be armed to fail instead: the first
/// call logged as `op` after `after` was logged (or at once, for an empty
/// `after`) answers an injected IoError and touches nothing.
class ScriptedFileOps final : public FileOps {
 public:
  void Arm(std::string op, std::string after = "") {
    std::lock_guard<std::mutex> lock(mutex_);
    fail_ = std::move(op);
    after_ = std::move(after);
    after_seen_ = after_.empty();
  }

  /// Holds the first call logged as starting with `prefix`, before it
  /// touches anything, until Release().
  void Hold(std::string prefix) {
    std::lock_guard<std::mutex> lock(hold_mutex_);
    hold_ = std::move(prefix);
  }
  /// Waits until a call is held.
  void AwaitHeld() {
    std::unique_lock<std::mutex> lock(hold_mutex_);
    hold_cv_.wait(lock, [&] { return held_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(hold_mutex_);
    released_ = true;
    hold_cv_.notify_all();
  }

  /// Marks an acknowledgement in the log.
  void Ack(const std::string& what) { (void)Log("ack " + what); }

  std::vector<std::string> log() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return log_;
  }

  Result<std::unique_ptr<AppendFile>> OpenAppend(const std::string& path,
                                                 bool create) override {
    ONEX_RETURN_IF_ERROR(Log((create ? "create " : "open ") + path));
    ONEX_ASSIGN_OR_RETURN(std::unique_ptr<AppendFile> file,
                          PosixFiles().OpenAppend(path, create));
    return std::unique_ptr<AppendFile>(
        new LoggedAppendFile(this, path, std::move(file)));
  }
  Status WriteFile(const std::string& path, std::string_view bytes,
                   bool sync) override {
    ONEX_RETURN_IF_ERROR(Log("write " + path));
    return PosixFiles().WriteFile(path, bytes, sync);
  }
  Status SyncDir(const std::string& dir) override {
    ONEX_RETURN_IF_ERROR(Log("syncdir " + dir));
    return PosixFiles().SyncDir(dir);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    ONEX_RETURN_IF_ERROR(Log("rename " + from + " " + to));
    return PosixFiles().Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    ONEX_RETURN_IF_ERROR(Log("remove " + path));
    return PosixFiles().Remove(path);
  }
  Status MakeDir(const std::string& dir, bool exclusive) override {
    ONEX_RETURN_IF_ERROR(Log("mkdir " + dir));
    return PosixFiles().MakeDir(dir, exclusive);
  }
  Result<std::vector<DirEntry>> List(const std::string& dir) override {
    ONEX_RETURN_IF_ERROR(Log("list " + dir));
    return PosixFiles().List(dir);
  }
  Status Truncate(const std::string& path, std::size_t size) override {
    ONEX_RETURN_IF_ERROR(Log("truncate " + path));
    return PosixFiles().Truncate(path, size);
  }
  Result<std::shared_ptr<const ArenaMapping>> Map(
      const std::string& path) override {
    ONEX_RETURN_IF_ERROR(Log("map " + path));
    return PosixFiles().Map(path);
  }

 private:
  class LoggedAppendFile final : public AppendFile {
   public:
    LoggedAppendFile(ScriptedFileOps* ops, std::string path,
                     std::unique_ptr<AppendFile> file)
        : ops_(ops), path_(std::move(path)), file_(std::move(file)) {}
    Status Append(std::string_view bytes) override {
      ONEX_RETURN_IF_ERROR(ops_->Log("append " + path_));
      return file_->Append(bytes);
    }
    Status Sync() override {
      ONEX_RETURN_IF_ERROR(ops_->Log("sync " + path_));
      return file_->Sync();
    }

   private:
    ScriptedFileOps* ops_;
    std::string path_;
    std::unique_ptr<AppendFile> file_;
  };

  Status Log(const std::string& op) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      log_.push_back(op);
      if (after_seen_ && !fail_.empty() && op == fail_) {
        fail_.clear();
        return Status::IoError("injected fault: " + op);
      }
      if (op == after_) after_seen_ = true;
    }
    std::unique_lock<std::mutex> lock(hold_mutex_);
    if (!hold_.empty() && op.starts_with(hold_)) {
      hold_.clear();
      held_ = true;
      hold_cv_.notify_all();
      hold_cv_.wait(lock, [&] { return released_; });
    }
    return Status::OK();
  }

  mutable std::mutex mutex_;
  std::vector<std::string> log_;
  std::string fail_;
  std::string after_;
  bool after_seen_ = true;

  std::mutex hold_mutex_;
  std::condition_variable hold_cv_;
  std::string hold_;
  bool held_ = false;
  bool released_ = false;
};

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/onex_file_ops_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

json::Value RunLine(Engine* engine, const std::string& line) {
  net::Session session;
  const Result<net::Command> cmd = net::ParseCommandLine(line);
  EXPECT_TRUE(cmd.ok()) << line;
  return net::ExecuteCommand(engine, &session, *cmd);
}

void StripTimings(json::Value* v) {
  if (v->is_object()) {
    v->mutable_object().erase("elapsed_ms");
    for (auto& [key, child] : v->mutable_object()) StripTimings(&child);
  } else if (v->is_array()) {
    for (json::Value& child : v->mutable_array()) StripTimings(&child);
  }
}

/// The MATCH/KNN/CATALOG answers on dataset "A", timings left out.
std::string Answers(Engine* engine) {
  std::string out;
  for (const char* line :
       {"MATCH A q=0:2:8", "KNN A q=1:0:8 k=3", "CATALOG A points=20"}) {
    json::Value v = RunLine(engine, line);
    EXPECT_TRUE(v["ok"].as_bool()) << line << ": " << v.Dump();
    StripTimings(&v);
    out += v.Dump() + "\n";
  }
  return out;
}

/// The index of the first op in `log` at or after `from` that starts with
/// `prefix`, or log.size().
std::size_t Find(const std::vector<std::string>& log, std::size_t from,
                 const std::string& prefix) {
  for (std::size_t i = from; i < log.size(); ++i) {
    if (log[i].starts_with(prefix)) return i;
  }
  return log.size();
}

/// Between the op that made a directory entry (`entry`, the last one before
/// `ack`) and the acknowledgement, the entry's parent directory is fsync'd.
void ExpectEntryDurableBeforeAck(const std::vector<std::string>& log,
                                 const std::string& entry,
                                 const std::string& parent,
                                 const std::string& ack) {
  const std::size_t acked = Find(log, 0, "ack " + ack);
  ASSERT_LT(acked, log.size()) << ack << " was never acknowledged";
  std::size_t made = log.size();
  for (std::size_t i = Find(log, 0, entry); i < acked;
       i = Find(log, i + 1, entry)) {
    made = i;
  }
  ASSERT_LT(made, acked) << "no '" << entry << "' before the " << ack
                         << " acknowledgement";
  const auto synced = std::find(log.begin() + made + 1, log.end(),
                                "syncdir " + parent);
  EXPECT_LT(synced - log.begin(), static_cast<std::ptrdiff_t>(acked))
      << "the " << ack << " acknowledgement came before an fsync of '"
      << parent << "' made '" << entry << "' durable";
}

TEST(EngineFileOps, NewDirectoryEntriesAreDurableBeforeTheAck) {
  const std::string root = FreshDir("entries");
  const std::string data = root + "/data";
  {
    std::ofstream ucr(root + "/l.ucr");
    ucr << "1 0.1 0.4 0.2 0.8 0.5 0.3\n2 0.9 0.2 0.6 0.1 0.7 0.4\n";
  }
  {
    Engine source;
    ASSERT_TRUE(
        source.LoadDataset("s", onex::testing::SmallDataset(3, 16, 5)).ok());
    ASSERT_TRUE(source.Prepare("s", BaseBuildOptions{}).ok());
    ASSERT_TRUE(source.SavePrepared("s", root + "/s.base").ok());
  }
  ScriptedFileOps files;
  DurabilityOptions options;
  options.dir = data;
  options.files = &files;  // fsync stays on: the calls under test need it
  Engine engine;
  // What PERSIST dir= runs; the verb itself cannot take a FileOps.
  ASSERT_TRUE(engine.EnableDurability(options).ok());
  files.Ack("PERSIST");
  for (const auto& [verb, line] :
       std::vector<std::pair<std::string, std::string>>{
           {"GEN", "GEN g walk num=3 len=10"},
           {"LOAD", "LOAD l " + root + "/l.ucr"},
           {"LOADBASE", "LOADBASE b " + root + "/s.base"},
           {"DROP", "DROP g"}}) {
    const json::Value v = RunLine(&engine, line);
    ASSERT_TRUE(v["ok"].as_bool()) << line << ": " << v.Dump();
    files.Ack(verb);
  }

  const std::vector<std::string> log = files.log();
  ExpectEntryDurableBeforeAck(log, "mkdir " + data, root, "PERSIST");
  ExpectEntryDurableBeforeAck(log, "mkdir " + data + "/g", data, "GEN");
  ExpectEntryDurableBeforeAck(log, "mkdir " + data + "/l", data, "LOAD");
  ExpectEntryDurableBeforeAck(log, "mkdir " + data + "/b", data, "LOADBASE");
  ExpectEntryDurableBeforeAck(log, "rename " + data + "/g " + data + "/g.",
                              data, "DROP");
  fs::remove_all(root);
}

/// A slot "A" with a prepared base, one extend and its answers, on a
/// durable engine whose files go through `files`.
struct RotationRig {
  explicit RotationRig(const std::string& tag)
      : dir(FreshDir(tag)), slot(dir + "/A") {
    options.dir = dir;
    options.files = &files;  // fsync on: the second branch needs it
    engine = std::make_unique<Engine>();
    EXPECT_TRUE(engine->EnableDurability(options).ok());
    EXPECT_TRUE(
        engine->LoadDataset("A", onex::testing::SmallDataset(4, 16, 9)).ok());
    BaseBuildOptions build;
    build.st = 0.2;
    build.max_length = 8;
    EXPECT_TRUE(engine->Prepare("A", build).ok());
    EXPECT_TRUE(engine->ExtendSeries("A", 1, {0.2, 0.4}).ok());
  }
  ~RotationRig() { fs::remove_all(dir); }

  std::uint64_t WalSeq() const {
    Result<DatasetSlotInfo> row = engine->registry().Describe("A");
    EXPECT_TRUE(row.ok());
    return row.ok() ? row->wal_seq : 0;
  }

  /// Answers after the engine is shut down and recovered from disk.
  std::string AnswersAfterRestart() {
    engine = std::make_unique<Engine>();
    EXPECT_TRUE(engine->EnableDurability(options).ok());
    return Answers(engine.get());
  }

  ScriptedFileOps files;
  const std::string dir;
  const std::string slot;
  DurabilityOptions options;
  std::unique_ptr<Engine> engine;
};

/// The fresh log's write fails before anything is renamed: the checkpoint
/// file it would have referenced is removed, the old log is untouched, and
/// the slot goes on as if the CHECKPOINT had never run.
TEST(EngineFileOps, RotationWhoseLogWriteFailsLeavesTheOldLog) {
  RotationRig rig("log_write");
  const std::string ckpt = rig.slot + "/ckpt-" + std::to_string(rig.WalSeq());
  const std::string wal_before = ReadFile(rig.slot + "/wal");
  rig.files.Arm("write " + rig.slot + "/wal.tmp");
  EXPECT_FALSE(rig.engine->registry().Checkpoint("A").ok());
  EXPECT_FALSE(fs::exists(ckpt));
  EXPECT_FALSE(fs::exists(rig.slot + "/wal.tmp"));
  EXPECT_EQ(ReadFile(rig.slot + "/wal"), wal_before);

  ASSERT_TRUE(rig.engine->ExtendSeries("A", 2, {0.6, 0.1}).ok());
  ASSERT_TRUE(rig.engine->registry().Checkpoint("A").ok());
  const std::string answers = Answers(rig.engine.get());
  EXPECT_EQ(rig.AnswersAfterRestart(), answers);
}

/// The directory fsync after the log rename fails, so whether the rotation
/// survives a power loss is unknown: the writer latches fail-stop, and a
/// restart recovers every acknowledged write and nothing beyond it.
TEST(EngineFileOps, RotationWhoseDirectorySyncFailsLatchesFailStop) {
  RotationRig rig("dir_sync");
  const std::string acked = Answers(rig.engine.get());
  rig.files.Arm("syncdir " + rig.slot,
                "rename " + rig.slot + "/wal.tmp " + rig.slot + "/wal");
  EXPECT_FALSE(rig.engine->registry().Checkpoint("A").ok());
  EXPECT_FALSE(rig.engine->ExtendSeries("A", 2, {0.6, 0.1}).ok());
  EXPECT_EQ(Answers(rig.engine.get()), acked);
  EXPECT_EQ(rig.AnswersAfterRestart(), acked);
}

/// Records follow the checkpoint marker: recovery still maps the
/// checkpoint the marker names and replays the records on top of it. The
/// first replayed write recomputes every class into heap stores, so the
/// slot comes back resident with the live answers.
TEST(EngineFileOps, RecoveryMapsTheCheckpointUnderARecordTail) {
  RotationRig rig("map_tail");
  Result<CheckpointInfo> ckpt = rig.engine->registry().Checkpoint("A");
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  ASSERT_TRUE(rig.engine->ExtendSeries("A", 0, {0.3, -0.1}).ok());
  ASSERT_TRUE(rig.engine->ExtendSeries("A", 2, {0.5}).ok());
  const std::string live = Answers(rig.engine.get());
  const std::size_t from = rig.files.log().size();

  EXPECT_EQ(rig.AnswersAfterRestart(), live);
  const std::vector<std::string> log = rig.files.log();
  EXPECT_LT(Find(log, from, "map " + ckpt->path), log.size())
      << "recovery did not map " << ckpt->path;
  Result<DatasetSlotInfo> row = rig.engine->registry().Describe("A");
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ(row->tier, "resident");
  EXPECT_EQ(row->wal_dirty, 2u);
}

/// A checkpoint of A is still writing its arena when A is dropped and a
/// new A is born, loaded, prepared and extended. The old checkpoint must
/// not rotate the new A's directory: its rotation is refused, and after a
/// restart the new A answers with its own LOAD, PREPARE and EXTEND.
TEST(EngineFileOps, CheckpointOutlivedByItsSlotLeavesTheNewSlotAlone) {
  RotationRig rig("drop_race");
  rig.files.Hold("write " + rig.slot + "/ckpt.partial-");
  Status checkpointed;
  std::thread checkpoint(
      [&] { checkpointed = rig.engine->registry().Checkpoint("A").status(); });
  rig.files.AwaitHeld();

  // EXPECT, not ASSERT, up to the release: the held thread must be let go.
  EXPECT_TRUE(rig.engine->DropDataset("A").ok());
  EXPECT_TRUE(
      rig.engine->LoadDataset("A", onex::testing::SmallDataset(5, 20, 3)).ok());
  BaseBuildOptions build;
  build.st = 0.3;
  build.max_length = 10;
  EXPECT_TRUE(rig.engine->Prepare("A", build).ok());
  EXPECT_TRUE(rig.engine->ExtendSeries("A", 2, {0.7, 0.3, 0.5}).ok());
  const std::string answers = Answers(rig.engine.get());

  rig.files.Release();
  checkpoint.join();
  EXPECT_EQ(checkpointed.code(), StatusCode::kFailedPrecondition)
      << checkpointed;
  EXPECT_EQ(rig.AnswersAfterRestart(), answers);
}

}  // namespace
}  // namespace onex
