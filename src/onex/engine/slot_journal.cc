#include "onex/engine/slot_journal.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "onex/common/string_utils.h"
#include "onex/engine/snapshot_ops.h"

namespace onex {

Result<std::shared_ptr<const PreparedDataset>> ApplyWalRecordToSnapshot(
    const std::string& name, std::shared_ptr<const PreparedDataset> snap,
    const WalRecord& rec) {
  if (snap == nullptr && rec.type != WalRecordType::kLoad) {
    return Status::ParseError(StrFormat(
        "wal record %llu (%s) arrives before any load or checkpoint",
        static_cast<unsigned long long>(rec.seq),
        WalRecordTypeToString(rec.type)));
  }
  switch (rec.type) {
    case WalRecordType::kLoad: {
      if (snap != nullptr) {
        return Status::ParseError("duplicate load record in wal");
      }
      auto fresh = std::make_shared<PreparedDataset>();
      fresh->name = name;
      fresh->raw = std::make_shared<const Dataset>(rec.dataset);
      snap = std::move(fresh);
      break;
    }
    case WalRecordType::kAppend: {
      ONEX_ASSIGN_OR_RETURN(snap, ApplyAppend(*snap, rec.series));
      break;
    }
    case WalRecordType::kExtend: {
      ONEX_ASSIGN_OR_RETURN(ExtendOutcome outcome,
                            ApplyExtend(*snap, rec.extensions));
      snap = std::move(outcome.snapshot);
      break;
    }
    case WalRecordType::kPrepare: {
      ONEX_ASSIGN_OR_RETURN(snap,
                            BuildSnapshot(snap, rec.options, rec.norm));
      break;
    }
    case WalRecordType::kRegroup: {
      ONEX_ASSIGN_OR_RETURN(
          std::shared_ptr<const PreparedDataset> next,
          ApplyRegroup(*snap, rec.lengths));
      snap = std::move(next);
      break;
    }
    case WalRecordType::kCheckpoint:
      return Status::ParseError(
          "checkpoint record in the replay tail (log was never rotated)");
  }
  return snap;
}

SlotJournal::SlotJournal(const DurabilityOptions& options, std::string name,
                         std::string dir, WalWriter writer)
    : files_(*options.files),
      fsync_(options.fsync),
      name_(std::move(name)),
      dir_(std::move(dir)),
      wal_path_(dir_ + "/wal"),
      writer_(std::move(writer)) {}

std::string SlotJournal::CheckpointPath(std::uint64_t state_seq) const {
  return dir_ + "/ckpt-" + std::to_string(state_seq);
}

Result<std::shared_ptr<SlotJournal>> SlotJournal::Create(
    const DurabilityOptions& options, const std::string& name,
    const PreparedDataset& snapshot, WalRecord* load, bool replicated) {
  FileOps& files = *options.files;
  const std::string dir = options.dir + "/" + SlotDirName(name);
  // NOT removed on failure: an existing directory belongs to an existing
  // slot (or a racing creator), never to us.
  ONEX_RETURN_IF_ERROR(files.MakeDir(dir, /*exclusive=*/true));
  // From here on the directory is ours; a partial failure must not leave a
  // husk behind (it would wedge the name for every later LOAD).
  Result<std::shared_ptr<SlotJournal>> born =
      [&]() -> Result<std::shared_ptr<SlotJournal>> {
    ONEX_ASSIGN_OR_RETURN(
        WalWriter writer,
        WalWriter::Create(dir + "/wal", name, options.fsync, files));
    if (options.fsync) {
      // The WAL's entry in the slot directory, then the slot directory's
      // entry in the data directory.
      ONEX_RETURN_IF_ERROR(files.SyncDir(dir));
      ONEX_RETURN_IF_ERROR(files.SyncDir(options.dir));
    }
    std::shared_ptr<SlotJournal> journal(
        new SlotJournal(options, name, dir, std::move(writer)));
    if (!snapshot.prepared()) {
      ONEX_RETURN_IF_ERROR(journal->Append(load, replicated));
      return journal;
    }
    ONEX_ASSIGN_OR_RETURN(Staged staged, journal->Stage(snapshot));
    ONEX_RETURN_IF_ERROR(journal->Rotate(staged).status());
    return journal;
  }();
  if (!born.ok()) (void)files.Remove(dir);
  return born;
}

Result<std::vector<std::string>> SlotJournal::OpenDataDir(
    const DurabilityOptions& options) {
  FileOps& files = *options.files;
  ONEX_RETURN_IF_ERROR(files.MakeDir(options.dir, /*exclusive=*/false));
  if (options.fsync) {
    ONEX_RETURN_IF_ERROR(files.SyncDir(ParentDir(options.dir)));
  }
  ONEX_ASSIGN_OR_RETURN(std::vector<DirEntry> entries,
                        files.List(options.dir));
  std::vector<std::string> dirs;
  for (const DirEntry& entry : entries) {
    if (!entry.is_dir) continue;
    const std::string path = options.dir + "/" + entry.name;
    if (entry.name.find(".dropped-") != std::string::npos) {
      // A Drop retired this journal (the rename is the commit point); the
      // crash came before the sweep. Finish the job.
      (void)files.Remove(path);
      continue;
    }
    dirs.push_back(path);
  }
  std::sort(dirs.begin(), dirs.end());
  return dirs;
}

Result<std::shared_ptr<SlotJournal>> SlotJournal::Recover(
    const DurabilityOptions& options, const std::string& dir,
    std::shared_ptr<const PreparedDataset>* snapshot) {
  FileOps& files = *options.files;
  const std::string wal_path = dir + "/wal";
  ONEX_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, files.List(dir));
  if (std::none_of(entries.begin(), entries.end(),
                   [](const DirEntry& e) { return e.name == "wal"; })) {
    return std::shared_ptr<SlotJournal>();
  }
  // Sweep checkpoint scratch a crash may have stranded: partials were
  // never referenced by any log. Safe here (and only here) because no
  // checkpoint can be in flight during recovery.
  for (const DirEntry& entry : entries) {
    if (entry.name.starts_with("ckpt.partial-")) {
      (void)files.Remove(dir + "/" + entry.name);
    }
  }
  Result<WalScan> scanned = ScanWalFile(wal_path);
  if (!scanned.ok()) {
    return Status(scanned.status().code(), "recovering '" + dir + "': " +
                                               scanned.status().message());
  }
  const WalScan scan = *std::move(scanned);
  if (scan.embryonic || scan.records.empty()) {
    // Torn at birth (or header-only): no write was ever acknowledged, so
    // no slot exists. Remove the husk — leaving it would wedge the name
    // forever (a later LOAD of the same dataset could never create its
    // journal directory).
    (void)files.Remove(dir);
    return std::shared_ptr<SlotJournal>();
  }
  if (scan.torn_tail) {
    // The final append never completed, so it was never acknowledged;
    // truncate to the clean prefix so the reopened writer extends valid
    // history.
    ONEX_RETURN_IF_ERROR(files.Truncate(wal_path, scan.valid_bytes));
  }
  ONEX_ASSIGN_OR_RETURN(WalWriter writer,
                        WalWriter::OpenExisting(wal_path, options.fsync,
                                                files));
  std::shared_ptr<SlotJournal> journal(
      new SlotJournal(options, scan.dataset_name, dir, std::move(writer)));
  if (Status s = journal->Replay(scan, snapshot); !s.ok()) {
    return Status(s.code(), "recovering slot '" + scan.dataset_name +
                                "' from '" + dir + "': " + s.message());
  }
  // Checkpoint files older than the one the log references are orphans
  // from superseded rotations; drop them.
  journal->RemoveCheckpointsBefore(journal->last_checkpoint_seq());
  return journal;
}

Status SlotJournal::Replay(const WalScan& scan,
                           std::shared_ptr<const PreparedDataset>* snapshot) {
  // A checkpoint marker is only ever written by the log rotation, which
  // rewrites the WAL to header + marker — so a legal log carries at most
  // one, and only as its FIRST record (the replay floor). The apply switch
  // rejects any other placement as structured corruption.
  std::size_t start = 0;
  std::shared_ptr<const PreparedDataset> snap;
  const WalRecord& floor = scan.records.front();
  if (floor.type == WalRecordType::kCheckpoint) {
    start = 1;
    last_ckpt_seq_.store(floor.checkpoint_seq);
    last_seq_.store(floor.seq);
    // Serve the checkpoint from its mapping: cold start pays a page-in per
    // touched page instead of reading every dataset up front. Records after
    // the marker replay on top, and the first of them recomputes every
    // class into heap stores, as a live write onto a mapped slot does. An
    // unmappable checkpoint falls back to the heap read; corruption
    // surfaces there as usual.
    Result<PreparedDataset> floor_state = MapCheckpoint();
    if (!floor_state.ok()) {
      floor_state =
          ReadCheckpointFile(CheckpointPath(floor.checkpoint_seq), name_);
    }
    if (!floor_state.ok()) return floor_state.status();
    snap = std::make_shared<const PreparedDataset>(*std::move(floor_state));
  }
  for (std::size_t i = start; i < scan.records.size(); ++i) {
    const WalRecord& rec = scan.records[i];
    ONEX_ASSIGN_OR_RETURN(
        snap, ApplyWalRecordToSnapshot(name_, std::move(snap), rec));
    last_seq_.store(rec.seq);
    records_since_ckpt_.fetch_add(1);
  }
  if (snap == nullptr) {
    return Status::ParseError("wal holds no state (no load, no checkpoint)");
  }
  *snapshot = std::move(snap);
  return Status::OK();
}

Status SlotJournal::Append(WalRecord* record, bool replicated) {
  const std::uint64_t next = last_seq_.load() + 1;
  if (replicated && record->seq != next) {
    return Status::FailedPrecondition(StrFormat(
        "replicated record seq %llu does not continue the wal of '%s' at "
        "%llu (resubscribe)",
        static_cast<unsigned long long>(record->seq), name_.c_str(),
        static_cast<unsigned long long>(next)));
  }
  record->seq = next;
  ONEX_RETURN_IF_ERROR(writer_.Append(*record));
  last_seq_.store(next);
  records_since_ckpt_.fetch_add(1);
  return Status::OK();
}

Result<SlotJournal::Staged> SlotJournal::Stage(
    const PreparedDataset& snapshot) {
  static std::atomic<std::uint64_t> counter{0};
  ONEX_ASSIGN_OR_RETURN(std::string arena, EncodeCheckpoint(snapshot));
  Staged staged{dir_ + "/ckpt.partial-" + std::to_string(counter.fetch_add(1)),
                arena.size()};
  ONEX_RETURN_IF_ERROR(files_.WriteFile(staged.path, arena, fsync_));
  return staged;
}

void SlotJournal::Unstage(const Staged& staged) {
  (void)files_.Remove(staged.path);
}

Result<CheckpointInfo> SlotJournal::Rotate(const Staged& staged) {
  // Only cheap, atomic file ops under the slot lock: the capture rename
  // and the tiny log restart must be one atomic step with respect to
  // writers. Failure handling is phase-aware: before the log rotation
  // renames, aborting is safe (the old WAL never references the new
  // file); once the rotation rename has happened, the checkpoint is the
  // log's replay floor and must never be deleted — an ambiguous outcome
  // (rename done, directory fsync failed) latches the writer fail-stop.
  if (retired_) {
    Unstage(staged);
    return Status::FailedPrecondition("dataset '" + name_ +
                                      "' was dropped during its checkpoint");
  }
  CheckpointInfo info;
  info.state_seq = last_seq_.load();
  info.bytes = staged.bytes;
  info.path = CheckpointPath(info.state_seq);
  if (Status s = files_.Rename(staged.path, info.path); !s.ok()) {
    Unstage(staged);
    return s;
  }
  if (fsync_) ONEX_RETURN_IF_ERROR(files_.SyncDir(dir_));
  // The marker is numbered like any record: it takes the seq after the
  // state it covers.
  WalRecord marker = WalCheckpointRecord(info.state_seq);
  marker.seq = info.state_seq + 1;
  const std::string wal_tmp = wal_path_ + ".tmp";
  if (Status s = files_.WriteFile(
          wal_tmp, EncodeWalHeader(name_) + EncodeWalRecord(marker), fsync_);
      !s.ok()) {
    (void)files_.Remove(info.path);  // unreferenced; old WAL intact
    return s;
  }
  if (Status s = files_.Rename(wal_tmp, wal_path_); !s.ok()) {
    (void)files_.Remove(wal_tmp);
    (void)files_.Remove(info.path);  // unreferenced; old WAL intact
    return s;
  }
  if (fsync_) {
    if (Status s = files_.SyncDir(dir_); !s.ok()) {
      // The rotation may or may not survive a power loss from here;
      // either on-disk shape alone is consistent, but continuing to
      // acknowledge writes against an unknown one is not.
      writer_.MarkFailed();
      return s;
    }
  }
  // The old handle points at the replaced log: a writer that cannot
  // reopen the new one latches fail-stop.
  Result<WalWriter> reopened = WalWriter::OpenExisting(wal_path_, fsync_,
                                                       files_);
  if (!reopened.ok()) {
    writer_.MarkFailed();
    return reopened.status();
  }
  writer_ = std::move(reopened).value();
  last_seq_.store(marker.seq);
  records_since_ckpt_.store(0);
  last_ckpt_seq_.store(info.state_seq);
  checkpoints_completed_.fetch_add(1);
  return info;
}

void SlotJournal::RemoveCheckpointsBefore(std::uint64_t state_seq) {
  if (retired_) return;
  Result<std::vector<DirEntry>> entries = files_.List(dir_);
  if (!entries.ok()) return;
  for (const DirEntry& entry : *entries) {
    if (!entry.name.starts_with("ckpt-")) continue;
    const Result<long long> seq =
        ParseInt(std::string_view(entry.name).substr(5));
    if (!seq.ok() || *seq < 0) continue;  // not ours; leave it
    if (static_cast<std::uint64_t>(*seq) < state_seq) {
      (void)files_.Remove(dir_ + "/" + entry.name);
    }
  }
}

Result<PreparedDataset> SlotJournal::MapCheckpoint() const {
  return MapCheckpointFile(files_, CheckpointPath(last_ckpt_seq_.load()),
                           name_);
}

Result<std::vector<WalRecord>> SlotJournal::RecordsAfter(
    std::uint64_t seq) const {
  ONEX_ASSIGN_OR_RETURN(WalScan scan, ScanWalFile(wal_path_));
  std::erase_if(scan.records,
                [seq](const WalRecord& r) { return r.seq <= seq; });
  return std::move(scan.records);
}

Status SlotJournal::Retire(std::uint64_t tag) {
  tombstone_ = dir_ + ".dropped-" + std::to_string(tag);
  ONEX_RETURN_IF_ERROR(files_.Rename(dir_, tombstone_));
  retired_ = true;
  return Status::OK();
}

Status SlotJournal::Sweep() {
  // Without the fsync a power loss could bring the dropped slot back.
  if (fsync_) ONEX_RETURN_IF_ERROR(files_.SyncDir(ParentDir(dir_)));
  (void)files_.Remove(tombstone_);
  return Status::OK();
}

}  // namespace onex
