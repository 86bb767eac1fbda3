#ifndef ONEX_ENGINE_SLOT_JOURNAL_H_
#define ONEX_ENGINE_SLOT_JOURNAL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "onex/common/result.h"
#include "onex/engine/dataset_registry.h"
#include "onex/engine/wal.h"

namespace onex {

/// One durable slot's files and its log position (DESIGN.md §13). A slot
/// lives in `<data-dir>/<SlotDirName(name)>/`:
///
///   wal               the log: header, replay floor, then one record per
///                     acknowledged write
///   ckpt-<L>          the arena checkpoint the log's marker names
///   ckpt.partial-<n>  a checkpoint being written; never referenced
///   wal.tmp           the rotated log being written
///
/// and a dropped slot's directory becomes `<dir>.dropped-<n>` until it is
/// removed. The journal owns every name and every ordering rule for these
/// files; each call goes through DurabilityOptions::files. The registry
/// calls it under the slot lock as each method states.
class SlotJournal {
 public:
  /// A checkpoint file written but not yet part of the log (Stage).
  struct Staged {
    std::string path;
    std::size_t bytes = 0;
  };

  /// Birth, before the slot is published: creates the slot's directory
  /// and WAL, then writes the replay floor — a checkpoint of `snapshot`
  /// when it is prepared (LOADBASE), else `*load` appended as the first
  /// record (see Append for `replicated`). With `options.fsync` the WAL,
  /// the slot directory and the data directory are fsync'd before the
  /// floor is written. A failure removes the directory.
  static Result<std::shared_ptr<SlotJournal>> Create(
      const DurabilityOptions& options, const std::string& name,
      const PreparedDataset& snapshot, WalRecord* load, bool replicated);

  /// Creates the data directory (fsyncing its parent with
  /// `options.fsync`), removes drop tombstones a crash left, and returns
  /// the remaining slot directories in name order.
  static Result<std::vector<std::string>> OpenDataDir(
      const DurabilityOptions& options);

  /// Recovery of one slot directory: sweeps checkpoint scratch, scans the
  /// WAL (truncating a torn tail, which was never acknowledged), loads the
  /// checkpoint its marker names and replays the tail into `*snapshot`.
  /// Returns null for a directory holding no slot: one without a WAL, or
  /// one torn at birth (removed). Any other damage is a structured error.
  static Result<std::shared_ptr<SlotJournal>> Recover(
      const DurabilityOptions& options, const std::string& dir,
      std::shared_ptr<const PreparedDataset>* snapshot);

  /// Journals `record` at the next seq (last_seq() + 1): a local record is
  /// numbered here; a replicated one must already carry that seq
  /// (FailedPrecondition otherwise: the stream has a gap). Caller holds
  /// the slot's exclusive lock, or the slot is not yet published.
  Status Append(WalRecord* record, bool replicated);

  /// Rotation step 1, with no lock held: writes `snapshot`'s arena
  /// (EncodeCheckpoint) to a fresh ckpt.partial file.
  Result<Staged> Stage(const PreparedDataset& snapshot);
  /// Removes a staged file that will not be rotated in (a writer landed).
  void Unstage(const Staged& staged);
  /// Rotation step 2, under the slot's exclusive lock: renames the staged
  /// file to ckpt-L (L = last_seq()), restarts the WAL at header +
  /// `r L+1 ckpt L` through wal.tmp, and reopens it. Before the WAL rename
  /// a failure removes ckpt-L and leaves the old log intact; a failed
  /// directory fsync after it latches the writer fail-stop. A retired
  /// journal's directory may already belong to a new slot of the same
  /// name: it removes the staged file and answers FailedPrecondition.
  Result<CheckpointInfo> Rotate(const Staged& staged);
  /// Rotation step 3, under the slot's shared lock: removes checkpoint
  /// files older than `state_seq` (best-effort); a retired journal removes
  /// nothing. Only-older keeps a concurrent newer rotation's file safe; a
  /// newer file left by a crash between the two renames is unreferenced,
  /// and the next rotation at its seq replaces it.
  void RemoveCheckpointsBefore(std::uint64_t state_seq);

  /// Maps the checkpoint the log's marker names (the mapped tier).
  Result<PreparedDataset> MapCheckpoint() const;

  /// Every record in the log with a seq above `seq`, in order.
  Result<std::vector<WalRecord>> RecordsAfter(std::uint64_t seq) const;

  /// Drop, step 1: renames the directory to a tombstone, the commit point,
  /// and retires the journal: no later rotation touches the directory
  /// name, which a new slot of this name may reuse. Caller holds the
  /// slot's exclusive lock, so no rotation step runs meanwhile, and the
  /// registry's map lock, so no new slot of this name can create its
  /// directory meanwhile.
  Status Retire(std::uint64_t tag);
  /// Drop, step 2, with no lock held: with fsync on, makes the rename
  /// durable (fsync of the data directory); then removes the tombstone. A
  /// tombstone left behind is removed by the next OpenDataDir.
  Status Sweep();

  const std::string& name() const { return name_; }
  std::uint64_t last_seq() const { return last_seq_.load(); }
  /// Records journaled since the last checkpoint.
  std::uint64_t dirty() const { return records_since_ckpt_.load(); }
  std::uint64_t last_checkpoint_seq() const { return last_ckpt_seq_.load(); }
  std::uint64_t checkpoints() const { return checkpoints_completed_.load(); }

 private:
  SlotJournal(const DurabilityOptions& options, std::string name,
              std::string dir, WalWriter writer);
  std::string CheckpointPath(std::uint64_t state_seq) const;
  /// Rebuilds the state `scan` holds into `*snapshot`, setting the
  /// counters as it goes.
  Status Replay(const WalScan& scan,
                std::shared_ptr<const PreparedDataset>* snapshot);

  FileOps& files_;
  const bool fsync_;
  const std::string name_;
  const std::string dir_;
  const std::string wal_path_;
  std::string tombstone_;  ///< Set by Retire, read by Sweep (one thread).
  /// Set by Retire; guarded by the slot lock, like the rotation steps that
  /// read it.
  bool retired_ = false;
  /// Guarded by the slot's exclusive lock (appends are bound to installs);
  /// the counters are atomics so DESCRIBE/STATS read them without locking.
  WalWriter writer_;
  std::atomic<std::uint64_t> last_seq_{0};
  std::atomic<std::uint64_t> records_since_ckpt_{0};
  std::atomic<std::uint64_t> last_ckpt_seq_{0};
  std::atomic<std::uint64_t> checkpoints_completed_{0};
};

/// One WAL record applied to one snapshot: the per-record state transition
/// shared by recovery replay and the replication apply path, both routed
/// through the snapshot writers the live engine uses (snapshot_ops.h).
/// Same inputs, same code, same order: a replica at seq S, a recovery at
/// seq S and the pre-crash primary at seq S are the same bytes. `snap` is
/// null only before the first record, where kLoad is the only legal type.
/// A checkpoint marker never applies here: rotation owns it.
Result<std::shared_ptr<const PreparedDataset>> ApplyWalRecordToSnapshot(
    const std::string& name, std::shared_ptr<const PreparedDataset> snap,
    const WalRecord& rec);

}  // namespace onex

#endif  // ONEX_ENGINE_SLOT_JOURNAL_H_
