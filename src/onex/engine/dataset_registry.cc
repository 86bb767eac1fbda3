#include "onex/engine/dataset_registry.h"

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "onex/common/string_utils.h"
#include "onex/core/arena_layout.h"
#include "onex/engine/snapshot_ops.h"
#include "onex/engine/wal.h"

namespace onex {

/// Per-slot durability state. The WalWriter is guarded by the slot's
/// exclusive mutex (appends are bound to installs); the counters are
/// atomics so Describe/STATS read them without locking.
struct SlotJournal {
  std::string dir;       ///< Slot directory under the registry data dir.
  std::string wal_path;  ///< dir + "/wal".
  std::optional<WalWriter> writer;
  std::atomic<std::uint64_t> last_seq{0};
  std::atomic<std::uint64_t> records_since_ckpt{0};
  std::atomic<std::uint64_t> last_ckpt_seq{0};
  std::atomic<std::uint64_t> checkpoints_completed{0};
  /// One background checkpoint per slot at a time.
  std::atomic<bool> ckpt_inflight{false};
};

namespace {

std::string CheckpointPath(const std::string& dir, std::uint64_t state_seq) {
  return dir + "/ckpt-" + std::to_string(state_seq);
}

/// Deletes checkpoint files strictly OLDER than `keep_seq` (best-effort).
/// Only-older is what makes the deferred cleanup safe against concurrent
/// checkpoints: state seqs are monotone, so a later checkpoint's file is
/// always numbered past every earlier caller's keep_seq and can never be
/// collected by a stale cleanup. A dangling NEWER file (crash between
/// checkpoint rename and log rotation) is unreferenced garbage that the
/// next checkpoint at that seq atomically overwrites.
void CleanupCheckpoints(const std::string& dir, std::uint64_t keep_seq) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string fname = entry.path().filename().string();
    if (!fname.starts_with("ckpt-")) continue;
    const Result<long long> seq =
        ParseInt(std::string_view(fname).substr(5));
    if (!seq.ok() || *seq < 0) continue;  // not ours; leave it
    if (static_cast<std::uint64_t>(*seq) < keep_seq) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

/// State reconstructed from one slot's checkpoint + WAL tail.
struct ReplayedSlot {
  std::string name;
  std::shared_ptr<const PreparedDataset> snapshot;
  std::uint64_t last_seq = 0;
  std::uint64_t records_since_ckpt = 0;
  std::uint64_t last_ckpt_seq = 0;
};

/// One WAL record applied to one snapshot — the per-record state transition
/// shared by recovery replay (ReplayWal below) and the replication apply
/// path (ApplyReplicated), both routed through the same snapshot writers the
/// live engine uses (snapshot_ops.h). Same inputs, same code, same order:
/// a replica at seq S, a recovery at seq S and the pre-crash primary at
/// seq S are the same bytes. `snap` is null only before the first record;
/// kLoad is the only type legal there. kCheckpoint never applies here —
/// rotation owns it, and both callers reject it in a record stream.
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

/// Replays a scanned WAL through the same snapshot writers the live engine
/// uses (snapshot_ops.h), which is what makes the recovered slot bit-equal
/// to the pre-crash in-memory state: same inputs, same code, same order.
Result<ReplayedSlot> ReplayWal(const std::string& dir, const WalScan& scan) {
  ReplayedSlot out;
  out.name = scan.dataset_name;

  // A checkpoint marker is only ever written by the log rotation, which
  // rewrites the WAL to header + marker — so a legal log carries at most
  // one, and only as its FIRST record (the replay floor). The loop below
  // rejects any other placement as structured corruption.
  std::size_t start = 0;
  std::shared_ptr<const PreparedDataset> snap;
  if (!scan.records.empty() &&
      scan.records.front().type == WalRecordType::kCheckpoint) {
    start = 1;
    out.last_ckpt_seq = scan.records.front().checkpoint_seq;
    out.last_seq = scan.records.front().seq;
    const std::string ckpt_path = CheckpointPath(dir, out.last_ckpt_seq);
    if (scan.records.size() == 1) {
      // The log is just the rotation marker: the checkpoint IS the state,
      // so serve it from the mapping — cold start pays a page-in per
      // touched page instead of materializing every dataset up front. An
      // unmappable checkpoint falls back to the materialized read below;
      // corruption surfaces there as usual.
      if (Result<PreparedDataset> mapped = MapCheckpointFile(ckpt_path,
                                                             out.name);
          mapped.ok()) {
        snap = std::make_shared<const PreparedDataset>(*std::move(mapped));
      }
    }
    if (snap == nullptr) {
      ONEX_ASSIGN_OR_RETURN(PreparedDataset from_ckpt,
                            ReadCheckpointFile(ckpt_path, out.name));
      snap = std::make_shared<const PreparedDataset>(std::move(from_ckpt));
    }
  }

  for (std::size_t i = start; i < scan.records.size(); ++i) {
    const WalRecord& rec = scan.records[i];
    ONEX_ASSIGN_OR_RETURN(
        snap, ApplyWalRecordToSnapshot(out.name, std::move(snap), rec));
    out.last_seq = rec.seq;
    ++out.records_since_ckpt;
  }
  if (snap == nullptr) {
    return Status::ParseError("wal holds no state (no load, no checkpoint)");
  }
  out.snapshot = std::move(snap);
  return out;
}

/// The serving tier of a slot holding `snap` (DatasetSlotInfo::tier).
const char* TierName(const PreparedDataset& snap) {
  if (!snap.prepared()) return "raw";
  return snap.mapped() ? "mapped" : "resident";
}

}  // namespace

Status RegroupTicket::Wait() const {
  if (result_ == nullptr) {
    return Status::Internal("empty regroup ticket");
  }
  handle_.Wait();
  return *result_;
}

DatasetRegistry::DatasetRegistry(const DatasetRegistryOptions& options)
    : budget_bytes_(options.prepared_budget_bytes),
      drift_threshold_(options.drift_threshold < 0.0
                           ? 0.0
                           : options.drift_threshold) {}

DatasetRegistry::~DatasetRegistry() {
  std::vector<TaskHandle> jobs;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs.swap(jobs_);
  }
  for (const TaskHandle& job : jobs) job.Wait();
}

Result<std::shared_ptr<DatasetRegistry::Slot>> DatasetRegistry::FindSlot(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  const auto it = slots_.find(name);
  if (it == slots_.end()) {
    return Status::NotFound("dataset '" + name + "' is not loaded");
  }
  return it->second;
}

void DatasetRegistry::TouchLocked(Slot* slot) const {
  slot->last_used.store(clock_.fetch_add(1) + 1);
}

void DatasetRegistry::TrackJob(TaskHandle handle) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  std::erase_if(jobs_, [](const TaskHandle& h) { return h.done(); });
  jobs_.push_back(std::move(handle));
}

Status DatasetRegistry::Load(const std::string& name, Dataset dataset) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  if (dataset.empty()) {
    return Status::InvalidArgument("dataset '" + name + "' has no series");
  }
  auto snapshot = std::make_shared<PreparedDataset>();
  snapshot->name = name;
  dataset.set_name(name);
  snapshot->raw = std::make_shared<const Dataset>(std::move(dataset));
  return Adopt(name, std::move(snapshot));
}

Status DatasetRegistry::Adopt(const std::string& name,
                              std::shared_ptr<const PreparedDataset> snapshot) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  if (snapshot == nullptr || snapshot->raw == nullptr) {
    return Status::InvalidArgument("cannot adopt an empty snapshot");
  }
  auto slot = std::make_shared<Slot>();
  slot->snapshot = std::move(snapshot);
  if (slot->snapshot->prepared()) {
    if (slot->snapshot->mapped()) {
      slot->mapped_bytes.store(slot->snapshot->arena->size());
    } else {
      slot->base_bytes.store(slot->snapshot->base->MemoryUsage());
    }
  }
  TouchLocked(slot.get());
  // Serialized against Recover: a slot is born either before it (and the
  // non-empty registry refuses the enable) or after it, journaled — never
  // in between, where it could dodge journaling forever.
  std::lock_guard<std::mutex> recover_lock(recover_mutex_);
  if (durable_.load()) {
    // Slot birth is a durable event, and the whole birth happens BEFORE
    // the slot becomes findable, so a failure here leaves nothing visible
    // and no acknowledged write behind. The cheap map pre-check keeps the
    // common collision an AlreadyExists; a racing double-adopt is
    // serialized by the journal directory creation itself.
    {
      std::lock_guard<std::mutex> lock(map_mutex_);
      if (slots_.contains(name)) {
        return Status::AlreadyExists("dataset '" + name +
                                     "' is already loaded");
      }
    }
    ONEX_RETURN_IF_ERROR(CreateSlotJournal(name, slot, nullptr));
  }
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    const auto [it, inserted] = slots_.emplace(name, slot);
    (void)it;
    if (!inserted) {
      if (slot->journal != nullptr) {
        std::error_code ec;
        std::filesystem::remove_all(slot->journal->dir, ec);
      }
      return Status::AlreadyExists("dataset '" + name + "' is already loaded");
    }
    total_bytes_ += slot->base_bytes.load();
    total_mapped_bytes_ += slot->mapped_bytes.load();
  }
  EvictOverBudget(slot.get());
  return Status::OK();
}

Status DatasetRegistry::Drop(const std::string& name) {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<Slot> slot, FindSlot(name));
  std::string journal_dir;
  {
    std::shared_lock<std::shared_mutex> lock(slot->mutex);
    if (slot->journal != nullptr) journal_dir = slot->journal->dir;
  }
  std::string tombstone;
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    const auto it = slots_.find(name);
    if (it == slots_.end() || it->second != slot) {
      return Status::NotFound("dataset '" + name +
                              "' was concurrently dropped");
    }
    if (!journal_dir.empty()) {
      // Retire the journal under the map lock, with the identity check:
      // renaming (not deleting) makes the step cheap and atomic, and a
      // stale Drop can never destroy a freshly re-adopted slot's journal —
      // by the time a new slot with this name can exist, this entry is
      // gone. Tombstones are swept on the next Recover; a crash in between
      // loses only the un-acknowledged drop.
      tombstone = journal_dir + ".dropped-" +
                  std::to_string(clock_.fetch_add(1) + 1);
      if (std::rename(journal_dir.c_str(), tombstone.c_str()) != 0) {
        return Status::IoError("cannot retire journal of '" + name + "'");
      }
    }
    total_bytes_ -= it->second->base_bytes.load();
    it->second->base_bytes.store(0);
    total_mapped_bytes_ -= it->second->mapped_bytes.load();
    it->second->mapped_bytes.store(0);
    slots_.erase(it);
  }
  if (!tombstone.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(tombstone, ec);  // best-effort; swept later
  }
  return Status::OK();
}

std::vector<std::string> DatasetRegistry::List() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) names.push_back(name);
  return names;
}

std::vector<DatasetSlotInfo> DatasetRegistry::Describe() const {
  std::vector<std::pair<std::string, std::shared_ptr<Slot>>> entries;
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    entries.assign(slots_.begin(), slots_.end());
  }
  std::vector<DatasetSlotInfo> out;
  out.reserve(entries.size());
  for (const auto& [name, slot] : entries) {
    std::shared_lock<std::shared_mutex> lock(slot->mutex);
    out.push_back(DescribeLocked(name, *slot));
  }
  return out;
}

Result<DatasetSlotInfo> DatasetRegistry::Describe(
    const std::string& name) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<Slot> slot, FindSlot(name));
  std::shared_lock<std::shared_mutex> lock(slot->mutex);
  return DescribeLocked(name, *slot);
}

DatasetSlotInfo DatasetRegistry::DescribeLocked(const std::string& name,
                                                const Slot& slot) {
  DatasetSlotInfo info;
  info.name = name;
  info.series = slot.snapshot->raw->size();
  info.prepared = slot.snapshot->prepared();
  info.prepared_bytes = slot.base_bytes.load();
  info.tier = TierName(*slot.snapshot);
  info.mapped_bytes = slot.mapped_bytes.load();
  info.pinned = slot.pinned.load();
  info.regrouping = slot.regroup_inflight.load();
  info.regroups_completed = slot.regroups_completed.load();
  info.last_max_drift = slot.last_max_drift.load();
  if (slot.journal != nullptr) {
    info.durable = true;
    info.wal_seq = slot.journal->last_seq.load();
    info.wal_dirty = slot.journal->records_since_ckpt.load();
    info.checkpoints = slot.journal->checkpoints_completed.load();
    info.last_checkpoint_seq = slot.journal->last_ckpt_seq.load();
  }
  return info;
}

Result<std::shared_ptr<const PreparedDataset>> DatasetRegistry::Get(
    const std::string& name) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<Slot> slot, FindSlot(name));
  std::shared_lock<std::shared_mutex> lock(slot->mutex);
  return slot->snapshot;
}

Result<std::shared_ptr<const PreparedDataset>> DatasetRegistry::GetPrepared(
    const std::string& name) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<Slot> slot, FindSlot(name));
  std::shared_lock<std::shared_mutex> lock(slot->mutex);
  if (!slot->snapshot->prepared()) {
    return Status::FailedPrecondition(
        "dataset '" + name + "' has not been prepared; call Prepare first");
  }
  TouchLocked(slot.get());
  return slot->snapshot;
}

Result<std::shared_ptr<const PreparedDataset>> DatasetRegistry::Update(
    const std::string& name, const UpdateFn& build) {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<Slot> slot, FindSlot(name));
  return Update(slot, name, build);
}

Result<std::shared_ptr<const PreparedDataset>> DatasetRegistry::Update(
    const std::shared_ptr<Slot>& slot, const std::string& name,
    const UpdateFn& build) {
  while (true) {
    std::shared_ptr<const PreparedDataset> current;
    {
      std::shared_lock<std::shared_mutex> lock(slot->mutex);
      current = slot->snapshot;
    }
    // The expensive build runs with no lock held, so every query (including
    // queries on this dataset, served from `current`) proceeds meanwhile.
    // A writer that landed in between carries data this build has not
    // seen, so the install is conditional and a lost race builds again
    // from the newer snapshot instead of clobbering it.
    WalRecord record;
    ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> next,
                          build(current, &record));
    ONEX_ASSIGN_OR_RETURN(bool installed,
                          Install(slot, name, next, *current, &record));
    if (installed) return next;
  }
}

Status DatasetRegistry::Prepare(const std::string& name,
                                const BaseBuildOptions& options,
                                NormalizationKind normalization) {
  auto build = [&](const std::shared_ptr<const PreparedDataset>& current,
                   WalRecord* record) {
    *record = WalPrepareRecord(options, normalization);
    return BuildSnapshot(current, options, normalization);
  };
  return Update(name, build).status();
}

Result<bool> DatasetRegistry::Install(
    const std::shared_ptr<Slot>& slot, const std::string& name,
    std::shared_ptr<const PreparedDataset> snapshot,
    const PreparedDataset& expected, WalRecord* record, bool replicated) {
  // A mapped snapshot costs page cache, not budgeted heap: base_bytes stays
  // 0 (also excluding it from the LRU victim set) and its arena size goes
  // into the separate mapped-bytes gauge. Writers produce owned snapshots
  // (snapshot_ops clears the arena handle), so an install over a mapped
  // snapshot is the copy-on-write promotion back to resident.
  const bool is_mapped = snapshot->mapped();
  const std::size_t new_bytes = (snapshot->prepared() && !is_mapped)
                                    ? snapshot->base->MemoryUsage()
                                    : 0;
  const std::size_t new_mapped = is_mapped ? snapshot->arena->size() : 0;
  {
    std::unique_lock<std::shared_mutex> lock(slot->mutex);
    if (slot->snapshot.get() != &expected) {
      return false;  // lost the race; the caller re-evaluates
    }
    if (slot->journal != nullptr) {
      // Write-ahead: the record becomes durable before the swap is
      // visible, under the same lock, so WAL order always equals install
      // order. A journal failure aborts the install — the caller sees the
      // error and nothing was acknowledged.
      ONEX_RETURN_IF_ERROR(
          Journal(name, slot->journal.get(), record, replicated));
    }
    slot->snapshot = std::move(snapshot);
    TouchLocked(slot.get());
    std::lock_guard<std::mutex> map_lock(map_mutex_);
    const auto it = slots_.find(name);
    if (it != slots_.end() && it->second == slot) {
      total_bytes_ += new_bytes;
      total_bytes_ -= slot->base_bytes.load();
      slot->base_bytes.store(new_bytes);
      total_mapped_bytes_ += new_mapped;
      total_mapped_bytes_ -= slot->mapped_bytes.load();
      slot->mapped_bytes.store(new_mapped);
    }
    // else: the slot was dropped while the snapshot built; leave the
    // orphan unaccounted — it dies with the last reference.
  }
  EvictOverBudget(slot.get());
  if (!replicated) MaybeScheduleCheckpoint(name, slot);
  return true;
}

void DatasetRegistry::EvictOverBudget(const Slot* keep) {
  // A prepared base leaves memory only through its checkpoint (DESIGN.md
  // §11): without durability there is none to serve from, so no budget
  // applies. Recover arms the flag only once every slot has a journal.
  if (!durable_.load()) return;
  while (true) {
    std::string victim_name;
    std::shared_ptr<Slot> victim;
    std::uint64_t victim_stamp = 0;
    {
      std::lock_guard<std::mutex> lock(map_mutex_);
      if (budget_bytes_ == 0 || total_bytes_ <= budget_bytes_) return;
      std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
      for (const auto& [name, slot] : slots_) {
        if (slot.get() == keep || slot->base_bytes.load() == 0 ||
            slot->pinned.load() || slot->replicated.load()) {
          continue;
        }
        const std::uint64_t used = slot->last_used.load();
        if (used < oldest) {
          oldest = used;
          victim_name = name;
          victim = slot;
        }
      }
      if (victim == nullptr) return;  // only `keep` is resident
      victim_stamp = oldest;
    }
    std::shared_ptr<SlotJournal> journal;
    {
      std::shared_lock<std::shared_mutex> lock(victim->mutex);
      journal = victim->journal;
    }
    if (journal != nullptr && journal->records_since_ckpt.load() != 0) {
      // Fold a dirty WAL into a fresh checkpoint first, with no lock held —
      // the encode and write cover the whole arena. A checkpoint already in
      // flight, or a failed one, keeps the victim resident: over budget
      // beats a slot with no durable image to serve from.
      if (journal->ckpt_inflight.exchange(true)) return;
      const Status checkpointed = RunCheckpoint(victim_name, victim, nullptr);
      journal->ckpt_inflight.store(false);
      if (!checkpointed.ok()) return;
    }
    std::unique_lock<std::shared_mutex> lock(victim->mutex);
    if (victim->last_used.load() != victim_stamp) {
      // Touched or reinstalled between selection and locking: it is no
      // longer the LRU slot, so re-run the selection rather than evict a
      // base someone just paid for.
      continue;
    }
    // The checkpoint covers every record, so the mapping serves the very
    // bits the slot holds and needs no WAL record.
    if (!DowngradeLocked(victim_name, victim)) return;
  }
}

bool DatasetRegistry::DowngradeLocked(const std::string& name,
                                      const std::shared_ptr<Slot>& slot) {
  if (slot->pinned.load() || !slot->snapshot->prepared() ||
      slot->snapshot->mapped()) {
    return false;
  }
  const std::shared_ptr<SlotJournal>& journal = slot->journal;
  // The arena on disk is current only when a checkpoint covers every
  // journaled record; the file then decodes to exactly the snapshot the
  // slot holds, so the swap changes no answer bits.
  if (journal == nullptr || journal->records_since_ckpt.load() != 0) {
    return false;
  }
  Result<PreparedDataset> mapped = MapCheckpointFile(
      CheckpointPath(journal->dir, journal->last_ckpt_seq.load()), name);
  if (!mapped.ok()) return false;
  const std::shared_ptr<const ArenaMapping> mapping = mapped->arena;
  slot->snapshot = std::make_shared<const PreparedDataset>(*std::move(mapped));
  {
    std::lock_guard<std::mutex> map_lock(map_mutex_);
    const auto it = slots_.find(name);
    if (it != slots_.end() && it->second == slot) {
      total_bytes_ -= slot->base_bytes.load();
      total_mapped_bytes_ += mapping->size();
      total_mapped_bytes_ -= slot->mapped_bytes.load();
      slot->mapped_bytes.store(mapping->size());
    }
    slot->base_bytes.store(0);
  }
  // Parsing faulted the whole file in (checksums); release the pages — the
  // point of the downgrade is freeing memory, and the next query faults
  // back only what it touches.
  mapping->AdviseDontNeed();
  return true;
}

Result<std::string> DatasetRegistry::Tier(const std::string& name) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<Slot> slot, FindSlot(name));
  std::shared_lock<std::shared_mutex> lock(slot->mutex);
  return std::string(TierName(*slot->snapshot));
}

Status DatasetRegistry::SetPinned(const std::string& name, bool pinned) {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<Slot> slot, FindSlot(name));
  slot->pinned.store(pinned);
  return Status::OK();
}

Status DatasetRegistry::Demote(const std::string& name) {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<Slot> slot, FindSlot(name));
  std::unique_lock<std::shared_mutex> lock(slot->mutex);
  if (!slot->snapshot->prepared()) {
    return Status::FailedPrecondition(
        "dataset '" + name + "' has no resident base to demote");
  }
  if (slot->snapshot->mapped()) return Status::OK();  // already cold
  if (slot->pinned.load()) {
    return Status::FailedPrecondition(
        "dataset '" + name + "' is pinned; unpin it first");
  }
  if (!DowngradeLocked(name, slot)) {
    return Status::FailedPrecondition(
        "dataset '" + name +
        "' cannot be demoted: it needs durability on and a checkpoint "
        "covering every journaled record (run CHECKPOINT first)");
  }
  return Status::OK();
}

std::size_t DatasetRegistry::mapped_bytes() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return total_mapped_bytes_;
}

void DatasetRegistry::SetPreparedBudget(std::size_t bytes) {
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    budget_bytes_ = bytes;
  }
  EvictOverBudget(nullptr);
}

std::size_t DatasetRegistry::prepared_budget() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return budget_bytes_;
}

std::size_t DatasetRegistry::prepared_bytes() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return total_bytes_;
}

void DatasetRegistry::SetDriftThreshold(double fraction) {
  drift_threshold_.store(fraction < 0.0 ? 0.0 : fraction);
}

double DatasetRegistry::drift_threshold() const {
  return drift_threshold_.load();
}

RegroupTicket DatasetRegistry::RegroupAsync(const std::string& name,
                                            std::vector<std::size_t> lengths) {
  RegroupTicket ticket;
  Result<std::shared_ptr<Slot>> slot = FindSlot(name);
  if (!slot.ok()) {
    ticket.result_ = std::make_shared<Status>(slot.status());
    return ticket;  // completed: empty handle reports done
  }
  if ((*slot)->regroup_inflight.exchange(true)) {
    ticket.result_ = std::make_shared<Status>(Status::FailedPrecondition(
        "a regroup of dataset '" + name + "' is already in flight"));
    return ticket;
  }
  return ScheduleRegroup(name, *std::move(slot), std::move(lengths));
}

RegroupTicket DatasetRegistry::MaybeScheduleRegroup(
    const std::string& name, const std::vector<LengthClassDrift>& drift) {
  // An extend that grouped nothing (no report) carries no signal — leave
  // the slot's gauge at its last real observation instead of zeroing it.
  if (drift.empty()) return RegroupTicket{};
  Result<std::shared_ptr<Slot>> slot = FindSlot(name);
  if (!slot.ok()) return RegroupTicket{};  // dropped since the extend
  double max_fraction = 0.0;
  std::vector<std::size_t> affected;
  const double threshold = drift_threshold_.load();
  for (const LengthClassDrift& d : drift) {
    max_fraction = std::max(max_fraction, d.fraction());
    if (threshold > 0.0 && d.fraction() > threshold) {
      affected.push_back(d.length);
    }
  }
  (*slot)->last_max_drift.store(max_fraction);
  if (affected.empty()) return RegroupTicket{};
  if ((*slot)->regroup_inflight.exchange(true)) {
    return RegroupTicket{};  // the in-flight job will see the newest snapshot
  }
  return ScheduleRegroup(name, *std::move(slot), std::move(affected));
}

RegroupTicket DatasetRegistry::ScheduleRegroup(
    const std::string& name, std::shared_ptr<Slot> slot,
    std::vector<std::size_t> lengths) {
  RegroupTicket ticket;
  ticket.result_ =
      std::make_shared<Status>(Status::Internal("regroup job never ran"));
  auto result = ticket.result_;
  ticket.handle_ = TaskPool::Shared().SubmitWithHandle(
      [this, name, slot = std::move(slot), lengths = std::move(lengths),
       result] {
        *result = RunRegroup(name, slot, lengths);
        if (result->ok()) slot->regroups_completed.fetch_add(1);
        slot->regroup_inflight.store(false);
      });
  TrackJob(ticket.handle_);
  return ticket;
}

Status DatasetRegistry::RunRegroup(const std::string& name,
                                   const std::shared_ptr<Slot>& slot,
                                   const std::vector<std::size_t>& lengths) {
  auto build = [&](const std::shared_ptr<const PreparedDataset>& current,
                   WalRecord* record) {
    *record = WalRegroupRecord(lengths);
    return ApplyRegroup(*current, lengths);
  };
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedDataset> installed,
                        Update(slot, name, build));
  // Refresh the drift the dashboard sees: the regrouped classes are the
  // ones whose number just changed. The write kept every group's count.
  double max_fraction = 0.0;
  for (const LengthClassDrift& d : TrackedDrift(*installed->base)) {
    max_fraction = std::max(max_fraction, d.fraction());
  }
  slot->last_max_drift.store(max_fraction);
  return Status::OK();
}

// --- Durability ------------------------------------------------------------

std::string DatasetRegistry::data_dir() const {
  return durable_.load() ? durability_.dir : std::string();
}

Status DatasetRegistry::CreateSlotJournal(const std::string& name,
                                          const std::shared_ptr<Slot>& slot,
                                          const WalRecord* replicated) {
  auto journal = std::make_shared<SlotJournal>();
  journal->dir = durability_.dir + "/" + SlotDirName(name);
  journal->wal_path = journal->dir + "/wal";
  std::error_code ec;
  if (!std::filesystem::create_directory(journal->dir, ec) || ec) {
    // NOT removed on failure: an existing directory belongs to an existing
    // slot (or a racing creator), never to us.
    return Status::IoError("cannot create journal dir '" + journal->dir +
                           "': " + (ec ? ec.message() : "already exists"));
  }
  // From here on the directory is ours; a partial failure must not leave a
  // husk behind (it would wedge the name for every later LOAD).
  Status status = [&]() -> Status {
    ONEX_ASSIGN_OR_RETURN(
        WalWriter writer,
        WalWriter::Create(journal->wal_path, name, durability_.fsync));
    journal->writer.emplace(std::move(writer));
    if (durability_.fsync) {
      ONEX_RETURN_IF_ERROR(SyncDir(journal->dir));
    }
    // The slot is not published yet, so nothing races these writes.
    slot->journal = journal;
    if (slot->snapshot->prepared()) return RunCheckpoint(name, slot, nullptr);
    WalRecord record = replicated != nullptr
                           ? *replicated
                           : WalLoadRecord(*slot->snapshot->raw);
    return Journal(name, journal.get(), &record, replicated != nullptr);
  }();
  if (!status.ok()) {
    slot->journal = nullptr;
    journal->writer.reset();  // close the wal handle before removing
    std::filesystem::remove_all(journal->dir, ec);
    return status;
  }
  return Status::OK();
}

Status DatasetRegistry::RunCheckpoint(const std::string& name,
                                      const std::shared_ptr<Slot>& slot,
                                      CheckpointInfo* info) {
  // Gate on the slot's journal: a memory-only registry has none.
  std::shared_ptr<SlotJournal> journal;
  {
    std::shared_lock<std::shared_mutex> lock(slot->mutex);
    journal = slot->journal;
  }
  if (journal == nullptr) {
    return Status::FailedPrecondition(
        "dataset '" + name + "' has no journal (enable durability first)");
  }
  static std::atomic<std::uint64_t> tmp_counter{0};
  while (true) {
    std::shared_ptr<const PreparedDataset> current;
    {
      std::shared_lock<std::shared_mutex> lock(slot->mutex);
      current = slot->snapshot;
    }
    if (current == nullptr || !current->prepared()) {
      return Status::FailedPrecondition(
          "dataset '" + name +
          "' has no prepared base to checkpoint (prepare it first)");
    }
    // Serialized outside every lock, so readers never stall behind the
    // big file write. The arena stores the live snapshot exactly (raw and
    // normalized values, centroids, envelopes), so the file decodes to the
    // very bits the slot serves and replay from it converges with the live
    // path (DESIGN.md §13) — the slot itself is left untouched.
    ONEX_ASSIGN_OR_RETURN(std::string bytes, EncodeCheckpoint(*current));
    const std::string tmp_path =
        journal->dir + "/ckpt.partial-" +
        std::to_string(tmp_counter.fetch_add(1));
    ONEX_RETURN_IF_ERROR(
        WriteFileDurably(tmp_path, bytes, durability_.fsync));
    bytes.clear();
    bytes.shrink_to_fit();

    std::unique_lock<std::shared_mutex> lock(slot->mutex);
    if (slot->snapshot != current) {  // a writer landed; recapture
      lock.unlock();
      std::remove(tmp_path.c_str());
      continue;
    }
    const std::uint64_t state_seq = journal->last_seq.load();
    const std::string ckpt_path = CheckpointPath(journal->dir, state_seq);
    // Only cheap, atomic file ops under the slot lock: the capture rename
    // and the tiny log restart must be one atomic step with respect to
    // writers. Failure handling is phase-aware: before the log rotation
    // renames, aborting is safe (the old WAL never references the new
    // file); once the rotation rename has happened, the checkpoint is
    // the log's replay floor and must never be deleted — an ambiguous
    // outcome (rename done, directory fsync failed) latches the journal
    // fail-stop instead.
    ONEX_RETURN_IF_ERROR(
        RenameFile(tmp_path, ckpt_path, durability_.fsync));
    // The registry numbers the marker like any record: it takes the seq
    // after the state it covers.
    WalRecord marker = WalCheckpointRecord(state_seq);
    marker.seq = state_seq + 1;
    const std::string fresh_wal =
        EncodeWalHeader(name) + EncodeWalRecord(marker);
    const std::string wal_tmp = journal->wal_path + ".tmp";
    if (Status s = WriteFileDurably(wal_tmp, fresh_wal, durability_.fsync);
        !s.ok()) {
      std::remove(ckpt_path.c_str());  // unreferenced; old WAL intact
      return s;
    }
    if (std::rename(wal_tmp.c_str(), journal->wal_path.c_str()) != 0) {
      std::remove(wal_tmp.c_str());
      std::remove(ckpt_path.c_str());  // unreferenced; old WAL intact
      return Status::IoError("cannot rotate wal of '" + name + "'");
    }
    if (durability_.fsync) {
      if (Status s = SyncDir(journal->dir); !s.ok()) {
        // The rotation may or may not survive a power loss from here;
        // either on-disk shape alone is consistent, but continuing to
        // acknowledge writes against an unknown one is not.
        journal->writer->MarkFailed();
        return s;
      }
    }
    ONEX_RETURN_IF_ERROR(journal->writer->Reopen());
    journal->last_seq.store(marker.seq);
    journal->records_since_ckpt.store(0);
    journal->last_ckpt_seq.store(state_seq);
    journal->checkpoints_completed.fetch_add(1);
    if (info != nullptr) {
      info->state_seq = state_seq;
      std::error_code ec;
      const auto size = std::filesystem::file_size(ckpt_path, ec);
      info->bytes = ec ? 0 : static_cast<std::size_t>(size);
    }
    const std::string dir = journal->dir;
    lock.unlock();
    CleanupCheckpoints(dir, state_seq);
    return Status::OK();
  }
}

Result<CheckpointInfo> DatasetRegistry::Checkpoint(const std::string& name) {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<Slot> slot, FindSlot(name));
  if (slot->replicated.load()) {
    return Status::FailedPrecondition(
        "dataset '" + name +
        "' is a replica; its marker would take the seq its primary ships "
        "next");
  }
  CheckpointInfo info;
  ONEX_RETURN_IF_ERROR(RunCheckpoint(name, slot, &info));
  return info;
}

void DatasetRegistry::MaybeScheduleCheckpoint(
    const std::string& name, const std::shared_ptr<Slot>& slot) {
  if (!durable_.load() || durability_.checkpoint_every == 0) return;
  std::shared_ptr<SlotJournal> journal;
  {
    std::shared_lock<std::shared_mutex> lock(slot->mutex);
    journal = slot->journal;
    // Checkpoints capture prepared bases only; a raw slot stays dirty until
    // its first PREPARE.
    if (!slot->snapshot->prepared()) return;
  }
  if (journal == nullptr ||
      journal->records_since_ckpt.load() < durability_.checkpoint_every) {
    return;
  }
  if (journal->ckpt_inflight.exchange(true)) return;
  TaskHandle handle =
      TaskPool::Shared().SubmitWithHandle([this, name, slot, journal] {
        (void)RunCheckpoint(name, slot, nullptr);
        journal->ckpt_inflight.store(false);
      });
  TrackJob(std::move(handle));
}

Result<std::pair<std::string, std::shared_ptr<DatasetRegistry::Slot>>>
DatasetRegistry::RecoverSlotDir(const std::string& dir_path) {
  // Sweep checkpoint scratch a crash may have stranded: partials were
  // never referenced by any log. Safe here (and only here) because no
  // checkpoint can be in flight during recovery.
  {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_path, ec)) {
      if (entry.path().filename().string().starts_with("ckpt.partial-")) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }
  const std::string wal_path = dir_path + "/wal";
  Result<WalScan> scanned = ScanWalFile(wal_path);
  if (!scanned.ok()) {
    return Status(scanned.status().code(),
                  "recovering '" + dir_path + "': " +
                      scanned.status().message());
  }
  WalScan scan = *std::move(scanned);
  if (scan.embryonic || scan.records.empty()) {
    // Torn at birth (or header-only): no write was ever acknowledged, so
    // no slot exists. Remove the husk — leaving it would wedge the name
    // forever (a later LOAD of the same dataset could never create its
    // journal directory).
    std::error_code ec;
    std::filesystem::remove_all(dir_path, ec);
    return std::pair<std::string, std::shared_ptr<Slot>>{};  // nothing here
  }
  if (scan.torn_tail) {
    // The final append never completed, so it was never acknowledged;
    // truncate to the clean prefix so the reopened writer extends valid
    // history.
    if (::truncate(wal_path.c_str(),
                   static_cast<off_t>(scan.valid_bytes)) != 0) {
      return Status::IoError("cannot truncate torn wal '" + wal_path + "'");
    }
  }

  Result<ReplayedSlot> replayed = ReplayWal(dir_path, scan);
  if (!replayed.ok()) {
    return Status(replayed.status().code(),
                  "recovering slot '" + scan.dataset_name + "' from '" +
                      dir_path + "': " + replayed.status().message());
  }
  ReplayedSlot rs = *std::move(replayed);

  auto slot = std::make_shared<Slot>();
  slot->snapshot = rs.snapshot;
  if (rs.snapshot->prepared()) {
    if (rs.snapshot->mapped()) {
      // Mapped bases cost page cache, not owned heap: they are accounted
      // in mapped_bytes and excluded from the eviction budget (base_bytes
      // stays 0, which also keeps them out of the LRU victim set).
      slot->mapped_bytes.store(rs.snapshot->arena->size());
    } else {
      slot->base_bytes.store(rs.snapshot->base->MemoryUsage());
    }
  }
  auto journal = std::make_shared<SlotJournal>();
  journal->dir = dir_path;
  journal->wal_path = wal_path;
  ONEX_ASSIGN_OR_RETURN(WalWriter writer,
                        WalWriter::OpenExisting(wal_path, durability_.fsync));
  journal->writer.emplace(std::move(writer));
  journal->last_seq.store(rs.last_seq);
  journal->records_since_ckpt.store(rs.records_since_ckpt);
  journal->last_ckpt_seq.store(rs.last_ckpt_seq);
  slot->journal = std::move(journal);
  TouchLocked(slot.get());
  // Checkpoint files older than the one the log references are orphans
  // from superseded rotations; drop them.
  CleanupCheckpoints(dir_path, rs.last_ckpt_seq);
  return std::pair<std::string, std::shared_ptr<Slot>>{rs.name,
                                                       std::move(slot)};
}

Status DatasetRegistry::Recover(const DurabilityOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("durability needs a data directory");
  }
  // One enabler at a time, serialized against slot births: two concurrent
  // PERSIST frames must not race the durability_ write or double-replay
  // the same directories, and no slot can be born while this runs.
  std::lock_guard<std::mutex> recover_lock(recover_mutex_);
  if (durable_.load()) {
    return Status::FailedPrecondition(
        "durability is already enabled (dir '" + durability_.dir + "')");
  }
  {
    // Durability is a property a slot has from birth (DESIGN.md §13): a
    // slot that exists already would hold writes its journal never saw.
    std::lock_guard<std::mutex> lock(map_mutex_);
    if (!slots_.empty()) {
      return Status::FailedPrecondition(
          "durability must be enabled before the first dataset is loaded");
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IoError("cannot create data dir '" + options.dir +
                           "': " + ec.message());
  }
  durability_ = options;

  // Replay every slot directory found on disk into local slots. Nothing is
  // registered until every directory replayed cleanly, so a failed
  // recovery leaves the registry empty and memory-only — fix the disk and
  // simply retry.
  std::vector<std::string> dirs;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.dir, ec)) {
    if (entry.is_directory()) dirs.push_back(entry.path().string());
  }
  if (ec) {
    return Status::IoError("cannot list data dir '" + options.dir +
                           "': " + ec.message());
  }
  std::sort(dirs.begin(), dirs.end());
  std::map<std::string, std::shared_ptr<Slot>> recovered;
  for (const std::string& dir : dirs) {
    if (std::filesystem::path(dir).filename().string().find(".dropped-") !=
        std::string::npos) {
      // A Drop retired this journal (rename is the commit point); the
      // crash happened before the sweep. Finish the job.
      std::filesystem::remove_all(dir, ec);
      continue;
    }
    if (!std::filesystem::exists(dir + "/wal")) continue;
    ONEX_ASSIGN_OR_RETURN(auto entry, RecoverSlotDir(dir));
    if (entry.second == nullptr) continue;
    if (!recovered.emplace(entry.first, std::move(entry.second)).second) {
      return Status::ParseError("two slot directories under '" +
                                options.dir + "' hold dataset '" +
                                entry.first + "'");
    }
  }

  // Everything fallible succeeded: publish the recovered slots and arm the
  // flag that makes new Adopts journal.
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    slots_ = std::move(recovered);
    for (const auto& [name, slot] : slots_) {
      total_bytes_ += slot->base_bytes.load();
      total_mapped_bytes_ += slot->mapped_bytes.load();
    }
  }
  durable_.store(true);
  EvictOverBudget(nullptr);
  return Status::OK();
}

// --- Replication -----------------------------------------------------------

void DatasetRegistry::SetWalSink(WalSink sink) {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  wal_sink_ =
      sink ? std::make_shared<const WalSink>(std::move(sink)) : nullptr;
}

std::shared_ptr<const DatasetRegistry::WalSink> DatasetRegistry::CurrentSink()
    const {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  return wal_sink_;
}

Status DatasetRegistry::Journal(const std::string& name, SlotJournal* journal,
                                WalRecord* record, bool replicated) {
  const std::uint64_t next = journal->last_seq.load() + 1;
  if (replicated && record->seq != next) {
    return Status::FailedPrecondition(StrFormat(
        "replicated record seq %llu does not continue the wal of '%s' at "
        "%llu (resubscribe)",
        static_cast<unsigned long long>(record->seq), name.c_str(),
        static_cast<unsigned long long>(next)));
  }
  record->seq = next;
  ONEX_RETURN_IF_ERROR(journal->writer->Append(*record));
  journal->last_seq.store(next);
  journal->records_since_ckpt.fetch_add(1);
  // Replication observes the append under the slot lock, so per-dataset
  // sink order is exactly WAL order (DESIGN.md §16).
  if (!replicated) {
    if (auto sink = CurrentSink()) {
      (*sink)(name, *record, EncodeWalRecord(*record));
    }
  }
  return Status::OK();
}

Status DatasetRegistry::ApplyReplicated(const std::string& name,
                                        const WalRecord& record) {
  if (!durable_.load()) {
    return Status::FailedPrecondition(
        "replication requires a durable registry (enable durability first)");
  }
  if (record.type == WalRecordType::kCheckpoint) {
    return Status::InvalidArgument(
        "checkpoint markers never ship: replicas keep the full log");
  }
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    const auto it = slots_.find(name);
    if (it != slots_.end()) slot = it->second;
  }

  if (slot == nullptr) {
    // Slot birth. Only a load record can create state from nothing — any
    // other type means the stream skipped the beginning of the log and the
    // link must resubscribe from seq 0.
    if (record.type != WalRecordType::kLoad) {
      return Status::FailedPrecondition(StrFormat(
          "replicated %s record %llu for unknown dataset '%s' (resubscribe "
          "from the log start)",
          WalRecordTypeToString(record.type),
          static_cast<unsigned long long>(record.seq), name.c_str()));
    }
    if (record.dataset.empty()) {
      return Status::InvalidArgument(
          "replicated load record carries no series");
    }
    ONEX_ASSIGN_OR_RETURN(
        std::shared_ptr<const PreparedDataset> snap,
        ApplyWalRecordToSnapshot(name, nullptr, record));
    auto fresh = std::make_shared<Slot>();
    fresh->snapshot = std::move(snap);
    fresh->replicated.store(true);
    TouchLocked(fresh.get());
    // Mirrors Adopt: the whole birth — journal dir, WAL, the load record at
    // the primary's seq — happens before the slot becomes findable, under
    // the same serialization against Recover.
    std::lock_guard<std::mutex> recover_lock(recover_mutex_);
    {
      std::lock_guard<std::mutex> lock(map_mutex_);
      if (slots_.contains(name)) {
        // Lost a race against another creator (e.g. a duplicate delivery
        // already applied); the caller's floor check on retry sorts it out.
        return Status::AlreadyExists("dataset '" + name +
                                     "' is already loaded");
      }
    }
    ONEX_RETURN_IF_ERROR(CreateSlotJournal(name, fresh, &record));
    std::lock_guard<std::mutex> lock(map_mutex_);
    slots_.emplace(name, std::move(fresh));
    return Status::OK();
  }

  // Existing slot: idempotent, gap-checked apply. The link delivers one
  // dataset's records in seq order from a single thread, so the floor read
  // here cannot go stale against another replicated writer; a local writer
  // (this node is also a primary for the dataset — a misconfiguration)
  // is caught by the conditional install below, and Install's numbering
  // re-checks the seq under the slot lock.
  std::shared_ptr<SlotJournal> journal;
  std::shared_ptr<const PreparedDataset> current;
  {
    std::shared_lock<std::shared_mutex> lock(slot->mutex);
    journal = slot->journal;
    current = slot->snapshot;
  }
  if (journal == nullptr) {
    return Status::FailedPrecondition(
        "dataset '" + name + "' has no journal to replicate onto");
  }
  slot->replicated.store(true);
  const std::uint64_t floor = journal->last_seq.load();
  if (record.seq <= floor) return Status::OK();  // duplicate delivery
  if (record.seq != floor + 1) {
    return Status::FailedPrecondition(StrFormat(
        "replicated record seq %llu leaves a gap after %llu for dataset "
        "'%s' (resubscribe)",
        static_cast<unsigned long long>(record.seq),
        static_cast<unsigned long long>(floor), name.c_str()));
  }
  ONEX_ASSIGN_OR_RETURN(
      std::shared_ptr<const PreparedDataset> next,
      ApplyWalRecordToSnapshot(name, current, record));
  WalRecord copy = record;
  ONEX_ASSIGN_OR_RETURN(
      const bool installed,
      Install(slot, name, std::move(next), *current, &copy,
              /*replicated=*/true));
  if (!installed) {
    return Status::FailedPrecondition(
        "dataset '" + name +
        "' changed under a replicated apply (local writes and replication "
        "must not share a slot)");
  }
  return Status::OK();
}

}  // namespace onex
