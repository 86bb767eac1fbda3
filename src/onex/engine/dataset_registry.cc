#include "onex/engine/dataset_registry.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "onex/common/string_utils.h"
#include "onex/core/arena_layout.h"
#include "onex/engine/slot_journal.h"
#include "onex/engine/snapshot_ops.h"
#include "onex/engine/wal.h"

namespace onex {

namespace {

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

void DatasetRegistry::ChargeLocked(const std::string& name, Slot* slot,
                                   const PreparedDataset* snapshot) {
  // A slot dropped while its snapshot built stays uncharged: the orphan
  // dies with its last reference.
  const auto it = slots_.find(name);
  if (it == slots_.end() || it->second.get() != slot) return;
  // A resident base charges its heap to the budget; a mapped one costs
  // page cache, so it counts only in the mapped gauge, and its zero
  // resident bytes keep it out of the LRU victim set (DESIGN.md §11).
  const bool prepared = snapshot != nullptr && snapshot->prepared();
  const std::size_t resident =
      prepared && !snapshot->mapped() ? snapshot->base->MemoryUsage() : 0;
  const std::size_t mapped =
      prepared && snapshot->mapped() ? snapshot->arena->size() : 0;
  total_bytes_ += resident;
  total_bytes_ -= slot->base_bytes.exchange(resident);
  total_mapped_bytes_ += mapped;
  total_mapped_bytes_ -= slot->mapped_bytes.exchange(mapped);
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
  return Birth(name, slot, nullptr);
}

Status DatasetRegistry::Birth(const std::string& name,
                              const std::shared_ptr<Slot>& slot,
                              const WalRecord* replicated) {
  TouchLocked(slot.get());
  // Serialized against Recover: a slot is born either before it (and the
  // non-empty registry refuses the enable) or after it, journaled — never
  // in between, where it could dodge journaling forever.
  std::lock_guard<std::mutex> recover_lock(recover_mutex_);
  if (durable_.load()) {
    // Slot birth is a durable event, and it completes BEFORE the slot
    // becomes findable, so a failure leaves nothing visible and nothing
    // acknowledged. The map pre-check keeps a collision an AlreadyExists.
    {
      std::lock_guard<std::mutex> lock(map_mutex_);
      if (slots_.contains(name)) {
        return Status::AlreadyExists("dataset '" + name +
                                     "' is already loaded");
      }
    }
    // A raw slot's floor is its load record, which replicas receive too.
    const bool prepared = slot->snapshot->prepared();
    WalRecord load = replicated != nullptr ? *replicated
                     : prepared ? WalRecord{}
                                : WalLoadRecord(*slot->snapshot->raw);
    ONEX_ASSIGN_OR_RETURN(
        slot->journal,
        SlotJournal::Create(durability_, name, *slot->snapshot, &load,
                            replicated != nullptr));
    if (!prepared && replicated == nullptr) Ship(name, load);
  }
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    // A durable birth cannot collide here: its journal dir was unique.
    if (!slots_.emplace(name, slot).second) {
      return Status::AlreadyExists("dataset '" + name + "' is already loaded");
    }
    ChargeLocked(name, slot.get(), slot->snapshot.get());
  }
  EvictOverBudget(slot.get());
  return Status::OK();
}

Status DatasetRegistry::Drop(const std::string& name) {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<Slot> slot, FindSlot(name));
  SlotJournal* journal = slot->journal.get();
  {
    std::unique_lock<std::shared_mutex> slot_lock(slot->mutex);
    std::lock_guard<std::mutex> lock(map_mutex_);
    const auto it = slots_.find(name);
    if (it == slots_.end() || it->second != slot) {
      return Status::NotFound("dataset '" + name +
                              "' was concurrently dropped");
    }
    if (journal != nullptr) {
      // Retire the journal under both locks, with the identity check. The
      // slot lock puts each rotation step of a checkpoint in flight wholly
      // before the retirement, or refused after it, so none touches a new
      // slot's directory of the same name. Renaming (not deleting) makes
      // the step cheap and atomic, and a stale Drop can never destroy a
      // freshly re-adopted slot's journal — by the time a new slot with
      // this name can exist, this entry is gone.
      ONEX_RETURN_IF_ERROR(journal->Retire(clock_.fetch_add(1) + 1));
    }
    ChargeLocked(name, slot.get(), nullptr);
    slots_.erase(it);
  }
  // The drop is acknowledged only once its rename is durable.
  return journal != nullptr ? journal->Sweep() : Status::OK();
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
    info.wal_seq = slot.journal->last_seq();
    info.wal_dirty = slot.journal->dirty();
    info.checkpoints = slot.journal->checkpoints();
    info.last_checkpoint_seq = slot.journal->last_checkpoint_seq();
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
      ONEX_RETURN_IF_ERROR(slot->journal->Append(record, replicated));
      // Replication observes the append under the slot lock, so
      // per-dataset sink order is exactly WAL order (DESIGN.md §16).
      if (!replicated) Ship(name, *record);
    }
    slot->snapshot = std::move(snapshot);
    TouchLocked(slot.get());
    // Writers produce owned snapshots (snapshot_ops clears the arena
    // handle), so an install over a mapped snapshot is the copy-on-write
    // promotion back to resident.
    std::lock_guard<std::mutex> map_lock(map_mutex_);
    ChargeLocked(name, slot.get(), slot->snapshot.get());
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
    if (victim->journal != nullptr && victim->journal->dirty() != 0) {
      // Fold a dirty WAL into a fresh checkpoint first, with no lock held —
      // the encode and write cover the whole arena. A checkpoint already in
      // flight, or a failed one, keeps the victim resident: over budget
      // beats a slot with no durable image to serve from.
      if (victim->ckpt_inflight.exchange(true)) return;
      const bool checkpointed = RunCheckpoint(victim_name, victim).ok();
      victim->ckpt_inflight.store(false);
      if (!checkpointed) return;
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
  // The arena on disk is current only when a checkpoint covers every
  // journaled record; the file then decodes to exactly the snapshot the
  // slot holds, so the swap changes no answer bits.
  if (slot->journal == nullptr || slot->journal->dirty() != 0) return false;
  Result<PreparedDataset> mapped = slot->journal->MapCheckpoint();
  if (!mapped.ok()) return false;
  const std::shared_ptr<const ArenaMapping> mapping = mapped->arena;
  slot->snapshot = std::make_shared<const PreparedDataset>(*std::move(mapped));
  {
    std::lock_guard<std::mutex> map_lock(map_mutex_);
    ChargeLocked(name, slot.get(), slot->snapshot.get());
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

Result<CheckpointInfo> DatasetRegistry::RunCheckpoint(
    const std::string& name, const std::shared_ptr<Slot>& slot) {
  // Gate on the slot's journal: a memory-only registry has none.
  const std::shared_ptr<SlotJournal>& journal = slot->journal;
  if (journal == nullptr) {
    return Status::FailedPrecondition(
        "dataset '" + name + "' has no journal (enable durability first)");
  }
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
    // Serialized and written outside every lock, so readers never stall
    // behind the big file write. The arena stores the live snapshot
    // exactly (raw and normalized values, centroids, envelopes), so the
    // file decodes to the very bits the slot serves and replay from it
    // converges with the live path (DESIGN.md §13) — the slot itself is
    // left untouched.
    ONEX_ASSIGN_OR_RETURN(SlotJournal::Staged staged, journal->Stage(*current));
    std::unique_lock<std::shared_mutex> lock(slot->mutex);
    if (slot->snapshot != current) {  // a writer landed; recapture
      lock.unlock();
      journal->Unstage(staged);
      continue;
    }
    ONEX_ASSIGN_OR_RETURN(CheckpointInfo info, journal->Rotate(staged));
    lock.unlock();
    std::shared_lock<std::shared_mutex> sweep_lock(slot->mutex);
    journal->RemoveCheckpointsBefore(info.state_seq);
    return info;
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
  return RunCheckpoint(name, slot);
}

void DatasetRegistry::MaybeScheduleCheckpoint(
    const std::string& name, const std::shared_ptr<Slot>& slot) {
  if (!durable_.load() || durability_.checkpoint_every == 0) return;
  {
    std::shared_lock<std::shared_mutex> lock(slot->mutex);
    // Checkpoints capture prepared bases only; a raw slot stays dirty until
    // its first PREPARE.
    if (!slot->snapshot->prepared()) return;
  }
  if (slot->journal == nullptr ||
      slot->journal->dirty() < durability_.checkpoint_every) {
    return;
  }
  if (slot->ckpt_inflight.exchange(true)) return;
  TaskHandle handle = TaskPool::Shared().SubmitWithHandle([this, name, slot] {
    (void)RunCheckpoint(name, slot);
    slot->ckpt_inflight.store(false);
  });
  TrackJob(std::move(handle));
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
  // Replay every slot directory found on disk into local slots. Nothing is
  // registered until every directory replayed cleanly, so a failed
  // recovery leaves the registry empty and memory-only — fix the disk and
  // simply retry.
  ONEX_ASSIGN_OR_RETURN(std::vector<std::string> dirs,
                        SlotJournal::OpenDataDir(options));
  durability_ = options;
  std::map<std::string, std::shared_ptr<Slot>> recovered;
  for (const std::string& dir : dirs) {
    auto slot = std::make_shared<Slot>();
    ONEX_ASSIGN_OR_RETURN(slot->journal,
                          SlotJournal::Recover(options, dir, &slot->snapshot));
    if (slot->journal == nullptr) continue;
    TouchLocked(slot.get());
    const std::string& name = slot->journal->name();
    if (!recovered.emplace(name, slot).second) {
      return Status::ParseError("two slot directories under '" +
                                options.dir + "' hold dataset '" + name + "'");
    }
  }

  // Everything fallible succeeded: publish the recovered slots and arm the
  // flag that makes new Adopts journal.
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    slots_ = std::move(recovered);
    for (const auto& [name, slot] : slots_) {
      ChargeLocked(name, slot.get(), slot->snapshot.get());
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

void DatasetRegistry::Ship(const std::string& name,
                           const WalRecord& record) const {
  // Copied out under the lock, so firing it never blocks SetWalSink.
  std::shared_ptr<const WalSink> sink;
  {
    std::lock_guard<std::mutex> lock(sink_mutex_);
    sink = wal_sink_;
  }
  if (sink != nullptr) (*sink)(name, record, EncodeWalRecord(record));
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
    // Adopt's birth at the primary's seq. A lost race against another
    // creator is AlreadyExists; the caller's floor check on retry sorts it.
    auto fresh = std::make_shared<Slot>();
    fresh->snapshot = std::move(snap);
    fresh->replicated.store(true);
    return Birth(name, fresh, &record);
  }

  // Existing slot: idempotent, gap-checked apply. The link delivers one
  // dataset's records in seq order from a single thread, so the floor read
  // here cannot go stale against another replicated writer; a local writer
  // (this node is also a primary for the dataset — a misconfiguration)
  // is caught by the conditional install below, and Install's numbering
  // re-checks the seq under the slot lock.
  std::shared_ptr<const PreparedDataset> current;
  {
    std::shared_lock<std::shared_mutex> lock(slot->mutex);
    current = slot->snapshot;
  }
  if (slot->journal == nullptr) {
    return Status::FailedPrecondition(
        "dataset '" + name + "' has no journal to replicate onto");
  }
  slot->replicated.store(true);
  const std::uint64_t floor = slot->journal->last_seq();
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

Result<std::vector<WalRecord>> DatasetRegistry::JournalRecordsAfter(
    const std::string& name, std::uint64_t seq) const {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<Slot> slot, FindSlot(name));
  if (slot->journal == nullptr) {
    return Status::FailedPrecondition("dataset '" + name +
                                      "' has no journal");
  }
  return slot->journal->RecordsAfter(seq);
}

}  // namespace onex
