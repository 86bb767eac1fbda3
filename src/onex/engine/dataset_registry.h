#ifndef ONEX_ENGINE_DATASET_REGISTRY_H_
#define ONEX_ENGINE_DATASET_REGISTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "onex/common/result.h"
#include "onex/common/task_pool.h"
#include "onex/core/incremental.h"
#include "onex/core/onex_base.h"
#include "onex/engine/file_ops.h"
#include "onex/ts/normalization.h"

namespace onex {

struct WalRecord;    // engine/wal.h
class SlotJournal;   // engine/slot_journal.h
class ArenaMapping;  // core/arena_layout.h

/// A dataset registered with the engine: raw values, their normalized copy,
/// and (after Prepare) the ONEX base. Immutable once built, so concurrent
/// readers share it without locking.
struct PreparedDataset {
  std::string name;
  std::shared_ptr<const Dataset> raw;
  std::shared_ptr<const Dataset> normalized;
  NormalizationParams norm_params;
  NormalizationKind norm_kind = NormalizationKind::kMinMaxDataset;
  /// Null until Prepare() has run.
  std::shared_ptr<const OnexBase> base;
  BaseBuildOptions build_options;
  /// Non-null when `base` serves out of an mmap'd ONEXARENA checkpoint (the
  /// mapped tier, DESIGN.md §17). Each of the base's stores pins the
  /// mapping itself, so this handle is tier bookkeeping, not a lifetime
  /// requirement. Every mutation writer (snapshot_ops) clears it: the first
  /// write recomputes every class into heap stores — copy-on-write
  /// promotion back to the resident tier.
  std::shared_ptr<const ArenaMapping> arena;

  bool prepared() const { return base != nullptr; }
  bool mapped() const { return arena != nullptr; }
};

/// Completion ticket for a background regroup scheduled on
/// TaskPool::Shared(). Copyable; a default-constructed ticket is empty and
/// reports done with an Internal status.
class RegroupTicket {
 public:
  RegroupTicket() = default;

  bool valid() const { return result_ != nullptr; }
  bool done() const { return handle_.done(); }

  /// Blocks until the job retires and returns its outcome.
  Status Wait() const;

 private:
  friend class DatasetRegistry;
  TaskHandle handle_;
  std::shared_ptr<Status> result_;
};

struct DatasetRegistryOptions {
  /// Byte budget for resident prepared bases, measured as the sum of
  /// OnexBase::MemoryUsage() (GroupStore footprints). 0 = unlimited. When a
  /// newly prepared base pushes the total over budget, the least recently
  /// used other bases are evicted to their mapped checkpoint (DESIGN.md
  /// §11); a single base larger than the whole budget stays resident while
  /// it is the most recent. Applies only once durability is on: without a
  /// checkpoint an evicted base would have nothing to serve from.
  std::size_t prepared_budget_bytes = 0;
  /// Drift fraction (LengthClassDrift::fraction, per length class) above
  /// which an extend schedules a background regroup of the drifted classes
  /// (DESIGN.md §12). 0 disables automatic regrouping; DRIFT/RegroupAsync
  /// still allow manual repair.
  double drift_threshold = 0.0;
};

/// Configuration of the durability layer (DESIGN.md §13): where slot
/// journals live and when background checkpoints fire.
struct DurabilityOptions {
  /// Root data directory; one subdirectory per slot. Created if missing.
  std::string dir;
  /// Journaled mutations since the last checkpoint that trigger a
  /// background checkpoint of a prepared slot. 0 = manual CHECKPOINT only.
  std::uint64_t checkpoint_every = 0;
  /// fsync WAL appends and checkpoint files before acknowledging. Disable
  /// only where the test harness wants speed over power-loss safety — the
  /// data still reaches the file (flushed), so a process crash loses
  /// nothing either way.
  bool fsync = true;
  /// Every file call of the slot journals. Tests substitute a recording or
  /// faulting FileOps here; it must outlive the registry.
  FileOps* files = &PosixFiles();
};

/// Outcome of a synchronous checkpoint.
struct CheckpointInfo {
  /// The log position the checkpoint captured: every record <= state_seq is
  /// folded into the snapshot file, the WAL restarts after it.
  std::uint64_t state_seq = 0;
  std::size_t bytes = 0;  ///< Size of the encoded arena written.
  std::string path;       ///< The checkpoint file, ckpt-<state_seq>.
};

/// Everything the registry reports about one slot: a row of Describe(),
/// read by STATS, DATASETS, DRIFT, the REPL verbs and the cluster.
struct DatasetSlotInfo {
  std::string name;
  std::size_t series = 0;
  bool prepared = false;
  std::size_t prepared_bytes = 0;
  /// Streaming maintenance (DESIGN.md §12): a background drift regroup for
  /// this slot is in flight; how many completed.
  bool regrouping = false;
  std::uint64_t regroups_completed = 0;
  /// Largest per-class drift fraction observed by the most recent extend or
  /// regroup of this slot (0 until streaming writes happen).
  double last_max_drift = 0.0;
  /// Durability view (DESIGN.md §13); all zero when durability is off.
  bool durable = false;
  /// Seq of the newest journaled record: the slot's log position, the
  /// replication floor a replica reports.
  std::uint64_t wal_seq = 0;
  std::uint64_t wal_dirty = 0;  ///< Records since the last checkpoint.
  std::uint64_t checkpoints = 0;
  /// The seq the newest checkpoint covers (0 before the first).
  std::uint64_t last_checkpoint_seq = 0;
  /// Serving tier (DESIGN.md §17): "resident" (owned base in RAM),
  /// "mapped" (serving from an mmap'd arena checkpoint; durable slots
  /// only) or "raw" (never prepared).
  std::string tier;
  std::size_t mapped_bytes = 0;  ///< Arena bytes backing a mapped base.
  bool pinned = false;           ///< TIER pin: exempt from downgrade/evict.
};

/// The engine's sharded dataset store (DESIGN.md §11): named slots, each
/// owning an immutable PreparedDataset snapshot, with
///
///   - per-slot shared/exclusive locking, so queries on dataset A proceed
///     while dataset B is being prepared, replaced or evicted;
///   - an LRU cache over prepared bases bounded by a configurable byte
///     budget (cost = GroupStore footprint via OnexBase::MemoryUsage());
///     with durability on, a victim serves from its checkpoint's mapping;
///   - streaming maintenance (DESIGN.md §12): per-slot drift accounting fed
///     by Engine::ExtendSeries and a drift-triggered background regroup
///     (RegroupAsync / MaybeScheduleRegroup) that rebuilds just the drifted
///     length classes and installs conditionally like every other writer;
///   - optional durability (DESIGN.md §13), a property a slot has from
///     birth or never: Recover() runs on an empty registry, and from then
///     on every acknowledged mutation is journaled write-ahead into a
///     per-slot versioned WAL, checkpoints fold the log into ONEXARENA
///     files, and the next Recover() reconstructs every slot
///     bit-identically to the pre-crash in-memory state.
///
/// Lock order: a slot lock may be taken while no registry lock is held, and
/// the registry map lock may be taken while holding one slot lock — never
/// the reverse, and never two slot locks at once.
class DatasetRegistry {
 public:
  /// Background jobs (drift regroups, checkpoints) run on
  /// TaskPool::Shared().
  explicit DatasetRegistry(const DatasetRegistryOptions& options = {});

  DatasetRegistry(const DatasetRegistry&) = delete;
  DatasetRegistry& operator=(const DatasetRegistry&) = delete;

  /// Destruction waits for in-flight async jobs so their slots cannot
  /// outlive the registry's accounting.
  ~DatasetRegistry();

  /// Creates a slot holding `dataset` (unprepared). AlreadyExists on name
  /// collision; InvalidArgument on empty name or dataset.
  Status Load(const std::string& name, Dataset dataset);

  /// Creates a slot from an externally assembled snapshot (the engine's
  /// LoadPrepared path). AlreadyExists on name collision.
  Status Adopt(const std::string& name,
               std::shared_ptr<const PreparedDataset> snapshot);

  /// One attempt of a write (see Update): given the slot's current
  /// snapshot, returns the snapshot that replaces it and fills `*record`
  /// with the WAL record that reproduces the step from `current`.
  using UpdateFn =
      std::function<Result<std::shared_ptr<const PreparedDataset>>(
          const std::shared_ptr<const PreparedDataset>& current,
          WalRecord* record)>;

  /// The one write path of every mutation that rebuilds a snapshot
  /// (Prepare, regroups, the engine's append and extend): reads `name`'s
  /// snapshot, runs `build` on it with no lock held, and installs the
  /// result conditionally on the slot still holding the snapshot it was
  /// built from. On a lost race against a concurrent writer it reads the
  /// newer snapshot and builds again, so no acknowledged write is ever
  /// clobbered. On a journaled slot the record is journaled write-ahead
  /// under the lock that makes the swap visible, so WAL order equals
  /// install order; a journal failure fails the call with nothing
  /// installed. Returns the installed snapshot.
  Result<std::shared_ptr<const PreparedDataset>> Update(const std::string& name,
                                                        const UpdateFn& build);

  Status Drop(const std::string& name);
  std::vector<std::string> List() const;
  std::vector<DatasetSlotInfo> Describe() const;
  /// One slot's row; NotFound when no slot has the name.
  Result<DatasetSlotInfo> Describe(const std::string& name) const;

  /// Immutable snapshot of a slot, prepared or not.
  Result<std::shared_ptr<const PreparedDataset>> Get(
      const std::string& name) const;

  /// Prepared snapshot (resident or mapped) for query execution. Touches
  /// the slot's LRU stamp. FailedPrecondition when the slot was never
  /// prepared.
  Result<std::shared_ptr<const PreparedDataset>> GetPrepared(
      const std::string& name) const;

  /// Normalizes and groups `name`'s raw data, swapping the new snapshot in
  /// atomically. The expensive build runs outside every lock, so concurrent
  /// queries — including queries on this dataset, against the old snapshot —
  /// are never blocked.
  Status Prepare(const std::string& name, const BaseBuildOptions& options,
                 NormalizationKind normalization);

  /// Current byte budget for resident prepared bases (0 = unlimited).
  /// Shrinking the budget evicts immediately; without durability nothing
  /// is evicted (see DatasetRegistryOptions::prepared_budget_bytes).
  void SetPreparedBudget(std::size_t bytes);
  std::size_t prepared_budget() const;

  /// Bytes of currently resident prepared bases.
  std::size_t prepared_bytes() const;

  /// Drift fraction that triggers automatic regrouping (0 disables;
  /// negative values clamp to 0). Applies to extends that install after the
  /// call.
  void SetDriftThreshold(double fraction);
  double drift_threshold() const;

  /// Schedules a background regroup of `lengths` (fresh leader clustering
  /// of those classes; core/incremental.h) on the task pool. The job reads
  /// the newest snapshot, rebuilds outside every lock and installs
  /// conditionally — on a lost race against a concurrent writer it retries
  /// from the newer snapshot, exactly like Prepare. At most one regroup per
  /// slot is in flight: a second call returns a completed ticket carrying
  /// FailedPrecondition, as does a slot that was never prepared.
  RegroupTicket RegroupAsync(const std::string& name,
                             std::vector<std::size_t> lengths);

  /// The drift policy: records `drift` (the report of an extend that just
  /// installed into `name`) and, when any class's fraction exceeds the
  /// threshold and no regroup is already in flight, schedules RegroupAsync
  /// over the offending classes. Returns the scheduled job's ticket, or an
  /// empty (invalid) ticket when nothing was scheduled.
  RegroupTicket MaybeScheduleRegroup(const std::string& name,
                                     const std::vector<LengthClassDrift>& drift);

  // --- Tiered storage (DESIGN.md §17) -------------------------------------

  /// Current serving tier of `name`: "resident", "mapped" or "raw" (see
  /// DatasetSlotInfo::tier).
  Result<std::string> Tier(const std::string& name) const;

  /// Pins or unpins a slot. A pinned slot is exempt from LRU eviction and
  /// from the mapped-tier downgrade — it stays resident once prepared.
  Status SetPinned(const std::string& name, bool pinned);

  /// Downgrades `name` to its mmap'd arena checkpoint now (the TIER verb's
  /// manual demote). Requires durability on, a checkpoint covering every
  /// journaled record (wal_dirty == 0 — otherwise the arena on disk is
  /// stale), a resident base, and no pin. The swap needs no WAL record:
  /// with zero records since the checkpoint the live snapshot is exactly
  /// what the checkpoint decodes to, so replay converges either way.
  Status Demote(const std::string& name);

  /// Bytes of arena-mapped bases currently serving cold slots; accounted
  /// separately from prepared_bytes() (mapped pages are reclaimable cache,
  /// not owned heap).
  std::size_t mapped_bytes() const;

  // --- Durability (DESIGN.md §13) -----------------------------------------

  /// Opens `options.dir`, replays every slot directory found there
  /// (checkpoint file + WAL tail, through the same snapshot writers the
  /// live paths use), and arms write-ahead journaling for every slot born
  /// after. Call once, before the first dataset is loaded:
  /// FailedPrecondition on a second call or while any slot exists, with
  /// the registry and the directory left untouched. A torn
  /// WAL tail (crash mid-append) is truncated and recovered past — that
  /// write was never acknowledged; any other corruption (mid-log checksum
  /// failure, duplicated tail, damaged checkpoint) is a structured error
  /// naming the slot, never a silently wrong base.
  Status Recover(const DurabilityOptions& options);

  bool durable() const { return durable_.load(); }
  std::string data_dir() const;

  /// Folds `name`'s journal into a fresh checkpoint file now: encodes the
  /// current prepared snapshot as an ONEXARENA file outside the slot lock,
  /// then, under the critical section that restarts the WAL, renames it
  /// into place and deletes the superseded log. The slot's snapshot is not
  /// replaced: the arena stores values, centroids and envelopes exactly, so
  /// the live base and the checkpoint file agree bit for bit and recovery
  /// is exact. A mapped slot stays mapped. FailedPrecondition when
  /// durability is off, the slot has no prepared base, or the slot is a
  /// replica (ApplyReplicated has installed into it): the marker takes a
  /// seq, and a replica's seqs belong to its primary.
  Result<CheckpointInfo> Checkpoint(const std::string& name);

  // --- Replication (DESIGN.md §16) ----------------------------------------

  /// Observer of every record this registry journals on its own behalf (the
  /// primary role). Fired under the owning slot's exclusive lock immediately
  /// after the write-ahead append succeeds, so sink order is exactly WAL
  /// order per dataset; the callback must therefore be cheap (enqueue, not
  /// ship). `encoded` is the full WAL line including the trailing newline —
  /// the very bytes on disk, ready to stream verbatim. Records applied via
  /// ApplyReplicated do NOT reach the sink: replicas relay nothing.
  using WalSink = std::function<void(const std::string& dataset,
                                     const WalRecord& record,
                                     const std::string& encoded)>;

  /// Installs (or clears, with nullptr) the sink. Set before traffic starts;
  /// swapping sinks mid-stream is not synchronized against in-flight
  /// installs.
  void SetWalSink(WalSink sink);

  /// Applies one record shipped from a primary's WAL: installs the
  /// snapshot produced by the same per-record apply switch recovery uses,
  /// journaled under the slot lock at the seq the primary gave it — which
  /// the registry's own numbering must reproduce, so a replica that has
  /// acked seq S is bit-identical to a primary recovered at seq S.
  /// Requirements: the registry is
  /// durable, and records for one dataset arrive in seq order (the
  /// replication link is a single ordered stream). A record at or below
  /// the slot's floor is skipped as a duplicate delivery (OK); a gap is
  /// FailedPrecondition — the caller must resubscribe from its floor.
  /// kLoad creates the slot; the dataset must not already exist locally
  /// unless the record is a duplicate.
  Status ApplyReplicated(const std::string& name, const WalRecord& record);

  /// The records `name`'s journal holds above `seq`, in order: what a
  /// replication link ships to a peer whose floor is `seq`.
  Result<std::vector<WalRecord>> JournalRecordsAfter(const std::string& name,
                                                     std::uint64_t seq) const;

 private:
  struct Slot {
    /// Shared by queries reading the snapshot pointer, exclusive for swaps
    /// and evictions. Held only for pointer reads/writes — and, with
    /// durability on, the write-ahead journal append bound to a swap —
    /// never across a build or a query.
    mutable std::shared_mutex mutex;
    std::shared_ptr<const PreparedDataset> snapshot;
    /// LRU stamp (registry clock value at last prepared use).
    std::atomic<std::uint64_t> last_used{0};
    /// Accounted base bytes while resident; mutated under map_mutex_.
    std::atomic<std::size_t> base_bytes{0};
    /// One background drift regroup per slot at a time (DESIGN.md §12).
    std::atomic<bool> regroup_inflight{false};
    std::atomic<double> last_max_drift{0.0};
    std::atomic<std::uint64_t> regroups_completed{0};
    /// Write-ahead journal; null on a memory-only registry. Set before the
    /// slot is published and never changed after, so it is read without
    /// the slot lock.
    std::shared_ptr<SlotJournal> journal;
    /// One background checkpoint per slot at a time.
    std::atomic<bool> ckpt_inflight{false};
    /// TIER pin: exempt from LRU eviction and mapped-tier downgrade.
    std::atomic<bool> pinned{false};
    /// Set once ApplyReplicated has installed into this slot. Exempt from
    /// LRU eviction like a pin, and refused an explicit Checkpoint: a
    /// replica's sequence numbers belong to its primary, and a checkpoint
    /// marker would consume one.
    std::atomic<bool> replicated{false};
    /// Arena bytes backing this slot while mapped; mutated under map_mutex_
    /// (same discipline as base_bytes).
    std::atomic<std::size_t> mapped_bytes{0};
  };

  Result<std::shared_ptr<Slot>> FindSlot(const std::string& name) const;
  void TouchLocked(Slot* slot) const;

  /// The one filler of a DatasetSlotInfo row; caller holds `slot`'s lock.
  static DatasetSlotInfo DescribeLocked(const std::string& name,
                                        const Slot& slot);

  /// Publishes a new slot under `name` (AlreadyExists if taken). With
  /// durability on, its journal and replay floor are written first, so a
  /// published journaled slot always has one (SlotJournal::Create); a
  /// replica's birth journals the primary's load record `replicated`.
  Status Birth(const std::string& name, const std::shared_ptr<Slot>& slot,
               const WalRecord* replicated);

  /// Hands a record this registry journaled on its own behalf to the WAL
  /// sink, if one is set.
  void Ship(const std::string& name, const WalRecord& record) const;

  /// Update on a slot the caller already holds (a background job keeps the
  /// slot it was scheduled for, even if the name is dropped meanwhile).
  Result<std::shared_ptr<const PreparedDataset>> Update(
      const std::shared_ptr<Slot>& slot, const std::string& name,
      const UpdateFn& build);

  /// Swaps `snapshot` into `slot` (exclusive lock) if the slot still holds
  /// `expected` (returns false otherwise: a writer landed while the caller
  /// built), journaling `record` (required) write-ahead when the slot is
  /// journaled, updates the byte accounting — skipping it if the slot was
  /// dropped from the map while the snapshot built — and evicts LRU
  /// victims over budget. A journal failure is an error: nothing was
  /// installed and the slot's WAL is latched read-only. With `replicated`
  /// the record keeps its primary-assigned seq (SlotJournal::Append) and no
  /// background checkpoint is scheduled (a rotation would truncate the
  /// history a promoted replica re-ships).
  Result<bool> Install(const std::shared_ptr<Slot>& slot,
                       const std::string& name,
                       std::shared_ptr<const PreparedDataset> snapshot,
                       const PreparedDataset& expected, WalRecord* record,
                       bool replicated = false);

  /// Evicts least-recently-used prepared bases until the total fits the
  /// budget. `keep` (may be null) is never evicted — it is the slot whose
  /// base was just installed for immediate use. A victim is checkpointed
  /// first if its WAL is dirty, then downgraded to the mapping; if either
  /// step fails it stays resident and the pass stops. A no-op while
  /// durability is off.
  void EvictOverBudget(const Slot* keep);

  /// The mapped-tier downgrade (DESIGN.md §17) shared by Demote and
  /// EvictOverBudget: maps the slot's newest arena checkpoint and swaps in
  /// a snapshot whose stores serve out of the mapping, moving the slot's
  /// bytes from the resident to the mapped gauge. Caller holds the slot's
  /// exclusive lock (NOT map_mutex_ — the map+parse does file I/O). Returns
  /// false, leaving the slot untouched, when it is pinned, not resident,
  /// has no journal or a dirty WAL, or the map/parse failed.
  bool DowngradeLocked(const std::string& name,
                       const std::shared_ptr<Slot>& slot);

  /// Enqueues the regroup job for a slot whose regroup_inflight flag the
  /// caller just claimed; the job releases the flag when it retires.
  RegroupTicket ScheduleRegroup(const std::string& name,
                                std::shared_ptr<Slot> slot,
                                std::vector<std::size_t> lengths);

  /// Runs a scheduled regroup to completion through Update, plus the
  /// slot's maintenance accounting.
  Status RunRegroup(const std::string& name, const std::shared_ptr<Slot>& slot,
                    const std::vector<std::size_t>& lengths);

  /// The checkpoint procedure (see Checkpoint); runs the conditional
  /// capture-adopt-rotate loop.
  Result<CheckpointInfo> RunCheckpoint(const std::string& name,
                                       const std::shared_ptr<Slot>& slot);

  /// Schedules a background checkpoint after an install pushed a slot past
  /// the checkpoint_every threshold.
  void MaybeScheduleCheckpoint(const std::string& name,
                               const std::shared_ptr<Slot>& slot);

  /// Sets `slot`'s byte gauges, and the registry's totals, to what
  /// `snapshot` costs (null: nothing) — the one rule for a slot's bytes.
  /// Does nothing unless the map holds `slot` under `name`. Caller holds
  /// map_mutex_.
  void ChargeLocked(const std::string& name, Slot* slot,
                    const PreparedDataset* snapshot);

  /// Registers an async job handle for the destructor's drain, retiring
  /// finished handles so long-lived registries don't accumulate.
  void TrackJob(TaskHandle handle);

  mutable std::mutex map_mutex_;  ///< Guards slots_, budget_, total_bytes_.
  std::map<std::string, std::shared_ptr<Slot>> slots_;
  std::size_t budget_bytes_ = 0;
  std::size_t total_bytes_ = 0;
  /// Arena bytes across all mapped slots; guarded by map_mutex_ like
  /// total_bytes_, surfaced by mapped_bytes().
  std::size_t total_mapped_bytes_ = 0;
  std::atomic<double> drift_threshold_{0.0};
  mutable std::atomic<std::uint64_t> clock_{0};

  std::atomic<bool> durable_{false};
  DurabilityOptions durability_;  ///< Written once by Recover.
  /// Serializes Recover against slot births (Adopt, a replicated load):
  /// Recover sees an empty registry and no slot is born while it runs.
  std::mutex recover_mutex_;

  mutable std::mutex sink_mutex_;  ///< Guards wal_sink_.
  std::shared_ptr<const WalSink> wal_sink_;

  std::mutex jobs_mutex_;  ///< Guards jobs_.
  std::vector<TaskHandle> jobs_;
};

}  // namespace onex

#endif  // ONEX_ENGINE_DATASET_REGISTRY_H_
