#ifndef ONEX_ENGINE_WAL_H_
#define ONEX_ENGINE_WAL_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "onex/common/hash.h"
#include "onex/common/result.h"
#include "onex/core/incremental.h"
#include "onex/core/onex_base.h"
#include "onex/engine/dataset_registry.h"
#include "onex/engine/file_ops.h"
#include "onex/ts/dataset.h"
#include "onex/ts/normalization.h"

namespace onex {

/// The per-slot write-ahead log (DESIGN.md §13). Versioned, line-oriented
/// text ("ONEXWAL 1"): one header line naming the dataset, then one line
/// per journaled mutation. Every record carries a strictly increasing
/// sequence number and a trailing FNV-1a 64 checksum over its own bytes, so
/// a torn tail (crash mid-append) and a flipped bit (media corruption) are
/// both detected — the first is recovered past, the second is a structured
/// error, never a silently wrong base.
///
///   ONEXWAL 1 "<dataset name>"
///   r <seq> load "<ds>" <n> {"<name>" "<label>" <len> <v...>}*   c=<fnv64>
///   r <seq> append "<name>" "<label>" <len> <v...>               c=<fnv64>
///   r <seq> extend <k> {<series> <npoints> <p...>}*              c=<fnv64>
///   r <seq> prepare <st> <minlen> <maxlen> <step> <stride> <policy> <norm>
///   r <seq> regroup <k> <len...>                                 c=<fnv64>
///   r <seq> ckpt <state_seq>                                     c=<fnv64>
///
/// The slot journal numbers every record, the marker included (DESIGN.md
/// §13): `r S+1 ckpt S` says that ckpt-S holds the state after record S,
/// and the marker itself takes seq S+1. A legal log carries it only as its
/// first record.
///
/// This file holds the log's codec, its scanner and its append handle. The
/// files around it — a slot's directory, its checkpoints, the order of
/// renames and fsyncs, recovery — belong to SlotJournal (slot_journal.h),
/// and every file call goes through FileOps (file_ops.h).
///
/// Tier moves are not journaled: a durable slot leaves memory only by
/// swapping in the mapping of a checkpoint that covers every record, which
/// changes no state replay could disagree with. A log holding the retired
/// `rebuild` or `evict` types is refused as an unknown record type.
///
/// Values travel in original (raw) units with full %.17g round-trip
/// precision; replay normalizes them through the same shared writers the
/// live path used (snapshot_ops.h), which is what makes recovery converge
/// with the live engine bit for bit.

enum class WalRecordType {
  kLoad = 0,      ///< Slot creation: the full raw dataset (LOAD/GEN).
  kAppend = 1,    ///< One whole series appended (raw units).
  kExtend = 2,    ///< Streaming tail points for existing series (raw units).
  kPrepare = 3,   ///< Explicit (re-)PREPARE: build options + normalization.
  kRegroup = 4,   ///< Drift repair of the named length classes.
  kCheckpoint = 7, ///< Replay floor: state up to `checkpoint_seq` is in
                   ///< ckpt-<checkpoint_seq>; the marker takes the next seq.
};

const char* WalRecordTypeToString(WalRecordType type);

/// One journaled mutation. Only the fields of the record's type are
/// meaningful; the factories below build well-formed records.
struct WalRecord {
  std::uint64_t seq = 0;  ///< Numbered by the slot journal (SlotJournal).
  WalRecordType type = WalRecordType::kLoad;
  Dataset dataset;                          // kLoad
  TimeSeries series;                        // kAppend
  std::vector<SeriesExtension> extensions;  // kExtend (raw units)
  BaseBuildOptions options;                 // kPrepare
  NormalizationKind norm = NormalizationKind::kMinMaxDataset;  // kPrepare
  std::vector<std::size_t> lengths;         // kRegroup
  std::uint64_t checkpoint_seq = 0;         // kCheckpoint
};

WalRecord WalLoadRecord(const Dataset& dataset);
WalRecord WalAppendRecord(TimeSeries series);
WalRecord WalExtendRecord(std::vector<SeriesExtension> extensions);
WalRecord WalPrepareRecord(const BaseBuildOptions& options,
                           NormalizationKind norm);
WalRecord WalRegroupRecord(std::vector<std::size_t> lengths);
/// The marker of a checkpoint covering every record up to `state_seq`.
WalRecord WalCheckpointRecord(std::uint64_t state_seq);

/// Header/record codec. EncodeWalRecord returns the full line including the
/// trailing newline; DecodeWalRecord takes the line without it. Decoding
/// validates the checksum, the type, every count against the bytes actually
/// present (a declared count never drives an allocation — only parsed
/// content does, so a hostile record cannot command unbounded memory), and
/// the option/normalization domains.
std::string EncodeWalHeader(const std::string& dataset_name);
Result<std::string> DecodeWalHeader(std::string_view line);
std::string EncodeWalRecord(const WalRecord& record);
Result<WalRecord> DecodeWalRecord(std::string_view line);

/// Outcome of scanning one WAL stream.
struct WalScan {
  std::string dataset_name;
  std::vector<WalRecord> records;  ///< The valid prefix, seq ascending.
  /// Byte length of the valid prefix (header + intact records); a recovery
  /// that found a torn tail truncates the file here before reopening it
  /// for append.
  std::size_t valid_bytes = 0;
  /// The final line was incomplete (no terminating newline) — the classic
  /// torn write of a crash mid-append. The record was never acknowledged,
  /// so recovery proceeds from the clean prefix.
  bool torn_tail = false;
  /// True when the header itself never finished writing (a crash at slot
  /// birth): no slot existed as far as any client knows; recovery skips
  /// the directory.
  bool embryonic = false;
};

/// Scans a WAL: the valid record prefix plus torn-tail classification.
/// Corruption that is NOT a torn tail — a checksum-failing or malformed
/// line with durable lines after it, a sequence number that does not
/// increase (e.g. a duplicated tail), an oversized line — is a structured
/// ParseError: acknowledged history is damaged and silent repair would
/// drop writes.
Result<WalScan> ScanWal(std::istream& in);
Result<WalScan> ScanWalFile(const std::string& path);

/// Append handle over one slot's WAL file. Appends are write-ahead: the
/// caller journals under its slot lock before publishing the new snapshot,
/// and acknowledges only after Append returned OK (data flushed, and
/// fsync'd unless the registry's durability options disable it). Any
/// failure latches: later appends fail fast rather than interleave with a
/// half-written line. The writer keeps no log position: records arrive
/// numbered by the registry and are written as given. The file is opened
/// through `files`.
class WalWriter {
 public:
  /// Creates a fresh WAL (fails if the file exists) and writes the header.
  static Result<WalWriter> Create(const std::string& path,
                                  const std::string& dataset_name, bool sync,
                                  FileOps& files = PosixFiles());

  /// Opens an existing WAL for append.
  static Result<WalWriter> OpenExisting(const std::string& path, bool sync,
                                        FileOps& files = PosixFiles());

  /// Encodes and appends `record`. A record that would encode past the
  /// scanner's line cap is rejected with InvalidArgument BEFORE anything is
  /// written (the writer stays healthy): what Append accepts, ScanWal must
  /// be able to replay — otherwise an acknowledged write would hold the
  /// next recovery hostage.
  Status Append(const WalRecord& record);

  /// Latches the writer failed: every later Append errors out. The
  /// checkpoint path uses this when the on-disk state became ambiguous
  /// (e.g. a directory fsync failed after a rename) — fail-stop beats
  /// acknowledging writes whose durable home is unknown.
  void MarkFailed() { failed_ = true; }

 private:
  WalWriter(std::string path, bool sync)
      : path_(std::move(path)), sync_(sync) {}
  /// Appends `bytes` (fsync'd when sync_), latching on failure.
  Status Write(std::string_view bytes);

  std::unique_ptr<AppendFile> file_;
  std::string path_;
  bool sync_;
  bool failed_ = false;
};

/// Checkpoint files — the one on-disk form of a prepared dataset, shared by
/// the durability layer and the SAVEBASE/LOADBASE verbs. The format is
/// ONEXARENA (core/arena_layout.h): one relocatable, section-checksummed
/// blob holding the exact raw values, the normalized values and the full
/// columnar group state, so a checkpoint can be mmap'd and served in place
/// (the mapped tier, DESIGN.md §17), not just replayed. Encode → read is
/// exact: the file decodes to the bits it was written from.
/// WriteCheckpointFile writes a temp file and renames it over `path`, so a
/// failed write never leaves a torn file behind. ReadCheckpointFile reads
/// the file into one heap buffer and realizes it as a mapping is realized:
/// the stores serve their columns out of that buffer and pin it, so the
/// file itself can change or go once the read returns.
Status WriteCheckpointFile(const PreparedDataset& ds, const std::string& path,
                           bool sync);
Result<PreparedDataset> ReadCheckpointFile(const std::string& path,
                                           const std::string& name);

/// Maps an arena checkpoint read-only through `files` and assembles a
/// snapshot whose stores serve out of the mapping and pin it
/// (PreparedDataset::arena set: the mapped tier). When the map or parse
/// fails, recovery falls back to ReadCheckpointFile and a demote or
/// eviction keeps the base resident.
Result<PreparedDataset> MapCheckpointFile(FileOps& files,
                                          const std::string& path,
                                          const std::string& name);

/// The checkpoint file's bytes (the arena blob) without the file
/// write — the registry serializes outside its slot lock and then only
/// renames inside the critical section.
Result<std::string> EncodeCheckpoint(const PreparedDataset& ds);

/// Directory name for a slot: dataset names are client-controlled, so every
/// byte outside [A-Za-z0-9_-] is %XX-encoded (no separators, no dots — a
/// name can never traverse out of the data dir). The authoritative name
/// lives in the WAL header, not the directory entry.
std::string SlotDirName(const std::string& dataset_name);

}  // namespace onex

#endif  // ONEX_ENGINE_WAL_H_
