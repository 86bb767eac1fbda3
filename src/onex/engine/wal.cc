#include "onex/engine/wal.h"

#include <filesystem>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "onex/common/string_utils.h"
#include "onex/core/arena_layout.h"
#include "onex/json/json.h"

namespace onex {
namespace {

constexpr const char* kWalMagic = "ONEXWAL";
constexpr int kWalVersion = 1;

/// Far above the largest legal record (a 2M-point GEN encodes to ~50 MB);
/// a line past this is corruption, not data.
constexpr std::size_t kMaxWalLineBytes = 512ull << 20;

std::string Quoted(const std::string& s) {
  std::string out;
  const std::string escaped = json::EscapeString(s);
  out.reserve(escaped.size() + 2);
  out += '"';
  out += escaped;
  out += '"';
  return out;
}

/// Sequential token reader over one record body. Counts declared by the
/// record never drive allocation: consumers loop calling Next*, which fails
/// at exhaustion, so memory grows only with bytes actually present.
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view text) : rest_(text) {}

  bool Done() {
    SkipSpace();
    return rest_.empty();
  }

  Result<std::string_view> Next() {
    SkipSpace();
    if (rest_.empty()) {
      return Status::ParseError("wal record ends mid-field");
    }
    std::size_t end = 0;
    while (end < rest_.size() && rest_[end] != ' ' && rest_[end] != '\t') {
      ++end;
    }
    std::string_view token = rest_.substr(0, end);
    rest_.remove_prefix(end);
    return token;
  }

  Result<std::string> NextQuoted() {
    SkipSpace();
    if (rest_.empty() || rest_.front() != '"') {
      return Status::ParseError("expected quoted string in wal record");
    }
    std::size_t end = 1;
    while (end < rest_.size()) {
      if (rest_[end] == '\\') {
        end += 2;
        continue;
      }
      if (rest_[end] == '"') break;
      ++end;
    }
    if (end >= rest_.size()) {
      return Status::ParseError("unterminated quoted string in wal record");
    }
    ONEX_ASSIGN_OR_RETURN(json::Value v,
                          json::Parse(rest_.substr(0, end + 1)));
    rest_.remove_prefix(end + 1);
    return v.as_string();
  }

  Result<long long> NextInt() {
    ONEX_ASSIGN_OR_RETURN(std::string_view token, Next());
    return ParseInt(token);
  }

  Result<double> NextDouble() {
    ONEX_ASSIGN_OR_RETURN(std::string_view token, Next());
    return ParseDouble(token);
  }

 private:
  void SkipSpace() {
    while (!rest_.empty() && (rest_.front() == ' ' || rest_.front() == '\t')) {
      rest_.remove_prefix(1);
    }
  }

  std::string_view rest_;
};

Result<WalRecordType> TypeFromString(std::string_view name) {
  if (name == "load") return WalRecordType::kLoad;
  if (name == "append") return WalRecordType::kAppend;
  if (name == "extend") return WalRecordType::kExtend;
  if (name == "prepare") return WalRecordType::kPrepare;
  if (name == "regroup") return WalRecordType::kRegroup;
  if (name == "ckpt") return WalRecordType::kCheckpoint;
  return Status::ParseError("unknown wal record type '" + std::string(name) +
                            "'");
}

void AppendSeriesText(std::string* out, const TimeSeries& ts) {
  *out += ' ';
  *out += Quoted(ts.name());
  *out += ' ';
  *out += Quoted(ts.label());
  *out += StrFormat(" %zu", ts.length());
  for (const double v : ts.values()) *out += StrFormat(" %.17g", v);
}

Result<TimeSeries> ParseSeriesText(TokenCursor* cur) {
  ONEX_ASSIGN_OR_RETURN(std::string name, cur->NextQuoted());
  ONEX_ASSIGN_OR_RETURN(std::string label, cur->NextQuoted());
  ONEX_ASSIGN_OR_RETURN(long long len, cur->NextInt());
  if (len < 0) return Status::ParseError("negative series length in wal");
  std::vector<double> values;
  for (long long i = 0; i < len; ++i) {
    ONEX_ASSIGN_OR_RETURN(double v, cur->NextDouble());
    values.push_back(v);
  }
  return TimeSeries(std::move(name), std::move(values), std::move(label));
}

/// Reads one '\n'-terminated line of at most kMaxWalLineBytes. Returns
/// false at clean EOF; with content, reports whether the terminator was
/// seen and whether the cap was hit.
bool ReadLineBounded(std::istream& in, std::string* line, bool* newline,
                     bool* over_cap) {
  line->clear();
  *newline = false;
  *over_cap = false;
  int c;
  while ((c = in.get()) != std::char_traits<char>::eof()) {
    if (c == '\n') {
      *newline = true;
      return true;
    }
    line->push_back(static_cast<char>(c));
    if (line->size() > kMaxWalLineBytes) {
      *over_cap = true;
      return true;
    }
  }
  return !line->empty();
}

}  // namespace

const char* WalRecordTypeToString(WalRecordType type) {
  switch (type) {
    case WalRecordType::kLoad: return "load";
    case WalRecordType::kAppend: return "append";
    case WalRecordType::kExtend: return "extend";
    case WalRecordType::kPrepare: return "prepare";
    case WalRecordType::kRegroup: return "regroup";
    case WalRecordType::kCheckpoint: return "ckpt";
  }
  return "unknown";
}

WalRecord WalLoadRecord(const Dataset& dataset) {
  WalRecord r;
  r.type = WalRecordType::kLoad;
  r.dataset = dataset;
  return r;
}

WalRecord WalAppendRecord(TimeSeries series) {
  WalRecord r;
  r.type = WalRecordType::kAppend;
  r.series = std::move(series);
  return r;
}

WalRecord WalExtendRecord(std::vector<SeriesExtension> extensions) {
  WalRecord r;
  r.type = WalRecordType::kExtend;
  r.extensions = std::move(extensions);
  return r;
}

WalRecord WalPrepareRecord(const BaseBuildOptions& options,
                           NormalizationKind norm) {
  WalRecord r;
  r.type = WalRecordType::kPrepare;
  r.options = options;
  r.norm = norm;
  return r;
}

WalRecord WalRegroupRecord(std::vector<std::size_t> lengths) {
  WalRecord r;
  r.type = WalRecordType::kRegroup;
  r.lengths = std::move(lengths);
  return r;
}

WalRecord WalCheckpointRecord(std::uint64_t state_seq) {
  WalRecord r;
  r.type = WalRecordType::kCheckpoint;
  r.checkpoint_seq = state_seq;
  return r;
}

std::string EncodeWalHeader(const std::string& dataset_name) {
  return StrFormat("%s %d ", kWalMagic, kWalVersion) + Quoted(dataset_name) +
         "\n";
}

Result<std::string> DecodeWalHeader(std::string_view line) {
  TokenCursor cur(line);
  ONEX_ASSIGN_OR_RETURN(std::string_view magic, cur.Next());
  if (magic != kWalMagic) {
    return Status::ParseError("not an ONEX wal header");
  }
  ONEX_ASSIGN_OR_RETURN(long long version, cur.NextInt());
  if (version != kWalVersion) {
    return Status::ParseError(StrFormat("unsupported wal version %lld",
                                        version));
  }
  ONEX_ASSIGN_OR_RETURN(std::string name, cur.NextQuoted());
  if (!cur.Done()) {
    return Status::ParseError("trailing bytes after wal header");
  }
  if (name.empty()) {
    return Status::ParseError("wal header has an empty dataset name");
  }
  return name;
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string body = StrFormat("r %llu %s",
                               static_cast<unsigned long long>(record.seq),
                               WalRecordTypeToString(record.type));
  switch (record.type) {
    case WalRecordType::kLoad: {
      body += ' ';
      body += Quoted(record.dataset.name());
      body += StrFormat(" %zu", record.dataset.size());
      for (const TimeSeries& ts : record.dataset.series()) {
        AppendSeriesText(&body, ts);
      }
      break;
    }
    case WalRecordType::kAppend:
      AppendSeriesText(&body, record.series);
      break;
    case WalRecordType::kExtend: {
      body += StrFormat(" %zu", record.extensions.size());
      for (const SeriesExtension& ext : record.extensions) {
        body += StrFormat(" %zu %zu", ext.series, ext.points.size());
        for (const double v : ext.points) body += StrFormat(" %.17g", v);
      }
      break;
    }
    case WalRecordType::kPrepare:
      body += StrFormat(" %.17g %zu %zu %zu %zu %s %s", record.options.st,
                        record.options.min_length, record.options.max_length,
                        record.options.length_step, record.options.stride,
                        CentroidPolicyToString(record.options.centroid_policy),
                        NormalizationKindToString(record.norm));
      break;
    case WalRecordType::kRegroup:
      body += StrFormat(" %zu", record.lengths.size());
      for (const std::size_t len : record.lengths) {
        body += StrFormat(" %zu", len);
      }
      break;
    case WalRecordType::kCheckpoint:
      body += StrFormat(
          " %llu", static_cast<unsigned long long>(record.checkpoint_seq));
      break;
  }
  body += StrFormat(" c=%016llx",
                    static_cast<unsigned long long>(Fnv1a64(body)));
  body += '\n';
  return body;
}

Result<WalRecord> DecodeWalRecord(std::string_view line) {
  // Split off and verify the trailing checksum first: it covers everything
  // before it, so any flipped byte — in values, counts or framing — fails
  // here before any field is trusted.
  const std::size_t cpos = line.rfind(" c=");
  if (cpos == std::string_view::npos) {
    return Status::ParseError("wal record has no checksum field");
  }
  const std::string_view body = line.substr(0, cpos);
  const std::optional<std::uint64_t> expected =
      ParseHex64(line.substr(cpos + 3));
  if (!expected) return Status::ParseError("malformed wal checksum");
  if (Fnv1a64(body) != *expected) {
    return Status::ParseError("wal record checksum mismatch");
  }

  TokenCursor cur(body);
  ONEX_ASSIGN_OR_RETURN(std::string_view tag, cur.Next());
  if (tag != "r") {
    return Status::ParseError("wal record does not start with 'r'");
  }
  WalRecord record;
  ONEX_ASSIGN_OR_RETURN(long long seq, cur.NextInt());
  if (seq <= 0) return Status::ParseError("wal record sequence must be > 0");
  record.seq = static_cast<std::uint64_t>(seq);
  ONEX_ASSIGN_OR_RETURN(std::string_view type_name, cur.Next());
  ONEX_ASSIGN_OR_RETURN(record.type, TypeFromString(type_name));

  switch (record.type) {
    case WalRecordType::kLoad: {
      ONEX_ASSIGN_OR_RETURN(std::string ds_name, cur.NextQuoted());
      ONEX_ASSIGN_OR_RETURN(long long count, cur.NextInt());
      if (count < 0) return Status::ParseError("negative series count in wal");
      Dataset ds(std::move(ds_name));
      for (long long s = 0; s < count; ++s) {
        ONEX_ASSIGN_OR_RETURN(TimeSeries ts, ParseSeriesText(&cur));
        ds.Add(std::move(ts));
      }
      record.dataset = std::move(ds);
      break;
    }
    case WalRecordType::kAppend: {
      ONEX_ASSIGN_OR_RETURN(record.series, ParseSeriesText(&cur));
      break;
    }
    case WalRecordType::kExtend: {
      ONEX_ASSIGN_OR_RETURN(long long count, cur.NextInt());
      if (count < 0) {
        return Status::ParseError("negative extension count in wal");
      }
      for (long long e = 0; e < count; ++e) {
        SeriesExtension ext;
        ONEX_ASSIGN_OR_RETURN(long long series, cur.NextInt());
        ONEX_ASSIGN_OR_RETURN(long long points, cur.NextInt());
        if (series < 0 || points <= 0) {
          return Status::ParseError("malformed extension in wal");
        }
        ext.series = static_cast<std::size_t>(series);
        for (long long p = 0; p < points; ++p) {
          ONEX_ASSIGN_OR_RETURN(double v, cur.NextDouble());
          ext.points.push_back(v);
        }
        record.extensions.push_back(std::move(ext));
      }
      break;
    }
    case WalRecordType::kPrepare: {
      ONEX_ASSIGN_OR_RETURN(record.options.st, cur.NextDouble());
      ONEX_ASSIGN_OR_RETURN(long long minlen, cur.NextInt());
      ONEX_ASSIGN_OR_RETURN(long long maxlen, cur.NextInt());
      ONEX_ASSIGN_OR_RETURN(long long step, cur.NextInt());
      ONEX_ASSIGN_OR_RETURN(long long stride, cur.NextInt());
      if (minlen < 0 || maxlen < 0 || step < 1 || stride < 1) {
        return Status::ParseError("invalid scoping in wal prepare record");
      }
      record.options.min_length = static_cast<std::size_t>(minlen);
      record.options.max_length = static_cast<std::size_t>(maxlen);
      record.options.length_step = static_cast<std::size_t>(step);
      record.options.stride = static_cast<std::size_t>(stride);
      ONEX_ASSIGN_OR_RETURN(std::string_view policy_name, cur.Next());
      const std::optional<CentroidPolicy> policy =
          CentroidPolicyFromString(policy_name);
      if (!policy) {
        return Status::ParseError("unknown centroid policy in wal record");
      }
      record.options.centroid_policy = *policy;
      ONEX_ASSIGN_OR_RETURN(std::string_view norm, cur.Next());
      ONEX_ASSIGN_OR_RETURN(record.norm,
                            NormalizationKindFromString(std::string(norm)));
      ONEX_RETURN_IF_ERROR(record.options.Validate());
      break;
    }
    case WalRecordType::kRegroup: {
      ONEX_ASSIGN_OR_RETURN(long long count, cur.NextInt());
      if (count < 0) return Status::ParseError("negative length count in wal");
      for (long long i = 0; i < count; ++i) {
        ONEX_ASSIGN_OR_RETURN(long long len, cur.NextInt());
        if (len < 0) return Status::ParseError("negative length in wal");
        record.lengths.push_back(static_cast<std::size_t>(len));
      }
      break;
    }
    case WalRecordType::kCheckpoint: {
      ONEX_ASSIGN_OR_RETURN(long long state_seq, cur.NextInt());
      if (state_seq < 0) {
        return Status::ParseError("negative checkpoint state seq in wal");
      }
      record.checkpoint_seq = static_cast<std::uint64_t>(state_seq);
      break;
    }
  }
  if (!cur.Done()) {
    return Status::ParseError("trailing bytes in wal record");
  }
  return record;
}

Result<WalScan> ScanWal(std::istream& in) {
  WalScan scan;
  std::string line;
  bool newline = false;
  bool over_cap = false;

  if (!ReadLineBounded(in, &line, &newline, &over_cap)) {
    if (in.bad()) {
      return Status::IoError("read error while scanning wal header");
    }
    scan.embryonic = true;  // empty file: the header never landed
    return scan;
  }
  if (over_cap) {
    return Status::ParseError("wal header exceeds the line cap");
  }
  if (!newline) {
    if (in.bad()) {
      return Status::IoError("read error while scanning wal header");
    }
    scan.embryonic = true;  // torn at slot birth; nothing was acknowledged
    return scan;
  }
  ONEX_ASSIGN_OR_RETURN(scan.dataset_name, DecodeWalHeader(line));
  scan.valid_bytes = line.size() + 1;

  std::uint64_t last_seq = 0;
  while (ReadLineBounded(in, &line, &newline, &over_cap)) {
    if (over_cap) {
      return Status::ParseError("wal record exceeds the line cap");
    }
    if (!newline) {
      if (in.bad()) {
        // A mid-line read ERROR is not a torn write: the rest of the line
        // may be intact on disk, and calling it torn would let recovery
        // truncate acknowledged history.
        return Status::IoError("read error while scanning wal records");
      }
      // Torn tail: the line never finished, so the write it carried was
      // never acknowledged. Recover the clean prefix.
      scan.torn_tail = true;
      return scan;
    }
    Result<WalRecord> record = DecodeWalRecord(line);
    if (!record.ok()) {
      return Status::ParseError(
          StrFormat("wal record %zu: ", scan.records.size() + 1) +
          record.status().message());
    }
    if (record->seq <= last_seq) {
      return Status::ParseError(StrFormat(
          "wal sequence does not advance (%llu after %llu)",
          static_cast<unsigned long long>(record->seq),
          static_cast<unsigned long long>(last_seq)));
    }
    last_seq = record->seq;
    scan.valid_bytes += line.size() + 1;
    scan.records.push_back(*std::move(record));
  }
  if (in.bad()) {
    // A stream read ERROR is not end-of-file: acknowledged history may
    // still follow. Classifying it as a clean EOF (or worse, a torn tail
    // that recovery then truncates) would silently destroy valid records.
    return Status::IoError("read error while scanning wal records");
  }
  return scan;
}

Result<WalScan> ScanWalFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  return ScanWal(in);
}

Result<WalWriter> WalWriter::Create(const std::string& path,
                                    const std::string& dataset_name,
                                    bool sync, FileOps& files) {
  WalWriter writer(path, sync);
  ONEX_ASSIGN_OR_RETURN(writer.file_, files.OpenAppend(path, /*create=*/true));
  ONEX_RETURN_IF_ERROR(writer.Write(EncodeWalHeader(dataset_name)));
  return writer;
}

Result<WalWriter> WalWriter::OpenExisting(const std::string& path, bool sync,
                                          FileOps& files) {
  WalWriter writer(path, sync);
  ONEX_ASSIGN_OR_RETURN(writer.file_,
                        files.OpenAppend(path, /*create=*/false));
  return writer;
}

Status WalWriter::Write(std::string_view bytes) {
  Status s = file_->Append(bytes);
  if (s.ok() && sync_) s = file_->Sync();
  if (!s.ok()) {
    // Latch: the file may now hold a partial line; appending more would
    // corrupt acknowledged history rather than extend it.
    failed_ = true;
    return Status::IoError("wal append to '" + path_ +
                           "' failed: " + s.message());
  }
  return Status::OK();
}

Status WalWriter::Append(const WalRecord& record) {
  if (file_ == nullptr || failed_) {
    return Status::IoError("wal '" + path_ +
                           "' is in a failed state; slot is read-only");
  }
  const std::string line = EncodeWalRecord(record);
  if (line.size() > kMaxWalLineBytes) {
    // Reject BEFORE writing (the writer stays healthy — nothing was
    // appended): a record the scanner would refuse must never be
    // acknowledged, or it would hold the next recovery hostage.
    return Status::InvalidArgument(StrFormat(
        "wal record of %zu bytes exceeds the replayable line cap (%zu)",
        line.size(), kMaxWalLineBytes));
  }
  return Write(line);
}

/// A snapshot realized from an arena buffer, shared by the mapped and
/// heap read paths: every store serves its columns out of `bytes` and
/// holds `pin`, their owner. The authoritative dataset name is the
/// caller's (WAL header / slot), not the one stored in the arena.
static Result<PreparedDataset> RealizeCheckpoint(
    std::span<const std::byte> bytes, std::shared_ptr<const void> pin,
    const std::string& name) {
  ONEX_ASSIGN_OR_RETURN(ArenaView view, ParseArena(bytes));
  ONEX_ASSIGN_OR_RETURN(RealizedArena realized,
                        RealizeArena(view, std::move(pin)));
  PreparedDataset ds;
  ds.name = name;
  ds.raw = std::move(realized.raw);
  ds.normalized = std::move(realized.normalized);
  ds.base = std::move(realized.base);
  ds.norm_kind = view.norm_kind;
  ds.norm_params = view.norm_params;
  ds.build_options = view.build_options;
  return ds;
}

Result<std::string> EncodeCheckpoint(const PreparedDataset& ds) {
  if (ds.raw == nullptr || ds.base == nullptr) {
    return Status::FailedPrecondition(
        "checkpoint requires a resident prepared snapshot");
  }
  // ONEXARENA (core/arena_layout.h): raw values verbatim (denormalization
  // is not a bit-exact inverse), normalized values, and the full columnar
  // group state — mmap-able, so this checkpoint can also SERVE (§17).
  return EncodeArena(*ds.raw, ds.norm_kind, ds.norm_params, *ds.base);
}

Status WriteCheckpointFile(const PreparedDataset& ds, const std::string& path,
                           bool sync) {
  ONEX_ASSIGN_OR_RETURN(std::string bytes, EncodeCheckpoint(ds));
  return PosixFiles().WriteAtomically(path, bytes, sync);
}

Result<PreparedDataset> ReadCheckpointFile(const std::string& path,
                                           const std::string& name) {
  auto content = std::make_shared<std::string>();
  {
    // A directory opens as a stream whose end lies at INT64_MAX; only a
    // regular file may size the buffer.
    std::error_code ec;
    std::ifstream in;
    if (std::filesystem::is_regular_file(path, ec)) {
      in.open(path, std::ios::binary | std::ios::ate);
    }
    if (!in.is_open()) {
      return Status::IoError("cannot open checkpoint '" + path + "'");
    }
    const std::streamsize size = in.tellg();
    in.seekg(0);
    content->resize(static_cast<std::size_t>(size));
    if (!in.read(content->data(), size)) {
      return Status::IoError("cannot read checkpoint '" + path + "'");
    }
  }
  const auto bytes =
      std::as_bytes(std::span<const char>(content->data(), content->size()));
  return RealizeCheckpoint(bytes, std::move(content), name);
}

Result<PreparedDataset> MapCheckpointFile(FileOps& files,
                                          const std::string& path,
                                          const std::string& name) {
  ONEX_ASSIGN_OR_RETURN(std::shared_ptr<const ArenaMapping> mapping,
                        files.Map(path));
  ONEX_ASSIGN_OR_RETURN(PreparedDataset ds,
                        RealizeCheckpoint(mapping->bytes(), mapping, name));
  ds.arena = std::move(mapping);
  return ds;
}

std::string SlotDirName(const std::string& dataset_name) {
  std::string out;
  out.reserve(dataset_name.size());
  for (const char c : dataset_name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (safe) {
      out += c;
    } else {
      out += StrFormat("%%%02X", static_cast<unsigned char>(c));
    }
  }
  return out;
}

}  // namespace onex
