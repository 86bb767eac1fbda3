#include "onex/core/arena_layout.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>

#include "onex/common/hash.h"
#include "onex/common/string_utils.h"
#include "onex/json/json.h"

namespace onex {
namespace {

// The arena stores MemberRef arrays and size_t offset tables verbatim; the
// format is only defined for the layout every supported target actually has.
static_assert(sizeof(double) == 8, "arena format assumes 8-byte doubles");
static_assert(sizeof(std::size_t) == 8, "arena format assumes 64-bit size_t");
static_assert(sizeof(MemberRef) == 8 && alignof(MemberRef) == 4 &&
                  std::is_trivially_copyable_v<MemberRef>,
              "arena format assumes the packed two-field MemberRef");

constexpr char kArenaMagic[8] = {'O', 'N', 'E', 'X', 'A', 'R', 'N', 'A'};
/// Version 2: each member is an eight-byte (series, start) row whose length
/// the class line gives. Any other version, 1 included, is refused.
constexpr std::uint32_t kArenaVersion = 2;
/// Written on encode, compared on parse: a file produced on a foreign byte
/// order reads back as 0x04030201 and is rejected instead of misdecoded.
constexpr std::uint32_t kEndianTag = 0x01020304;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kDescriptorBytes = 32;
constexpr std::size_t kSectionAlign = 64;

/// Section kinds. Bulk sections are raw host-layout arrays; meta is the
/// line-oriented text block carrying everything small (names, options,
/// normalization params, per-class shapes).
enum SectionKind : std::uint32_t {
  kSecMeta = 1,
  kSecRawValues = 2,
  kSecNormValues = 3,
  kSecCentroids = 4,
  kSecEnvLower = 5,
  kSecEnvUpper = 6,
  kSecCentEnvLower = 7,
  kSecCentEnvUpper = 8,
  kSecMembers = 9,
  kSecMemberOffsets = 10,
};
constexpr std::uint32_t kMaxSectionKind = kSecMemberOffsets;
constexpr std::size_t kSectionsPerClass = 7;
constexpr std::size_t kGlobalSections = 3;  ///< meta, raw, norm.

struct SectionDesc {
  std::uint32_t kind = 0;
  std::uint32_t index = 0;  ///< Length-class index; 0 for global sections.
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t fnv = 0;
};

std::size_t Align64(std::size_t n) {
  return (n + (kSectionAlign - 1)) & ~(kSectionAlign - 1);
}

std::string_view AsView(std::span<const std::byte> bytes) {
  return std::string_view(reinterpret_cast<const char*>(bytes.data()),
                          bytes.size());
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  out += json::EscapeString(s);
  out += '"';
  return out;
}

/// Parses a JSON-quoted string at the start of `text`; returns the remainder
/// through `rest`.
Result<std::string> TakeQuoted(const std::string& text, std::string* rest) {
  if (text.empty() || text.front() != '"') {
    return Status::ParseError("expected quoted string in arena meta");
  }
  std::size_t end = 1;
  while (end < text.size()) {
    if (text[end] == '\\') {
      end += 2;
      continue;
    }
    if (text[end] == '"') break;
    ++end;
  }
  if (end >= text.size()) {
    return Status::ParseError("unterminated quoted string in arena meta");
  }
  ONEX_ASSIGN_OR_RETURN(json::Value v, json::Parse(text.substr(0, end + 1)));
  *rest = std::string(TrimString(text.substr(end + 1)));
  return v.as_string();
}

Result<std::string> NextLine(std::istream& in, const char* what) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::ParseError(
        StrFormat("arena meta ends early at %s", what));
  }
  return line;
}

Result<std::string> ExpectPrefix(const std::string& line,
                                 const std::string& prefix) {
  if (!StartsWith(line, prefix + " ") && line != prefix) {
    return Status::ParseError("arena meta: expected '" + prefix +
                              "' line, got '" + line + "'");
  }
  return std::string(TrimString(line.substr(prefix.size())));
}

template <typename T>
void PutPod(std::string* out, std::size_t at, T value) {
  std::memcpy(out->data() + at, &value, sizeof(T));
}

template <typename T>
T GetPod(std::span<const std::byte> bytes, std::size_t at) {
  T value;
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

void AppendPod32(std::string* out, std::uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendPod64(std::string* out, std::uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// One section payload staged before assembly.
struct PendingSection {
  std::uint32_t kind = 0;
  std::uint32_t index = 0;
  std::string bytes;
};

void AppendDoubles(std::string* out, std::span<const double> values) {
  out->append(reinterpret_cast<const char*>(values.data()),
              values.size() * sizeof(double));
}

/// The parse-side bookkeeping for one described section.
struct SectionTable {
  std::span<const std::byte> file;
  std::vector<SectionDesc> descs;

  /// The unique section (kind, index), or ParseError when absent.
  Result<std::span<const std::byte>> Find(std::uint32_t kind,
                                          std::uint32_t index) const {
    for (const SectionDesc& d : descs) {
      if (d.kind == kind && d.index == index) {
        return file.subspan(d.offset, d.size);
      }
    }
    return Status::ParseError(StrFormat(
        "arena is missing section kind=%u index=%u", kind, index));
  }
};

/// Casts a validated, 8-aligned section to a typed span after checking the
/// byte size matches `count` elements exactly. Division, not multiplication:
/// `count` is attacker-declared and must never feed overflowing arithmetic.
template <typename T>
Result<std::span<const T>> TypedSection(std::span<const std::byte> sec,
                                        std::size_t count, const char* what) {
  if (sec.size() % sizeof(T) != 0 || sec.size() / sizeof(T) != count) {
    return Status::ParseError(
        StrFormat("arena section %s holds %zu bytes, expected %zu elements",
                  what, sec.size(), count));
  }
  return std::span<const T>(reinterpret_cast<const T*>(sec.data()), count);
}

/// A num_groups x length double matrix section; shape verified by division
/// so a crafted (groups, length) pair cannot wrap a product.
Result<std::span<const double>> MatrixSection(std::span<const std::byte> sec,
                                              std::size_t num_groups,
                                              std::size_t length,
                                              const char* what) {
  if (sec.size() % sizeof(double) != 0) {
    return Status::ParseError(
        StrFormat("arena section %s is not double-sized", what));
  }
  const std::size_t elems = sec.size() / sizeof(double);
  if (length == 0 || elems % length != 0 || elems / length != num_groups) {
    return Status::ParseError(
        StrFormat("arena section %s holds %zu doubles, expected %zu x %zu",
                  what, elems, num_groups, length));
  }
  return std::span<const double>(reinterpret_cast<const double*>(sec.data()),
                                 elems);
}

}  // namespace

// ---------------------------------------------------------------------------
// ArenaMapping
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const ArenaMapping>> ArenaMapping::Map(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open arena '" + path + "': " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("cannot stat arena '" + path + "': " + err);
  }
  if (st.st_size <= 0) {
    ::close(fd);
    return Status::InvalidArgument("arena '" + path + "' is empty");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping survives the descriptor; closing immediately keeps the fd
  // table flat no matter how many cold datasets are mapped.
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IoError("cannot mmap arena '" + path + "': " +
                           std::strerror(errno));
  }
  auto mapping = std::shared_ptr<ArenaMapping>(new ArenaMapping());
  mapping->addr_ = addr;
  mapping->size_ = size;
  mapping->path_ = path;
  return std::shared_ptr<const ArenaMapping>(std::move(mapping));
}

ArenaMapping::~ArenaMapping() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
}

void ArenaMapping::AdviseDontNeed() const {
  if (addr_ != nullptr) ::madvise(addr_, size_, MADV_DONTNEED);
}

void ArenaMapping::AdviseWillNeed() const {
  if (addr_ != nullptr) ::madvise(addr_, size_, MADV_WILLNEED);
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

bool LooksLikeArena(std::span<const std::byte> bytes) {
  return bytes.size() >= sizeof(kArenaMagic) &&
         std::memcmp(bytes.data(), kArenaMagic, sizeof(kArenaMagic)) == 0;
}

bool LooksLikeArena(std::string_view bytes) {
  return bytes.size() >= sizeof(kArenaMagic) &&
         std::memcmp(bytes.data(), kArenaMagic, sizeof(kArenaMagic)) == 0;
}

Result<std::string> EncodeArena(const Dataset& raw, NormalizationKind kind,
                                const NormalizationParams& params,
                                const OnexBase& base) {
  const Dataset& norm = base.dataset();
  if (raw.size() != norm.size()) {
    return Status::InvalidArgument(
        StrFormat("arena encode: raw has %zu series, normalized %zu",
                  raw.size(), norm.size()));
  }
  for (std::size_t s = 0; s < raw.size(); ++s) {
    if (raw[s].length() != norm[s].length()) {
      return Status::InvalidArgument(StrFormat(
          "arena encode: series %zu raw/normalized length mismatch", s));
    }
  }
  if (base.length_classes().empty()) {
    return Status::InvalidArgument("arena encode: base has no length classes");
  }

  // Meta: every small field, text with %.17g doubles so re-encoding a
  // realized arena reproduces the bytes exactly.
  std::string meta;
  meta += "dataset " + Quoted(norm.name()) + "\n";
  meta += StrFormat("norm %s %.17g %.17g %zu\n",
                    NormalizationKindToString(kind), params.min, params.max,
                    params.per_series.size());
  for (const auto& [offset, scale] : params.per_series) {
    meta += StrFormat("p %.17g %.17g\n", offset, scale);
  }
  const BaseBuildOptions& opt = base.options();
  meta += StrFormat("options %.17g %zu %zu %zu %zu %s\n", opt.st,
                    opt.min_length, opt.max_length, opt.length_step,
                    opt.stride, CentroidPolicyToString(opt.centroid_policy));
  meta += StrFormat("repaired %zu\n", base.stats().repaired_members);
  meta += StrFormat("series %zu\n", norm.size());
  for (const TimeSeries& ts : norm.series()) {
    meta += "s " + Quoted(ts.name()) + " " + Quoted(ts.label()) +
            StrFormat(" %zu\n", ts.length());
  }
  meta += StrFormat("classes %zu\n", base.length_classes().size());
  for (const LengthClass& cls : base.length_classes()) {
    meta += StrFormat("class %zu %zu %zu\n", cls.length,
                      cls.store->num_groups(), cls.store->total_members());
  }
  meta += "end\n";

  std::vector<PendingSection> sections;
  sections.push_back({kSecMeta, 0, std::move(meta)});

  PendingSection raw_sec{kSecRawValues, 0, {}};
  PendingSection norm_sec{kSecNormValues, 0, {}};
  raw_sec.bytes.reserve(raw.TotalPoints() * sizeof(double));
  norm_sec.bytes.reserve(norm.TotalPoints() * sizeof(double));
  for (std::size_t s = 0; s < raw.size(); ++s) {
    AppendDoubles(&raw_sec.bytes, raw[s].AsSpan());
    AppendDoubles(&norm_sec.bytes, norm[s].AsSpan());
  }
  sections.push_back(std::move(raw_sec));
  sections.push_back(std::move(norm_sec));

  for (std::size_t c = 0; c < base.length_classes().size(); ++c) {
    const GroupStore& store = *base.length_classes()[c].store;
    const std::size_t n = store.num_groups();
    const std::uint32_t index = static_cast<std::uint32_t>(c);

    PendingSection cent{kSecCentroids, index, {}};
    PendingSection env_lo{kSecEnvLower, index, {}};
    PendingSection env_hi{kSecEnvUpper, index, {}};
    PendingSection ce_lo{kSecCentEnvLower, index, {}};
    PendingSection ce_hi{kSecCentEnvUpper, index, {}};
    PendingSection members{kSecMembers, index, {}};
    PendingSection offsets{kSecMemberOffsets, index, {}};

    AppendDoubles(&cent.bytes, store.centroid_matrix());
    std::uint64_t running = 0;
    AppendPod64(&offsets.bytes, running);
    for (std::size_t g = 0; g < n; ++g) {
      AppendDoubles(&env_lo.bytes, store.envelope(g).lower);
      AppendDoubles(&env_hi.bytes, store.envelope(g).upper);
      AppendDoubles(&ce_lo.bytes, store.centroid_envelope(g).lower);
      AppendDoubles(&ce_hi.bytes, store.centroid_envelope(g).upper);
      const std::span<const MemberRef> refs = store.members(g).rows();
      members.bytes.append(reinterpret_cast<const char*>(refs.data()),
                           refs.size() * sizeof(MemberRef));
      running += refs.size();
      AppendPod64(&offsets.bytes, running);
    }
    sections.push_back(std::move(cent));
    sections.push_back(std::move(env_lo));
    sections.push_back(std::move(env_hi));
    sections.push_back(std::move(ce_lo));
    sections.push_back(std::move(ce_hi));
    sections.push_back(std::move(members));
    sections.push_back(std::move(offsets));
  }

  // Layout: header, descriptor table, then 64-byte-aligned sections with
  // zero padding between. file_size ends at the last section's last byte.
  const std::size_t table_end =
      kHeaderBytes + sections.size() * kDescriptorBytes;
  std::vector<SectionDesc> descs(sections.size());
  std::size_t off = Align64(table_end);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    descs[i].kind = sections[i].kind;
    descs[i].index = sections[i].index;
    descs[i].offset = off;
    descs[i].size = sections[i].bytes.size();
    descs[i].fnv = Fnv1a64(sections[i].bytes);
    off = Align64(off + sections[i].bytes.size());
  }
  const std::size_t file_size =
      sections.empty() ? table_end
                       : static_cast<std::size_t>(descs.back().offset +
                                                  descs.back().size);

  std::string blob(file_size, '\0');
  std::memcpy(blob.data(), kArenaMagic, sizeof(kArenaMagic));
  PutPod(&blob, 8, kArenaVersion);
  PutPod(&blob, 12, kEndianTag);
  PutPod(&blob, 16, static_cast<std::uint64_t>(file_size));
  PutPod(&blob, 24, static_cast<std::uint32_t>(sections.size()));
  // Bytes 28..32 reserved (zero), 40..64 padding (zero; parse enforces).
  for (std::size_t i = 0; i < sections.size(); ++i) {
    std::string desc_bytes;
    desc_bytes.reserve(kDescriptorBytes);
    AppendPod32(&desc_bytes, descs[i].kind);
    AppendPod32(&desc_bytes, descs[i].index);
    AppendPod64(&desc_bytes, descs[i].offset);
    AppendPod64(&desc_bytes, descs[i].size);
    AppendPod64(&desc_bytes, descs[i].fnv);
    std::memcpy(blob.data() + kHeaderBytes + i * kDescriptorBytes,
                desc_bytes.data(), kDescriptorBytes);
    std::memcpy(blob.data() + descs[i].offset, sections[i].bytes.data(),
                sections[i].bytes.size());
  }
  const std::uint64_t file_fnv =
      Fnv1a64(std::string_view(blob).substr(kHeaderBytes));
  PutPod(&blob, 32, file_fnv);
  return blob;
}

// ---------------------------------------------------------------------------
// Parse
// ---------------------------------------------------------------------------

Result<ArenaView> ParseArena(std::span<const std::byte> bytes) {
  if (bytes.size() < kHeaderBytes) {
    return Status::ParseError("arena file truncated (no header)");
  }
  if (!LooksLikeArena(bytes)) {
    return Status::ParseError("not an ONEX arena file");
  }
  if (reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(double) != 0) {
    return Status::InvalidArgument("arena buffer is not 8-byte aligned");
  }
  const std::uint32_t version = GetPod<std::uint32_t>(bytes, 8);
  if (version != kArenaVersion) {
    return Status::ParseError(
        StrFormat("unsupported arena version %u", version));
  }
  if (GetPod<std::uint32_t>(bytes, 12) != kEndianTag) {
    return Status::ParseError("arena was written with a foreign byte order");
  }
  const std::uint64_t file_size = GetPod<std::uint64_t>(bytes, 16);
  if (file_size != bytes.size()) {
    return Status::ParseError(
        StrFormat("arena declares %llu bytes but file holds %zu",
                  static_cast<unsigned long long>(file_size), bytes.size()));
  }
  const std::uint32_t section_count = GetPod<std::uint32_t>(bytes, 24);
  if (GetPod<std::uint32_t>(bytes, 28) != 0) {
    return Status::ParseError("arena reserved header field is not zero");
  }
  for (std::size_t i = 40; i < kHeaderBytes; ++i) {
    if (bytes[i] != std::byte{0}) {
      return Status::ParseError("arena header padding is not zero");
    }
  }
  const std::uint64_t file_fnv = GetPod<std::uint64_t>(bytes, 32);
  if (Fnv1a64(AsView(bytes.subspan(kHeaderBytes))) != file_fnv) {
    return Status::ParseError("arena whole-file checksum mismatch");
  }
  // The table must fit BEFORE the count drives the descriptor loop.
  if (section_count < kGlobalSections ||
      kHeaderBytes + static_cast<std::uint64_t>(section_count) *
                         kDescriptorBytes >
          file_size) {
    return Status::ParseError(
        StrFormat("arena section table (%u entries) does not fit", section_count));
  }
  const std::size_t table_end =
      kHeaderBytes + section_count * kDescriptorBytes;

  SectionTable table;
  table.file = bytes;
  table.descs.reserve(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::size_t at = kHeaderBytes + i * kDescriptorBytes;
    SectionDesc d;
    d.kind = GetPod<std::uint32_t>(bytes, at);
    d.index = GetPod<std::uint32_t>(bytes, at + 4);
    d.offset = GetPod<std::uint64_t>(bytes, at + 8);
    d.size = GetPod<std::uint64_t>(bytes, at + 16);
    d.fnv = GetPod<std::uint64_t>(bytes, at + 24);
    if (d.kind == 0 || d.kind > kMaxSectionKind) {
      return Status::ParseError(
          StrFormat("arena section %u has unknown kind %u", i, d.kind));
    }
    if (d.offset % kSectionAlign != 0 || d.offset < table_end ||
        d.offset > file_size || d.size > file_size - d.offset) {
      return Status::ParseError(
          StrFormat("arena section %u lies outside the file", i));
    }
    for (const SectionDesc& prev : table.descs) {
      if (prev.kind == d.kind && prev.index == d.index) {
        return Status::ParseError(StrFormat(
            "arena has duplicate section kind=%u index=%u", d.kind, d.index));
      }
    }
    if (Fnv1a64(AsView(bytes.subspan(d.offset, d.size))) != d.fnv) {
      return Status::ParseError(
          StrFormat("arena section %u checksum mismatch", i));
    }
    table.descs.push_back(d);
  }

  ArenaView view;

  // --- Meta ---------------------------------------------------------------
  ONEX_ASSIGN_OR_RETURN(std::span<const std::byte> meta_sec,
                        table.Find(kSecMeta, 0));
  std::istringstream meta{std::string(AsView(meta_sec))};
  {
    ONEX_ASSIGN_OR_RETURN(std::string line, NextLine(meta, "dataset"));
    ONEX_ASSIGN_OR_RETURN(std::string rest, ExpectPrefix(line, "dataset"));
    std::string after;
    ONEX_ASSIGN_OR_RETURN(view.dataset_name, TakeQuoted(rest, &after));
    if (!after.empty()) {
      return Status::ParseError("trailing bytes on arena dataset line");
    }
  }
  std::size_t per_series_count = 0;
  {
    ONEX_ASSIGN_OR_RETURN(std::string line, NextLine(meta, "norm"));
    ONEX_ASSIGN_OR_RETURN(std::string rest, ExpectPrefix(line, "norm"));
    const std::vector<std::string> f = SplitString(rest);
    if (f.size() != 4) {
      return Status::ParseError("arena norm line needs 4 fields");
    }
    ONEX_ASSIGN_OR_RETURN(view.norm_kind, NormalizationKindFromString(f[0]));
    ONEX_ASSIGN_OR_RETURN(view.norm_params.min, ParseDouble(f[1]));
    ONEX_ASSIGN_OR_RETURN(view.norm_params.max, ParseDouble(f[2]));
    ONEX_ASSIGN_OR_RETURN(long long count, ParseInt(f[3]));
    if (count < 0) return Status::ParseError("negative per-series count");
    per_series_count = static_cast<std::size_t>(count);
    view.norm_params.kind = view.norm_kind;
  }
  for (std::size_t i = 0; i < per_series_count; ++i) {
    // Entries append one by one as lines actually parse, so a hostile count
    // cannot command an allocation the meta bytes don't back.
    ONEX_ASSIGN_OR_RETURN(std::string line, NextLine(meta, "per-series"));
    ONEX_ASSIGN_OR_RETURN(std::string rest, ExpectPrefix(line, "p"));
    const std::vector<std::string> f = SplitString(rest);
    if (f.size() != 2) {
      return Status::ParseError("arena per-series line needs 2 fields");
    }
    ONEX_ASSIGN_OR_RETURN(double offset, ParseDouble(f[0]));
    ONEX_ASSIGN_OR_RETURN(double scale, ParseDouble(f[1]));
    view.norm_params.per_series.emplace_back(offset, scale);
  }
  {
    ONEX_ASSIGN_OR_RETURN(std::string line, NextLine(meta, "options"));
    ONEX_ASSIGN_OR_RETURN(std::string rest, ExpectPrefix(line, "options"));
    const std::vector<std::string> f = SplitString(rest);
    if (f.size() != 6) {
      return Status::ParseError("arena options line needs 6 fields");
    }
    ONEX_ASSIGN_OR_RETURN(view.build_options.st, ParseDouble(f[0]));
    ONEX_ASSIGN_OR_RETURN(long long minlen, ParseInt(f[1]));
    ONEX_ASSIGN_OR_RETURN(long long maxlen, ParseInt(f[2]));
    ONEX_ASSIGN_OR_RETURN(long long step, ParseInt(f[3]));
    ONEX_ASSIGN_OR_RETURN(long long stride, ParseInt(f[4]));
    if (minlen < 0 || maxlen < 0 || step < 1 || stride < 1) {
      return Status::ParseError("invalid scoping in arena options line");
    }
    view.build_options.min_length = static_cast<std::size_t>(minlen);
    view.build_options.max_length = static_cast<std::size_t>(maxlen);
    view.build_options.length_step = static_cast<std::size_t>(step);
    view.build_options.stride = static_cast<std::size_t>(stride);
    const std::optional<CentroidPolicy> policy =
        CentroidPolicyFromString(f[5]);
    if (!policy) {
      return Status::ParseError("unknown centroid policy: '" + f[5] + "'");
    }
    view.build_options.centroid_policy = *policy;
    ONEX_RETURN_IF_ERROR(view.build_options.Validate());
  }
  {
    ONEX_ASSIGN_OR_RETURN(std::string line, NextLine(meta, "repaired"));
    ONEX_ASSIGN_OR_RETURN(std::string rest, ExpectPrefix(line, "repaired"));
    ONEX_ASSIGN_OR_RETURN(long long n, ParseInt(rest));
    if (n < 0) return Status::ParseError("negative repaired count");
    view.repaired_members = static_cast<std::size_t>(n);
  }
  std::size_t total_points = 0;
  std::size_t longest_series = 0;
  {
    ONEX_ASSIGN_OR_RETURN(std::string line, NextLine(meta, "series count"));
    ONEX_ASSIGN_OR_RETURN(std::string rest, ExpectPrefix(line, "series"));
    ONEX_ASSIGN_OR_RETURN(long long count, ParseInt(rest));
    if (count <= 0) {
      return Status::ParseError("arena series count must be positive");
    }
    for (long long s = 0; s < count; ++s) {
      ONEX_ASSIGN_OR_RETURN(std::string sline, NextLine(meta, "series"));
      ONEX_ASSIGN_OR_RETURN(std::string srest, ExpectPrefix(sline, "s"));
      ArenaSeriesMeta sm;
      std::string tail;
      ONEX_ASSIGN_OR_RETURN(sm.name, TakeQuoted(srest, &tail));
      std::string tail2;
      ONEX_ASSIGN_OR_RETURN(sm.label, TakeQuoted(tail, &tail2));
      ONEX_ASSIGN_OR_RETURN(long long len, ParseInt(tail2));
      if (len <= 0 || static_cast<std::uint64_t>(len) > file_size) {
        return Status::ParseError("arena series length is out of range");
      }
      sm.length = static_cast<std::size_t>(len);
      if (total_points > file_size) {
        // Lengths are about to index the value sections, which are capped
        // by the file size; bail before the sum can overflow.
        return Status::ParseError("arena series lengths exceed the file");
      }
      total_points += sm.length;
      longest_series = std::max(longest_series, sm.length);
      view.series.push_back(std::move(sm));
    }
    ONEX_RETURN_IF_ERROR(
        CheckMemberLimits(view.series.size(), longest_series));
  }

  struct ClassMeta {
    std::size_t length = 0;
    std::size_t num_groups = 0;
    std::size_t num_members = 0;
  };
  std::vector<ClassMeta> class_metas;
  {
    ONEX_ASSIGN_OR_RETURN(std::string line, NextLine(meta, "classes count"));
    ONEX_ASSIGN_OR_RETURN(std::string rest, ExpectPrefix(line, "classes"));
    ONEX_ASSIGN_OR_RETURN(long long count, ParseInt(rest));
    if (count <= 0) {
      return Status::ParseError("arena class count must be positive");
    }
    std::size_t prev_length = 0;
    for (long long c = 0; c < count; ++c) {
      ONEX_ASSIGN_OR_RETURN(std::string cline, NextLine(meta, "class"));
      ONEX_ASSIGN_OR_RETURN(std::string crest, ExpectPrefix(cline, "class"));
      const std::vector<std::string> f = SplitString(crest);
      if (f.size() != 3) {
        return Status::ParseError("arena class line needs 3 fields");
      }
      ONEX_ASSIGN_OR_RETURN(long long length, ParseInt(f[0]));
      ONEX_ASSIGN_OR_RETURN(long long groups, ParseInt(f[1]));
      ONEX_ASSIGN_OR_RETURN(long long members, ParseInt(f[2]));
      if (length < 2 || groups < 1 || members < static_cast<long long>(groups)) {
        return Status::ParseError("invalid arena class header");
      }
      // Any real class needs at least this many bytes of sections; capping
      // at the file size keeps every later +1 / sum over these counts far
      // from overflow without trusting the declared values.
      if (static_cast<std::uint64_t>(length) > file_size ||
          static_cast<std::uint64_t>(groups) > file_size ||
          static_cast<std::uint64_t>(members) > file_size) {
        return Status::ParseError("arena class header exceeds the file");
      }
      if (static_cast<std::size_t>(length) <= prev_length) {
        return Status::ParseError(
            "arena length classes must be strictly increasing");
      }
      prev_length = static_cast<std::size_t>(length);
      class_metas.push_back({static_cast<std::size_t>(length),
                             static_cast<std::size_t>(groups),
                             static_cast<std::size_t>(members)});
    }
    ONEX_ASSIGN_OR_RETURN(std::string end_line, NextLine(meta, "end"));
    if (TrimString(end_line) != "end") {
      return Status::ParseError("arena meta is missing its end marker");
    }
  }
  if (view.norm_kind != NormalizationKind::kMinMaxDataset &&
      view.norm_kind != NormalizationKind::kNone &&
      per_series_count != view.series.size()) {
    return Status::ParseError(
        "arena per-series normalization entries do not match series count");
  }
  if (section_count !=
      kGlobalSections + kSectionsPerClass * class_metas.size()) {
    return Status::ParseError(
        StrFormat("arena declares %zu classes but carries %u sections",
                  class_metas.size(), section_count));
  }

  // --- Bulk sections, every shape cross-checked against the meta ----------
  ONEX_ASSIGN_OR_RETURN(std::span<const std::byte> raw_sec,
                        table.Find(kSecRawValues, 0));
  ONEX_ASSIGN_OR_RETURN(view.raw_values,
                        TypedSection<double>(raw_sec, total_points, "raw"));
  ONEX_ASSIGN_OR_RETURN(std::span<const std::byte> norm_sec,
                        table.Find(kSecNormValues, 0));
  ONEX_ASSIGN_OR_RETURN(
      view.norm_values,
      TypedSection<double>(norm_sec, total_points, "normalized"));

  for (std::size_t c = 0; c < class_metas.size(); ++c) {
    const ClassMeta& cm = class_metas[c];
    const std::uint32_t index = static_cast<std::uint32_t>(c);
    ArenaClassView cls;
    cls.length = cm.length;
    cls.num_groups = cm.num_groups;

    std::span<const std::byte> sec;
    ONEX_ASSIGN_OR_RETURN(sec, table.Find(kSecCentroids, index));
    ONEX_ASSIGN_OR_RETURN(
        cls.centroids,
        MatrixSection(sec, cm.num_groups, cm.length, "centroids"));
    ONEX_ASSIGN_OR_RETURN(sec, table.Find(kSecEnvLower, index));
    ONEX_ASSIGN_OR_RETURN(
        cls.env_lower,
        MatrixSection(sec, cm.num_groups, cm.length, "env_lower"));
    ONEX_ASSIGN_OR_RETURN(sec, table.Find(kSecEnvUpper, index));
    ONEX_ASSIGN_OR_RETURN(
        cls.env_upper,
        MatrixSection(sec, cm.num_groups, cm.length, "env_upper"));
    ONEX_ASSIGN_OR_RETURN(sec, table.Find(kSecCentEnvLower, index));
    ONEX_ASSIGN_OR_RETURN(
        cls.cent_env_lower,
        MatrixSection(sec, cm.num_groups, cm.length, "cent_env_lower"));
    ONEX_ASSIGN_OR_RETURN(sec, table.Find(kSecCentEnvUpper, index));
    ONEX_ASSIGN_OR_RETURN(
        cls.cent_env_upper,
        MatrixSection(sec, cm.num_groups, cm.length, "cent_env_upper"));
    ONEX_ASSIGN_OR_RETURN(sec, table.Find(kSecMembers, index));
    ONEX_ASSIGN_OR_RETURN(
        cls.members, TypedSection<MemberRef>(sec, cm.num_members, "members"));
    ONEX_ASSIGN_OR_RETURN(sec, table.Find(kSecMemberOffsets, index));
    ONEX_ASSIGN_OR_RETURN(cls.member_offsets,
                          TypedSection<std::size_t>(sec, cm.num_groups + 1,
                                                    "member_offsets"));

    // Offset table: starts at 0, strictly increasing (no empty groups —
    // build and restore both forbid them), ends at the member count.
    if (cls.member_offsets.front() != 0 ||
        cls.member_offsets.back() != cm.num_members) {
      return Status::ParseError(
          StrFormat("arena class %zu offset table has wrong bounds", c));
    }
    for (std::size_t g = 0; g < cm.num_groups; ++g) {
      if (cls.member_offsets[g] >= cls.member_offsets[g + 1]) {
        return Status::ParseError(StrFormat(
            "arena class %zu offset table is not strictly increasing", c));
      }
    }
    // Member rows: valid series, a class-length window inside it.
    for (const MemberRef& ref : cls.members) {
      if (ref.series >= view.series.size()) {
        return Status::ParseError(
            StrFormat("arena class %zu has an out-of-domain member ref", c));
      }
      const std::size_t slen = view.series[ref.series].length;
      if (ref.start > slen || cm.length > slen - ref.start) {
        return Status::ParseError(
            StrFormat("arena class %zu member ref exceeds its series", c));
      }
    }
    view.classes.push_back(cls);
  }
  return view;
}

// ---------------------------------------------------------------------------
// Realize
// ---------------------------------------------------------------------------

Result<RealizedArena> RealizeArena(const ArenaView& view,
                                   std::shared_ptr<const void> pin) {
  // Series values are always copied: Dataset owns vectors, and the
  // streaming extend path mutates them copy-on-write anyway. The big wins —
  // centroid/envelope matrices and the member arena — serve in place.
  Dataset raw(view.dataset_name);
  Dataset norm(view.dataset_name);
  std::size_t at = 0;
  for (const ArenaSeriesMeta& sm : view.series) {
    const std::span<const double> rv = view.raw_values.subspan(at, sm.length);
    const std::span<const double> nv = view.norm_values.subspan(at, sm.length);
    raw.Add(TimeSeries(sm.name, {rv.begin(), rv.end()}, sm.label));
    norm.Add(TimeSeries(sm.name, {nv.begin(), nv.end()}, sm.label));
    at += sm.length;
  }
  auto raw_ptr = std::make_shared<const Dataset>(std::move(raw));
  auto norm_ptr = std::make_shared<const Dataset>(std::move(norm));

  std::vector<std::shared_ptr<const GroupStore>> stores;
  stores.reserve(view.classes.size());
  for (const ArenaClassView& cls : view.classes) {
    stores.push_back(
        std::make_shared<const GroupStore>(GroupStore::Borrow(cls, pin)));
  }

  ONEX_ASSIGN_OR_RETURN(
      OnexBase base,
      OnexBase::FromStores(norm_ptr, view.build_options, std::move(stores),
                           view.repaired_members));
  RealizedArena out;
  out.raw = std::move(raw_ptr);
  out.normalized = norm_ptr;
  out.base = std::make_shared<const OnexBase>(std::move(base));
  return out;
}

}  // namespace onex
