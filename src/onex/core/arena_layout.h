#ifndef ONEX_CORE_ARENA_LAYOUT_H_
#define ONEX_CORE_ARENA_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "onex/common/result.h"
#include "onex/core/onex_base.h"
#include "onex/ts/dataset.h"
#include "onex/ts/normalization.h"
#include "onex/ts/subsequence.h"

namespace onex {

/// The ONEXARENA checkpoint format (DESIGN.md §17): one relocatable blob
/// whose on-disk bytes ARE the in-memory columnar layout. A 64-byte header,
/// a table of 32-byte section descriptors, then 64-byte-aligned sections
/// holding exactly what GroupStore/OnexBase hold in RAM — the centroid
/// matrix, the member-envelope and centroid-envelope matrices, the member
/// arena (eight-byte MemberRef rows; the class line supplies their length)
/// and its offset table, the raw and normalized series values, and the
/// frozen normalization parameters. Everything is addressed by offset, never
/// by pointer, so an arena can be mmap'd read-only and served in place: a
/// cold dataset's first query is a page-in, not a rebuild.
///
/// Integrity: the header carries an FNV-1a 64 over every byte after it, and
/// each section descriptor carries its own FNV over the section's bytes.
/// ParseArena validates both, plus every structural invariant (counts
/// cross-checked against section byte sizes before anything is allocated,
/// member rows bounds-checked against the declared series lengths, offset
/// tables monotone) — a hostile or truncated file is a structured error,
/// never UB and never a silently different base.

/// Read-only mmap of an arena file. Each store of a realized base serves
/// spans into the mapping and pins it by shared_ptr, so the mapping lives
/// exactly as long as its last reader. Non-copyable; always heap-held.
class ArenaMapping {
 public:
  /// Maps `path` read-only (MAP_PRIVATE). IoError when the file cannot be
  /// opened or mapped; InvalidArgument on an empty file.
  static Result<std::shared_ptr<const ArenaMapping>> Map(
      const std::string& path);

  ~ArenaMapping();
  ArenaMapping(const ArenaMapping&) = delete;
  ArenaMapping& operator=(const ArenaMapping&) = delete;

  std::span<const std::byte> bytes() const {
    return std::span<const std::byte>(static_cast<const std::byte*>(addr_),
                                      size_);
  }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// madvise hints. DontNeed drops resident pages after a downgrade (the
  /// data stays servable — the next read faults it back in); WillNeed
  /// prefetches before a known query burst. Both are best-effort.
  void AdviseDontNeed() const;
  void AdviseWillNeed() const;

 private:
  ArenaMapping() = default;
  void* addr_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

/// Parsed, validated view of one length class inside an arena: the columns
/// a GroupStore serves, as spans into the parsed buffer.
using ArenaClassView = GroupStore::Columns;

/// Name/label/length of one series (values live in the bulk sections).
struct ArenaSeriesMeta {
  std::string name;
  std::string label;
  std::size_t length = 0;
};

/// Fully validated view of an arena buffer. Spans reference the buffer
/// passed to ParseArena, which the view does not own: RealizeArena takes
/// the pin that owns it and hands it to every store.
struct ArenaView {
  std::string dataset_name;
  NormalizationKind norm_kind = NormalizationKind::kMinMaxDataset;
  NormalizationParams norm_params;
  BaseBuildOptions build_options;
  std::size_t repaired_members = 0;
  std::vector<ArenaSeriesMeta> series;
  std::span<const double> raw_values;   ///< All series, concatenated.
  std::span<const double> norm_values;  ///< Same order and lengths.
  std::vector<ArenaClassView> classes;
};

/// The structures RealizeArena assembles from a view.
struct RealizedArena {
  std::shared_ptr<const Dataset> raw;
  std::shared_ptr<const Dataset> normalized;
  std::shared_ptr<const OnexBase> base;
};

/// True when `bytes` starts with the ONEXARENA magic — ParseArena's first
/// check.
bool LooksLikeArena(std::span<const std::byte> bytes);
bool LooksLikeArena(std::string_view bytes);

/// Serializes a prepared dataset into one arena blob. `base.dataset()` must
/// be the normalized dataset; `raw` carries the exact original-unit values
/// (same series count and lengths). Deterministic: the same inputs encode
/// to the same bytes, so independent builds of the same base are
/// byte-identical (core_arena_golden_test).
Result<std::string> EncodeArena(const Dataset& raw, NormalizationKind kind,
                                const NormalizationParams& params,
                                const OnexBase& base);

/// Parses and fully validates an arena buffer. The buffer must be 8-byte
/// aligned (mmap and heap buffers both are) and outlive the returned view.
/// Every count is cross-checked against actual section byte sizes before it
/// drives any allocation or loop.
Result<ArenaView> ParseArena(std::span<const std::byte> bytes);

/// Assembles datasets and an OnexBase from a parsed view. `pin` must own
/// the buffer the view was parsed from — an ArenaMapping, or a checkpoint
/// file read into memory. Every group store serves the view's spans in
/// place and holds `pin`, so the buffer lives as long as any store does.
/// Series values are always copied — Dataset owns its vectors — so only
/// the group structures serve out of the buffer (and, off a mapping, page
/// in lazily).
Result<RealizedArena> RealizeArena(const ArenaView& view,
                                   std::shared_ptr<const void> pin);

}  // namespace onex

#endif  // ONEX_CORE_ARENA_LAYOUT_H_
