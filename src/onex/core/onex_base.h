#ifndef ONEX_CORE_ONEX_BASE_H_
#define ONEX_CORE_ONEX_BASE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "onex/common/result.h"
#include "onex/core/group_store.h"
#include "onex/core/similarity_group.h"
#include "onex/ts/dataset.h"

namespace onex {

/// How the group representative evolves as members join (DESIGN.md §5).
enum class CentroidPolicy {
  /// The first member is the representative forever. The ST/2 radius
  /// invariant is exact: every member was admitted against the final
  /// centroid.
  kFixedLeader = 0,
  /// Representative is the running mean (the paper's "average of all
  /// sequences in each group"). The radius invariant can drift slightly.
  kRunningMean = 1,
  /// Running mean plus a repair pass: members whose distance to the final
  /// centroid exceeds ST/2 are pulled out and re-inserted.
  kRunningMeanRepair = 2,
};

const char* CentroidPolicyToString(CentroidPolicy policy);
/// The inverse of CentroidPolicyToString; nullopt for any other spelling.
/// Callers name their own error.
std::optional<CentroidPolicy> CentroidPolicyFromString(std::string_view name);

/// Parameters of ONEX-base construction.
struct BaseBuildOptions {
  /// Similarity threshold ST in length-normalized ED units. Members join a
  /// group when within ST/2 of its representative.
  double st = 0.2;
  /// Subsequence scoping. max_length == 0 means "up to the longest series".
  /// Defaults cover every length >= min_length at every offset, like the
  /// paper; benches narrow these for the big sweeps.
  std::size_t min_length = 4;
  std::size_t max_length = 0;
  std::size_t length_step = 1;
  std::size_t stride = 1;
  CentroidPolicy centroid_policy = CentroidPolicy::kRunningMean;
  /// Worker threads for construction, scheduled over the shared TaskPool.
  /// Length classes are independent, so they parallelize perfectly; the
  /// result is bit-identical to a serial build. 1 = serial (default),
  /// 0 = one thread per hardware core.
  std::size_t threads = 1;

  Status Validate() const;
};

/// All similarity groups for one subsequence length: a columnar GroupStore
/// holding the data (DESIGN.md §4) plus one two-word view per group. The
/// store sits behind a shared_ptr so the views stay valid when a
/// LengthClass is moved or copied (copies share the immutable store).
struct LengthClass {
  std::size_t length = 0;
  std::shared_ptr<const GroupStore> store;
  std::vector<SimilarityGroup> groups;  ///< Views into *store, by index.
  std::size_t total_members = 0;
  /// Drift outliers of each group (members farther than
  /// DriftOutlierRadius from its centroid; core/incremental.h), kept by the
  /// write paths so a write rescans only the groups it changed. Empty on a
  /// Build or FromStores base until its first write counts every group.
  std::vector<std::size_t> group_outliers;
};

/// A length class as plain mutable builders, the form Restore accepts
/// before centroids/envelopes are recomputed and packed into the columnar
/// store.
struct LengthClassDraft {
  std::size_t length = 0;
  std::vector<GroupBuilder> groups;
};

/// Construction statistics surfaced by benches and the engine.
struct BaseStats {
  std::size_t num_subsequences = 0;  ///< Members placed into groups.
  std::size_t num_groups = 0;
  std::size_t num_length_classes = 0;
  std::size_t repaired_members = 0;  ///< Moved by the repair pass.
  double build_seconds = 0.0;

  /// Groups per subsequence: the data-reduction factor the paper's §3.1
  /// claims ("compact ONEX base instead of the entire dataset").
  double CompactionRatio() const {
    return num_subsequences == 0
               ? 1.0
               : static_cast<double>(num_groups) /
                     static_cast<double>(num_subsequences);
  }
};

/// The ONEX base: a normalized dataset plus its similarity groups, the
/// structure every exploratory operation queries. Immutable after build;
/// safe to share across threads.
class OnexBase {
 public:
  /// Groups `dataset` (already normalized; see Engine for the full
  /// pipeline). The base keeps a shared copy so SubseqRefs stay resolvable.
  /// With options.threads != 1, construction fans out over the process-wide
  /// TaskPool::Shared(), at most options.threads lanes wide.
  static Result<OnexBase> Build(std::shared_ptr<const Dataset> dataset,
                                const BaseBuildOptions& options);

  /// Reassembles a base from group memberships: validates member
  /// references, recomputes every centroid (policy-aware) and envelope,
  /// packs each class into its columnar store, and rebuilds stats.
  /// `classes` entries must be sorted by length and carry their members.
  /// The recompute-everything twin of the write path (core/incremental.h),
  /// which recomputes only the groups a write changes and must equal
  /// Restore of its own memberships byte for byte.
  static Result<OnexBase> Restore(std::shared_ptr<const Dataset> dataset,
                                  const BaseBuildOptions& options,
                                  std::vector<LengthClassDraft> classes,
                                  std::size_t repaired_members);

  /// Assembles a base from finished length classes — the write path's last
  /// step, and where Restore and FromStores end too. Classes must be
  /// non-empty, strictly increasing in length, with views over their own
  /// stores. `centroids_exact` is the caller's promise that the base meets
  /// centroids_exact() below; `build_seconds` is what the caller spent.
  static Result<OnexBase> Assemble(std::shared_ptr<const Dataset> dataset,
                                   const BaseBuildOptions& options,
                                   std::vector<LengthClass> classes,
                                   std::size_t repaired_members,
                                   bool centroids_exact, double build_seconds);

  /// Assembles a base directly from already-columnar stores — the ONEXARENA
  /// load path (arena_layout.h), which carries centroids and envelopes
  /// verbatim and so must NOT go through Restore's recompute. Stores must be
  /// non-null, non-empty, strictly increasing in length, with members the
  /// caller has validated against `dataset` (the arena parser does). Each
  /// store pins its own bytes, so the base holds nothing else to keep them.
  static Result<OnexBase> FromStores(
      std::shared_ptr<const Dataset> dataset, const BaseBuildOptions& options,
      std::vector<std::shared_ptr<const GroupStore>> stores,
      std::size_t repaired_members);

  const Dataset& dataset() const { return *dataset_; }
  std::shared_ptr<const Dataset> shared_dataset() const { return dataset_; }
  const BaseBuildOptions& options() const { return options_; }
  const BaseStats& stats() const { return stats_; }

  const std::vector<LengthClass>& length_classes() const { return classes_; }

  /// Length class for exactly `length`, or NotFound. Binary search over the
  /// length-sorted classes_ vector.
  Result<const LengthClass*> FindLengthClass(std::size_t length) const;

  std::size_t TotalGroups() const { return stats_.num_groups; }
  std::size_t TotalMembers() const { return stats_.num_subsequences; }

  /// Byte footprint of the grouping structures (sum of every length class's
  /// GroupStore plus the view vectors). This is the cost the engine's
  /// prepared-base LRU cache accounts against its budget (DESIGN.md §11);
  /// the shared dataset is excluded — the budget bounds what grouping adds.
  std::size_t MemoryUsage() const;

  /// True when every group is exactly what Restore would recompute from its
  /// members (the member mean, or the leader under kFixedLeader) and every
  /// class carries its group_outliers. Writes produce such bases, so the
  /// next write copies the rows of every group it leaves alone. Build keeps
  /// running-mean centroids and FromStores cannot vouch for its columns, so
  /// the first write onto either recomputes every group. In memory only:
  /// no checkpoint or log records it.
  bool centroids_exact() const { return centroids_exact_; }

 private:
  OnexBase() = default;

  std::shared_ptr<const Dataset> dataset_;
  BaseBuildOptions options_;
  BaseStats stats_;
  std::vector<LengthClass> classes_;  ///< Sorted by length ascending.
  bool centroids_exact_ = false;
};

}  // namespace onex

#endif  // ONEX_CORE_ONEX_BASE_H_
