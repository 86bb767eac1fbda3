#include "onex/core/grouping_util.h"

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "onex/distance/euclidean.h"

namespace onex::internal {

std::vector<GroupBuilder> BuildGroupsForLength(const Dataset& ds,
                                               std::size_t len,
                                               const BaseBuildOptions& options,
                                               std::size_t* repaired) {
  const double radius = options.st / 2.0;
  const bool update_centroid =
      options.centroid_policy != CentroidPolicy::kFixedLeader;
  std::vector<GroupBuilder> groups;
  std::size_t members = 0;
  for (std::size_t s = 0; s < ds.size(); ++s) {
    const TimeSeries& ts = ds[s];
    if (ts.length() < len) continue;
    for (std::size_t start = 0; start + len <= ts.length();
         start += options.stride) {
      const std::span<const double> vals = ts.Slice(start, len);
      const auto [idx, dist] = NearestGroup(groups, vals, radius);
      if (idx == groups.size()) {
        GroupBuilder g(len);
        g.Add({s, start, len}, vals, update_centroid);
        groups.push_back(std::move(g));
      } else {
        groups[idx].Add({s, start, len}, vals, update_centroid);
      }
      ++members;
    }
  }
  if (members == 0) return groups;

  if (options.centroid_policy == CentroidPolicy::kRunningMeanRepair) {
    // Running-mean centroids drift, so some members may no longer sit
    // within ST/2 of their group's final centroid. Repair in bounded
    // rounds: evict violators, recompute centroids, re-insert. Because a
    // recomputed centroid can create new violators, the last pass evicts
    // into singleton groups with no recomputation, which terminates with
    // the invariant guaranteed.
    constexpr int kRepairRounds = 4;
    for (int round = 0; round < kRepairRounds; ++round) {
      const bool final_round = round == kRepairRounds - 1;
      std::vector<SubseqRef> evicted;
      for (GroupBuilder& g : groups) {
        std::vector<MemberRef> keep;
        keep.reserve(g.size());
        for (const SubseqRef& ref : g.members()) {
          const double d =
              NormalizedEuclidean(g.centroid_span(), ref.Resolve(ds));
          if (d <= radius) {
            keep.push_back(MemberRef::Of(ref));
          } else {
            evicted.push_back(ref);
          }
        }
        if (keep.size() != g.size()) {
          g.SetMembers(std::move(keep));
          if (!final_round) g.RecomputeFromMembers(ds);
        }
      }
      if (evicted.empty()) break;
      *repaired += evicted.size();
      for (const SubseqRef& ref : evicted) {
        const std::span<const double> vals = ref.Resolve(ds);
        const std::size_t idx =
            final_round ? groups.size()
                        : NearestGroup(groups, vals, radius).first;
        if (idx == groups.size()) {
          GroupBuilder g(len);
          g.Add(ref, vals, /*update_centroid=*/false);
          groups.push_back(std::move(g));
        } else {
          // Fixed centroid on re-insert keeps the pass from cascading.
          groups[idx].Add(ref, vals, /*update_centroid=*/false);
        }
      }
    }
    // Drop any group the repair emptied.
    std::erase_if(groups, [](const GroupBuilder& g) { return g.empty(); });
  }
  return groups;
}

}  // namespace onex::internal
