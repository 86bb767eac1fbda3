#ifndef ONEX_CORE_GROUPING_UTIL_H_
#define ONEX_CORE_GROUPING_UTIL_H_

#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "onex/core/group_store.h"
#include "onex/core/onex_base.h"
#include "onex/distance/euclidean.h"

namespace onex::internal {

/// Index of the nearest of `num_groups` centroids (`centroid_of(g)` is
/// group g's) under length-normalized ED, early abandoned at `radius` (only
/// hits within the radius matter). Returns (index, distance); index ==
/// num_groups when nothing is within radius. Shared by the offline builder
/// and the write path (core/incremental.h) so both apply the identical
/// leader-clustering rule in the identical scan order.
template <typename CentroidOf>
std::pair<std::size_t, double> NearestGroup(std::size_t num_groups,
                                            const CentroidOf& centroid_of,
                                            std::span<const double> values,
                                            double radius) {
  std::size_t best_idx = num_groups;
  double best = radius;
  const double n = static_cast<double>(values.size());
  for (std::size_t g = 0; g < num_groups; ++g) {
    // Early-abandon on the squared, unnormalized scale of the current best.
    const double cutoff_sq = best * best * n;
    const double sq =
        SquaredEuclideanEarlyAbandon(centroid_of(g), values, cutoff_sq);
    if (std::isinf(sq)) continue;
    const double dist = std::sqrt(sq / n);
    if (dist <= best) {
      best = dist;
      best_idx = g;
    }
  }
  return {best_idx, best};
}

/// The builders' form, used while a class is clustered from scratch.
inline std::pair<std::size_t, double> NearestGroup(
    const std::vector<GroupBuilder>& groups, std::span<const double> values,
    double radius) {
  return NearestGroup(
      groups.size(),
      [&groups](std::size_t g) { return groups[g].centroid_span(); }, values,
      radius);
}

/// Leader-clusters every admissible length-`len` subsequence of `ds`
/// (policy-aware, including the kRunningMeanRepair repair rounds) and
/// returns the finished builders. The one clustering pipeline behind the
/// offline build (OnexBase::Build) and the drift-triggered regroup of a
/// single length class (incremental.h), so both produce identical groupings
/// for identical inputs. `repaired` accumulates members the repair pass
/// moved. Thread-safe: touches only its own outputs.
std::vector<GroupBuilder> BuildGroupsForLength(const Dataset& ds,
                                               std::size_t len,
                                               const BaseBuildOptions& options,
                                               std::size_t* repaired);

}  // namespace onex::internal

#endif  // ONEX_CORE_GROUPING_UTIL_H_
