#ifndef ONEX_CORE_SIMILARITY_GROUP_H_
#define ONEX_CORE_SIMILARITY_GROUP_H_

#include <cstddef>
#include <span>

#include "onex/core/group_store.h"
#include "onex/distance/envelope.h"
#include "onex/ts/subsequence.h"

namespace onex {

/// One "ONEX similarity group" (paper §3.1): same-length subsequences that
/// are pairwise similar within the threshold ST under (length-normalized)
/// Euclidean distance, summarized by a centroid representative. Construction
/// guarantees every member was within ST/2 of the centroid at insertion
/// time, which by the ED triangle inequality makes members pairwise-similar
/// within ST.
///
/// A SimilarityGroup is a two-word view — (store, index) — over the length
/// class's columnar GroupStore (DESIGN.md §4). Centroids, envelopes and
/// member lists live in the store's flat matrices/arena; this type only
/// addresses them. Copying a group copies the view, never the data. Groups
/// under construction use GroupBuilder (group_store.h) instead; stores and
/// their views are immutable once built.
class SimilarityGroup {
 public:
  SimilarityGroup(const GroupStore* store, std::size_t index)
      : store_(store), index_(index) {}

  std::size_t length() const { return store_->length(); }
  std::size_t size() const { return store_->group_size(index_); }
  bool empty() const { return size() == 0; }
  /// This group's index inside its length class (and store).
  std::size_t index() const { return index_; }

  /// The members, read back as SubseqRefs of this group's length.
  MemberView members() const { return store_->members(index_); }

  /// The representative: running mean of member values (or the first member
  /// under the fixed-leader policy; see CentroidPolicy). A row of the
  /// store's centroid matrix.
  std::span<const double> centroid() const { return store_->centroid(index_); }
  std::span<const double> centroid_span() const { return centroid(); }

  /// Pointwise min/max over all member values, for group-level LB pruning.
  EnvelopeView envelope() const { return store_->envelope(index_); }

 private:
  const GroupStore* store_;
  std::size_t index_;
};

}  // namespace onex

#endif  // ONEX_CORE_SIMILARITY_GROUP_H_
