#ifndef ONEX_CORE_GROUP_STORE_H_
#define ONEX_CORE_GROUP_STORE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "onex/distance/envelope.h"
#include "onex/ts/subsequence.h"

namespace onex {

/// Mutable, value-semantic similarity group used while a length class is
/// under construction (offline build, repair pass, incremental append, base
/// restore). Once a class is final its builders are packed into a columnar
/// GroupStore and discarded; query-time code only ever sees the store
/// (DESIGN.md §4).
class GroupBuilder {
 public:
  explicit GroupBuilder(std::size_t length) : length_(length) {}

  std::size_t length() const { return length_; }
  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  MemberView members() const { return MemberView(members_, length_); }

  /// The representative: running mean of member values (or the first member
  /// under the fixed-leader policy; see CentroidPolicy).
  const std::vector<double>& centroid() const { return centroid_; }
  std::span<const double> centroid_span() const {
    return std::span<const double>(centroid_);
  }

  /// Pointwise min/max over all member values, for group-level LB pruning.
  const Envelope& envelope() const { return envelope_; }

  /// Adds a member. `values` must resolve `ref` against the base's dataset,
  /// and `ref` must be of this group's length. When `update_centroid` is set
  /// the centroid moves to the running mean.
  void Add(const SubseqRef& ref, std::span<const double> values,
           bool update_centroid);

  /// Replaces the member list (used by the repair pass). Does not touch the
  /// centroid; callers decide whether to recompute.
  void SetMembers(std::vector<MemberRef> members) {
    members_ = std::move(members);
  }

  /// Seeds the centroid directly — how a write reopens a packed group
  /// without losing the exact representative the base was querying with.
  void SetCentroid(std::span<const double> values) {
    centroid_.assign(values.begin(), values.end());
  }

  /// Recomputes centroid and envelope from scratch out of `dataset`. With
  /// `leader_centroid` the centroid is the first member's values (the
  /// fixed-leader policy's representative) instead of the member mean.
  void RecomputeFromMembers(const Dataset& dataset,
                            bool leader_centroid = false);

 private:
  std::size_t length_;
  std::vector<MemberRef> members_;
  std::vector<double> centroid_;
  Envelope envelope_;
};

/// Columnar storage for every similarity group of one length class
/// (DESIGN.md §4). Instead of per-group heap vectors scattered across the
/// allocator, the store keeps flat columns:
///
///   centroids       num_groups x length  row-major centroid matrix
///   env_lower       num_groups x length  pointwise member minima
///   env_upper       num_groups x length  pointwise member maxima
///   cent_env_lower  num_groups x length  Keogh envelope of each centroid
///   cent_env_upper  num_groups x length  (precomputed at Pack time)
///   member arena                         every member's (series, start)
///                                        MemberRef back to back, with a
///                                        num_groups+1 offset table
///
/// The query processor's group scan walks the centroid matrix linearly —
/// one allocation, no pointer chasing, hardware-prefetcher friendly — which
/// is what makes RankGroups' bound pass memory-bandwidth-bound rather
/// than latency-bound. Immutable after construction; safe to share across
/// threads.
///
/// One representation (DESIGN.md §4, §17): the columns are spans, and the
/// store holds a pin — a shared_ptr that owns the bytes they point into.
/// Merge (and so Pack) lays every column out in one heap block and pins
/// it; Borrow pins a buffer someone else filled, such as an mmap'd
/// ONEXARENA checkpoint or a checkpoint file read into memory. A store, or
/// any copy of it, keeps its bytes alive on its own, however long it
/// outlives the base it came from.
class GroupStore {
 public:
  GroupStore() = default;

  /// Packs finished builders into columnar form. Builders must all have
  /// centroids/envelopes of exactly `length` points (enforced by the build
  /// and restore paths, which recompute before packing).
  static GroupStore Pack(std::size_t length,
                         const std::vector<GroupBuilder>& groups);

  /// The next store of a class a write touched (core/incremental.h): group
  /// g is packed from *fresh[g] when that is non-null, else its rows —
  /// centroid, envelopes, centroid envelope and members — are copied from
  /// row g of `prev`, which must then hold at least g + 1 groups.
  static GroupStore Merge(std::size_t length, const GroupStore* prev,
                          std::span<const GroupBuilder* const> fresh);

  /// The columns of one length class. Shapes must be consistent —
  /// num_groups*length entries per matrix, member_offsets carrying
  /// num_groups+1 entries that end at members.size() — which Merge and the
  /// arena parser (arena_layout.h) guarantee.
  struct Columns {
    std::size_t length = 0;
    std::size_t num_groups = 0;
    std::span<const double> centroids;
    std::span<const double> env_lower;
    std::span<const double> env_upper;
    std::span<const double> cent_env_lower;
    std::span<const double> cent_env_upper;
    std::span<const MemberRef> members;
    std::span<const std::size_t> member_offsets;
  };

  /// A store serving `cols` in place, with no copy; `pin` must own the
  /// bytes every span of `cols` points into.
  static GroupStore Borrow(const Columns& cols,
                           std::shared_ptr<const void> pin);

  std::size_t length() const { return cols_.length; }
  std::size_t num_groups() const { return cols_.num_groups; }
  std::size_t total_members() const { return cols_.members.size(); }

  std::span<const double> centroid(std::size_t g) const {
    return cols_.centroids.subspan(g * cols_.length, cols_.length);
  }
  EnvelopeView envelope(std::size_t g) const {
    return EnvelopeView{
        cols_.env_lower.subspan(g * cols_.length, cols_.length),
        cols_.env_upper.subspan(g * cols_.length, cols_.length)};
  }
  /// Keogh envelope of group g's centroid, precomputed at Pack time. Backs
  /// the reversed LB_Keogh stage of the query cascade: the query is scored
  /// against the candidate-side envelope, so ranking needs no per-group
  /// envelope construction. Always unconstrained (each column is the
  /// centroid's [min, max]), so it stays admissible for every query window.
  EnvelopeView centroid_envelope(std::size_t g) const {
    return EnvelopeView{
        cols_.cent_env_lower.subspan(g * cols_.length, cols_.length),
        cols_.cent_env_upper.subspan(g * cols_.length, cols_.length)};
  }
  /// Group g's members, read back as SubseqRefs of the class length.
  MemberView members(std::size_t g) const {
    return MemberView(
        cols_.members.subspan(cols_.member_offsets[g], group_size(g)),
        cols_.length);
  }
  std::size_t group_size(std::size_t g) const {
    return cols_.member_offsets[g + 1] - cols_.member_offsets[g];
  }

  /// The whole centroid matrix (num_groups x length, row-major); benches
  /// and kernels that want one linear pass read it directly.
  std::span<const double> centroid_matrix() const { return cols_.centroids; }

  /// Payload bytes of this store: centroid + envelope matrices, member
  /// arena and offset table. Deterministic for a given base (element
  /// counts, not allocator capacities — the same whatever the pin holds),
  /// so the engine's LRU cache can budget prepared bases reproducibly
  /// (DESIGN.md §11); the registry accounts a mapped base's bytes as
  /// mapped, not resident.
  std::size_t MemoryUsage() const;

 private:
  Columns cols_;
  std::shared_ptr<const void> pin_;  ///< Owns the bytes cols_ points into.
};

}  // namespace onex

#endif  // ONEX_CORE_GROUP_STORE_H_
