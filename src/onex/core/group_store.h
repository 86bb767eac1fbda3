#ifndef ONEX_CORE_GROUP_STORE_H_
#define ONEX_CORE_GROUP_STORE_H_

#include <cstddef>
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

  const std::vector<SubseqRef>& members() const { return members_; }

  /// The representative: running mean of member values (or the first member
  /// under the fixed-leader policy; see CentroidPolicy).
  const std::vector<double>& centroid() const { return centroid_; }
  std::span<const double> centroid_span() const {
    return std::span<const double>(centroid_);
  }

  /// Pointwise min/max over all member values, for group-level LB pruning.
  const Envelope& envelope() const { return envelope_; }

  /// Adds a member. `values` must resolve `ref` against the base's dataset.
  /// When `update_centroid` is set the centroid moves to the running mean.
  void Add(const SubseqRef& ref, std::span<const double> values,
           bool update_centroid);

  /// Replaces the member list (used by the repair pass). Does not touch the
  /// centroid; callers decide whether to recompute.
  void SetMembers(std::vector<SubseqRef> members) {
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
  std::vector<SubseqRef> members_;
  std::vector<double> centroid_;
  Envelope envelope_;
};

/// Columnar storage for every similarity group of one length class
/// (DESIGN.md §4). Instead of per-group heap vectors scattered across the
/// allocator, the store keeps four flat arrays:
///
///   centroids       num_groups x length  row-major centroid matrix
///   env_lower       num_groups x length  pointwise member minima
///   env_upper       num_groups x length  pointwise member maxima
///   cent_env_lower  num_groups x length  Keogh envelope of each centroid
///   cent_env_upper  num_groups x length  (precomputed at Pack time)
///   member arena                         all SubseqRefs back to back, with
///                                        a num_groups+1 offset table
///
/// The query processor's group scan walks the centroid matrix linearly —
/// one allocation, no pointer chasing, hardware-prefetcher friendly — which
/// is what makes RankGroups' bound pass memory-bandwidth-bound rather
/// than latency-bound. Immutable after Pack; safe to share across threads.
///
/// Storage comes in two flavors (DESIGN.md §17). An OWNED store (Pack,
/// CopyFrom) holds its matrices in vectors, like always. A BORROWED store
/// (Borrow) holds only spans over columns that live elsewhere — an mmap'd
/// ONEXARENA checkpoint — so a cold dataset serves queries straight off the
/// page cache. Borrowed stores never own or free anything; whoever creates
/// them (OnexBase keeps a keepalive handle) guarantees the backing bytes
/// outlive the store. Every accessor reads through the same span-returning
/// switch, so query code cannot tell the flavors apart.
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

  /// Raw columns of one length class as they sit in an ONEXARENA section
  /// set (arena_layout.h). Shapes must be consistent — num_groups*length
  /// entries per matrix, member_offsets carrying num_groups+1 entries that
  /// end at members.size() — which the arena parser enforces before any
  /// store is constructed.
  struct Columns {
    std::size_t length = 0;
    std::size_t num_groups = 0;
    int cent_env_window = -1;
    std::span<const double> centroids;
    std::span<const double> env_lower;
    std::span<const double> env_upper;
    std::span<const double> cent_env_lower;
    std::span<const double> cent_env_upper;
    std::span<const SubseqRef> members;
    std::span<const std::size_t> member_offsets;
  };

  /// A store serving directly out of `cols` — zero copies, zero ownership.
  static GroupStore Borrow(const Columns& cols);

  /// An owned store holding a deep copy of `cols` — the materialized load
  /// path. (A write onto a borrowed class recomputes it into an owned store
  /// instead; see OnexBase::centroids_exact.)
  static GroupStore CopyFrom(const Columns& cols);

  /// True when this store borrows external storage instead of owning it.
  bool borrowed() const { return borrowed_; }

  std::size_t length() const { return length_; }
  std::size_t num_groups() const {
    const std::span<const std::size_t> offs = offsets_span();
    return offs.empty() ? 0 : offs.size() - 1;
  }
  std::size_t total_members() const { return members_span().size(); }

  std::span<const double> centroid(std::size_t g) const {
    return centroids_span().subspan(g * length_, length_);
  }
  EnvelopeView envelope(std::size_t g) const {
    return EnvelopeView{env_lower_span().subspan(g * length_, length_),
                        env_upper_span().subspan(g * length_, length_)};
  }
  /// Keogh envelope of group g's centroid, precomputed at Pack time with
  /// band half-width centroid_envelope_window(). Backs the reversed
  /// LB_Keogh stage of the query cascade: the query is scored against the
  /// candidate-side envelope, so ranking needs no per-group envelope
  /// construction. Stored unconstrained (window < 0), it stays admissible
  /// for every query window (see EnvelopeWindowCovers in kernels.h).
  EnvelopeView centroid_envelope(std::size_t g) const {
    return EnvelopeView{cent_env_lower_span().subspan(g * length_, length_),
                        cent_env_upper_span().subspan(g * length_, length_)};
  }
  /// Band half-width the centroid envelopes were computed with (negative =
  /// unconstrained). Callers must check EnvelopeWindowCovers against their
  /// query window before using centroid_envelope() as a bound.
  int centroid_envelope_window() const { return cent_env_window_; }

  std::span<const SubseqRef> members(std::size_t g) const {
    const std::span<const std::size_t> offs = offsets_span();
    return members_span().subspan(offs[g], offs[g + 1] - offs[g]);
  }
  std::size_t group_size(std::size_t g) const {
    const std::span<const std::size_t> offs = offsets_span();
    return offs[g + 1] - offs[g];
  }

  /// The whole centroid matrix (num_groups x length, row-major); benches
  /// and kernels that want one linear pass read it directly.
  std::span<const double> centroid_matrix() const { return centroids_span(); }

  /// Payload bytes of this store: centroid + envelope matrices, member
  /// arena and offset table. Deterministic for a given base (element counts,
  /// not allocator capacities — identical for owned and borrowed flavors),
  /// so the engine's LRU cache can budget prepared bases reproducibly
  /// (DESIGN.md §11); the registry accounts a borrowed store's bytes as
  /// mapped, not resident.
  std::size_t MemoryUsage() const;

 private:
  std::span<const double> centroids_span() const {
    return borrowed_ ? cols_.centroids : std::span<const double>(centroids_);
  }
  std::span<const double> env_lower_span() const {
    return borrowed_ ? cols_.env_lower : std::span<const double>(env_lower_);
  }
  std::span<const double> env_upper_span() const {
    return borrowed_ ? cols_.env_upper : std::span<const double>(env_upper_);
  }
  std::span<const double> cent_env_lower_span() const {
    return borrowed_ ? cols_.cent_env_lower
                     : std::span<const double>(cent_env_lower_);
  }
  std::span<const double> cent_env_upper_span() const {
    return borrowed_ ? cols_.cent_env_upper
                     : std::span<const double>(cent_env_upper_);
  }
  std::span<const SubseqRef> members_span() const {
    return borrowed_ ? cols_.members
                     : std::span<const SubseqRef>(member_arena_);
  }
  std::span<const std::size_t> offsets_span() const {
    return borrowed_ ? cols_.member_offsets
                     : std::span<const std::size_t>(member_offsets_);
  }

  std::size_t length_ = 0;
  std::vector<double> centroids_;
  std::vector<double> env_lower_;
  std::vector<double> env_upper_;
  std::vector<double> cent_env_lower_;
  std::vector<double> cent_env_upper_;
  int cent_env_window_ = -1;  ///< Unconstrained: admissible for any window.
  std::vector<SubseqRef> member_arena_;
  std::vector<std::size_t> member_offsets_;  ///< num_groups + 1 entries.
  /// Borrowed flavor: spans over external storage; the vectors stay empty.
  bool borrowed_ = false;
  Columns cols_;
};

}  // namespace onex

#endif  // ONEX_CORE_GROUP_STORE_H_
