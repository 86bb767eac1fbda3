#include "onex/core/group_store.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>

#include "onex/distance/kernels.h"

namespace onex {

void GroupBuilder::Add(const SubseqRef& ref, std::span<const double> values,
                       bool update_centroid) {
  members_.push_back(MemberRef::Of(ref));
  if (centroid_.empty()) {
    centroid_.assign(values.begin(), values.end());
  } else if (update_centroid) {
    // Incremental running mean: c += (x - c) / k.
    const double k = static_cast<double>(members_.size());
    for (std::size_t i = 0; i < centroid_.size(); ++i) {
      centroid_[i] += (values[i] - centroid_[i]) / k;
    }
  }
  AccumulateEnvelope(&envelope_, values);
}

void GroupBuilder::RecomputeFromMembers(const Dataset& dataset,
                                        bool leader_centroid) {
  centroid_.assign(length_, 0.0);
  envelope_ = Envelope();
  if (members_.empty()) return;
  for (const SubseqRef& ref : members()) {
    const std::span<const double> vals = ref.Resolve(dataset);
    for (std::size_t i = 0; i < length_; ++i) centroid_[i] += vals[i];
    AccumulateEnvelope(&envelope_, vals);
  }
  if (leader_centroid) {
    const std::span<const double> leader = members().front().Resolve(dataset);
    centroid_.assign(leader.begin(), leader.end());
    return;
  }
  const double inv = 1.0 / static_cast<double>(members_.size());
  for (double& c : centroid_) c *= inv;
}

std::size_t GroupStore::MemoryUsage() const {
  return sizeof(GroupStore) +
         (cols_.centroids.size() + cols_.env_lower.size() +
          cols_.env_upper.size() + cols_.cent_env_lower.size() +
          cols_.cent_env_upper.size()) *
             sizeof(double) +
         cols_.members.size() * sizeof(MemberRef) +
         cols_.member_offsets.size() * sizeof(std::size_t);
}

GroupStore GroupStore::Borrow(const Columns& cols,
                              std::shared_ptr<const void> pin) {
  GroupStore store;
  store.cols_ = cols;
  store.pin_ = std::move(pin);
  return store;
}

GroupStore GroupStore::Pack(std::size_t length,
                            const std::vector<GroupBuilder>& groups) {
  std::vector<const GroupBuilder*> fresh;
  fresh.reserve(groups.size());
  for (const GroupBuilder& g : groups) fresh.push_back(&g);
  return Merge(length, nullptr, fresh);
}

GroupStore GroupStore::Merge(std::size_t length, const GroupStore* prev,
                             std::span<const GroupBuilder* const> fresh) {
  const std::size_t n = fresh.size();
  std::size_t total = 0;
  for (std::size_t g = 0; g < n; ++g) {
    total += fresh[g] != nullptr ? fresh[g]->size() : prev->group_size(g);
  }

  // One heap block holds every column: the five matrices, the offset
  // table, then the member arena. A new'd byte array is aligned for all
  // three element types, and each column's size keeps the next aligned.
  const std::size_t cells = n * length;
  static_assert(alignof(MemberRef) <= alignof(std::size_t));
  std::shared_ptr<std::byte[]> block(
      new std::byte[5 * cells * sizeof(double) +
                    (n + 1) * sizeof(std::size_t) +
                    total * sizeof(MemberRef)]);
  double* const centroids = reinterpret_cast<double*>(block.get());
  double* const env_lower = centroids + cells;
  double* const env_upper = env_lower + cells;
  double* const cent_env_lower = env_upper + cells;
  double* const cent_env_upper = cent_env_lower + cells;
  auto* const offsets =
      reinterpret_cast<std::size_t*>(cent_env_upper + cells);
  auto* const members = reinterpret_cast<MemberRef*>(offsets + n + 1);

  // Min/max envelopes are exact (no FP reassociation), so a centroid
  // envelope is the same under every kernel table: a copied row equals a
  // recomputed one.
  const DistanceKernel& kernel = ActiveKernel();
  offsets[0] = 0;
  for (std::size_t g = 0; g < n; ++g) {
    const GroupBuilder* b = fresh[g];
    const std::size_t row = g * length;
    const std::span<const double> centroid =
        b != nullptr ? b->centroid_span() : prev->centroid(g);
    const EnvelopeView env =
        b != nullptr ? EnvelopeView{b->envelope().lower, b->envelope().upper}
                     : prev->envelope(g);
    const std::span<const MemberRef> refs =
        b != nullptr ? b->members().rows() : prev->members(g).rows();
    std::copy(centroid.begin(), centroid.end(), centroids + row);
    std::copy(env.lower.begin(), env.lower.end(), env_lower + row);
    std::copy(env.upper.begin(), env.upper.end(), env_upper + row);
    std::copy(refs.begin(), refs.end(), members + offsets[g]);
    offsets[g + 1] = offsets[g] + refs.size();

    // Each centroid's Keogh envelope, unconstrained so it stays admissible
    // for every query window.
    if (b == nullptr) {
      const EnvelopeView cent_env = prev->centroid_envelope(g);
      std::copy(cent_env.lower.begin(), cent_env.lower.end(),
                cent_env_lower + row);
      std::copy(cent_env.upper.begin(), cent_env.upper.end(),
                cent_env_upper + row);
    } else if (length > 0) {
      kernel.keogh_envelope(centroids + row, length, /*window=*/-1,
                            cent_env_lower + row, cent_env_upper + row);
    }
  }

  Columns cols;
  cols.length = length;
  cols.num_groups = n;
  cols.centroids = {centroids, cells};
  cols.env_lower = {env_lower, cells};
  cols.env_upper = {env_upper, cells};
  cols.cent_env_lower = {cent_env_lower, cells};
  cols.cent_env_upper = {cent_env_upper, cells};
  cols.member_offsets = {offsets, n + 1};
  cols.members = {members, total};
  return Borrow(cols, std::move(block));
}

}  // namespace onex
