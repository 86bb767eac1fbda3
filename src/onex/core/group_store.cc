#include "onex/core/group_store.h"

#include <algorithm>
#include <cstddef>
#include <span>

#include "onex/distance/kernels.h"

namespace onex {

void GroupBuilder::Add(const SubseqRef& ref, std::span<const double> values,
                       bool update_centroid) {
  members_.push_back(ref);
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
  for (const SubseqRef& ref : members_) {
    const std::span<const double> vals = ref.Resolve(dataset);
    for (std::size_t i = 0; i < length_; ++i) centroid_[i] += vals[i];
    AccumulateEnvelope(&envelope_, vals);
  }
  if (leader_centroid) {
    const std::span<const double> leader = members_.front().Resolve(dataset);
    centroid_.assign(leader.begin(), leader.end());
    return;
  }
  const double inv = 1.0 / static_cast<double>(members_.size());
  for (double& c : centroid_) c *= inv;
}

std::size_t GroupStore::MemoryUsage() const {
  return sizeof(GroupStore) +
         (centroids_span().size() + env_lower_span().size() +
          env_upper_span().size() + cent_env_lower_span().size() +
          cent_env_upper_span().size()) *
             sizeof(double) +
         members_span().size() * sizeof(SubseqRef) +
         offsets_span().size() * sizeof(std::size_t);
}

GroupStore GroupStore::Borrow(const Columns& cols) {
  GroupStore store;
  store.length_ = cols.length;
  store.cent_env_window_ = cols.cent_env_window;
  store.borrowed_ = true;
  store.cols_ = cols;
  return store;
}

GroupStore GroupStore::CopyFrom(const Columns& cols) {
  GroupStore store;
  store.length_ = cols.length;
  store.cent_env_window_ = cols.cent_env_window;
  store.centroids_.assign(cols.centroids.begin(), cols.centroids.end());
  store.env_lower_.assign(cols.env_lower.begin(), cols.env_lower.end());
  store.env_upper_.assign(cols.env_upper.begin(), cols.env_upper.end());
  store.cent_env_lower_.assign(cols.cent_env_lower.begin(),
                               cols.cent_env_lower.end());
  store.cent_env_upper_.assign(cols.cent_env_upper.begin(),
                               cols.cent_env_upper.end());
  store.member_arena_.assign(cols.members.begin(), cols.members.end());
  store.member_offsets_.assign(cols.member_offsets.begin(),
                               cols.member_offsets.end());
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
  GroupStore store;
  store.length_ = length;
  const std::size_t n = fresh.size();
  store.centroids_.reserve(n * length);
  store.env_lower_.reserve(n * length);
  store.env_upper_.reserve(n * length);
  store.cent_env_lower_.resize(n * length);
  store.cent_env_upper_.resize(n * length);
  store.member_offsets_.reserve(n + 1);
  std::size_t total = 0;
  for (std::size_t g = 0; g < n; ++g) {
    total += fresh[g] != nullptr ? fresh[g]->size() : prev->group_size(g);
  }
  store.member_arena_.reserve(total);

  // Min/max envelopes are exact (no FP reassociation), so a centroid
  // envelope is the same under every kernel table: a copied row equals a
  // recomputed one whenever both use the same window.
  const bool copy_cent_env =
      prev != nullptr && prev->cent_env_window_ == store.cent_env_window_;
  const DistanceKernel& kernel = ActiveKernel();
  const auto append = [](std::vector<double>* col,
                          std::span<const double> row) {
    col->insert(col->end(), row.begin(), row.end());
  };
  store.member_offsets_.push_back(0);
  for (std::size_t g = 0; g < n; ++g) {
    const GroupBuilder* b = fresh[g];
    if (b != nullptr) {
      append(&store.centroids_, b->centroid());
      append(&store.env_lower_, b->envelope().lower);
      append(&store.env_upper_, b->envelope().upper);
      store.member_arena_.insert(store.member_arena_.end(),
                                 b->members().begin(), b->members().end());
    } else {
      append(&store.centroids_, prev->centroid(g));
      append(&store.env_lower_, prev->envelope(g).lower);
      append(&store.env_upper_, prev->envelope(g).upper);
      const std::span<const SubseqRef> members = prev->members(g);
      store.member_arena_.insert(store.member_arena_.end(), members.begin(),
                                 members.end());
    }
    store.member_offsets_.push_back(store.member_arena_.size());

    // Each centroid's Keogh envelope, unconstrained so it stays admissible
    // for every query window.
    double* lower = store.cent_env_lower_.data() + g * length;
    double* upper = store.cent_env_upper_.data() + g * length;
    if (b == nullptr && copy_cent_env) {
      const EnvelopeView env = prev->centroid_envelope(g);
      std::copy(env.lower.begin(), env.lower.end(), lower);
      std::copy(env.upper.begin(), env.upper.end(), upper);
    } else if (length > 0) {
      kernel.keogh_envelope(store.centroids_.data() + g * length, length,
                            store.cent_env_window_, lower, upper);
    }
  }
  return store;
}

}  // namespace onex
