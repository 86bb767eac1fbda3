#include "onex/core/incremental.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "onex/common/string_utils.h"
#include "onex/core/grouping_util.h"
#include "onex/distance/euclidean.h"

namespace onex {
namespace {

std::size_t CountOutliers(std::span<const double> centroid,
                          MemberView members,
                          const Dataset& ds, double radius) {
  std::size_t outliers = 0;
  for (const SubseqRef& ref : members) {
    if (NormalizedEuclidean(centroid, ref.Resolve(ds)) > radius) ++outliers;
  }
  return outliers;
}

LengthClassDrift DriftOfClass(const OnexBase& base, const LengthClass& cls) {
  const double radius = DriftOutlierRadius(base.options().st);
  LengthClassDrift drift;
  drift.length = cls.length;
  drift.members = cls.total_members;
  for (const SimilarityGroup& g : cls.groups) {
    drift.outliers +=
        CountOutliers(g.centroid_span(), g.members(), base.dataset(), radius);
  }
  return drift;
}

/// A class's drift from the per-group counts writes keep.
LengthClassDrift SummedDrift(const LengthClass& cls) {
  LengthClassDrift drift{cls.length, cls.total_members, 0};
  for (const std::size_t n : cls.group_outliers) drift.outliers += n;
  return drift;
}

/// One length class under a write. Groups the write leaves alone stay in
/// the previous store's columns. A group gets a builder when it gains its
/// first member — seeded with its members and its packed centroid, so the
/// leader rule and the running mean go on from exactly the representative
/// the base queried with — or when this write founds it.
class ClassWrite {
 public:
  /// A class the write inserts into; `prev` is null for a new length.
  ClassWrite(std::size_t length, const LengthClass* prev)
      : length_(length),
        prev_(prev),
        groups_(prev == nullptr ? 0 : prev->groups.size()) {}

  /// A class a regroup clustered afresh: every group is new.
  ClassWrite(std::size_t length, std::vector<GroupBuilder> groups)
      : length_(length), prev_(nullptr) {
    for (GroupBuilder& g : groups) groups_.emplace_back(std::move(g));
  }

  std::size_t length() const { return length_; }

  /// Inserts one subsequence under the build-time leader rule.
  void Insert(const Dataset& ds, const SubseqRef& ref, double radius,
              bool update_centroid) {
    const std::span<const double> vals = ref.Resolve(ds);
    const std::size_t g =
        internal::NearestGroup(
            groups_.size(), [this](std::size_t i) { return Centroid(i); },
            vals, radius)
            .first;
    if (g == groups_.size()) {
      groups_.emplace_back(GroupBuilder(length_));
    } else if (!groups_[g].has_value()) {
      Reopen(g);
    }
    groups_[g]->Add(ref, vals, update_centroid);
  }

  /// Packs the class. Every group with a builder — and, with
  /// `recompute_all`, every group — is recomputed from its members and has
  /// its drift outliers counted; the others keep their rows and counts.
  /// Adds the number of recomputed groups to `*recomputed`.
  LengthClass Finish(const Dataset& ds, const BaseBuildOptions& options,
                     bool recompute_all, std::size_t* recomputed) && {
    const bool leader =
        options.centroid_policy == CentroidPolicy::kFixedLeader;
    std::vector<const GroupBuilder*> fresh(groups_.size(), nullptr);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (!groups_[g].has_value()) {
        if (!recompute_all) continue;
        Reopen(g);
      }
      groups_[g]->RecomputeFromMembers(ds, leader);
      fresh[g] = &*groups_[g];
      ++*recomputed;
    }

    LengthClass cls;
    cls.length = length_;
    cls.store = std::make_shared<const GroupStore>(GroupStore::Merge(
        length_, prev_ == nullptr ? nullptr : prev_->store.get(), fresh));
    cls.groups.reserve(groups_.size());
    cls.group_outliers.resize(groups_.size(), 0);
    // Under kFixedLeader every member was admitted against its final
    // centroid, so no group has outliers and none is scanned.
    const double radius = DriftOutlierRadius(options.st);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      cls.groups.emplace_back(cls.store.get(), g);
      if (fresh[g] == nullptr) {
        cls.group_outliers[g] = prev_->group_outliers[g];
      } else if (!leader) {
        cls.group_outliers[g] = CountOutliers(
            cls.store->centroid(g), cls.store->members(g), ds, radius);
      }
    }
    cls.total_members = cls.store->total_members();
    return cls;
  }

 private:
  std::span<const double> Centroid(std::size_t g) const {
    return groups_[g].has_value() ? groups_[g]->centroid_span()
                                  : prev_->store->centroid(g);
  }

  void Reopen(std::size_t g) {
    const GroupStore& store = *prev_->store;
    GroupBuilder& b = groups_[g].emplace(length_);
    const std::span<const MemberRef> rows = store.members(g).rows();
    b.SetMembers({rows.begin(), rows.end()});
    b.SetCentroid(store.centroid(g));
  }

  std::size_t length_;
  const LengthClass* prev_;
  /// One entry per group, in scan order; engaged for the groups this write
  /// recomputes.
  std::vector<std::optional<GroupBuilder>> groups_;
};

/// The class `base` holds for `len`, or null when the write founds it.
const LengthClass* PrevClass(const OnexBase& base, std::size_t len) {
  Result<const LengthClass*> cls = base.FindLengthClass(len);
  return cls.ok() ? *cls : nullptr;
}

/// The one write path behind AppendSeries, ExtendSeries and
/// RegroupLengthClasses. Each of `writes` (ascending by length) replaces
/// its class; every other class of `base` carries over — shared as it is
/// when the base's centroids are exact, recomputed from its members when
/// they are not (the first write after Build or an arena load).
Result<ExtendResult> CommitWrite(const OnexBase& base,
                                 std::shared_ptr<const Dataset> dataset,
                                 std::vector<ClassWrite> writes,
                                 std::size_t repaired_members) {
  const auto t0 = std::chrono::steady_clock::now();
  const Dataset& ds = *dataset;
  const BaseBuildOptions& options = base.options();
  const bool exact = base.centroids_exact();
  std::size_t recomputed = 0;
  std::vector<LengthClass> classes;
  std::vector<LengthClassDrift> drift;
  drift.reserve(writes.size());
  auto old = base.length_classes().begin();
  const auto old_end = base.length_classes().end();
  auto w = writes.begin();
  while (old != old_end || w != writes.end()) {
    if (w != writes.end() && (old == old_end || w->length() <= old->length)) {
      if (old != old_end && old->length == w->length()) ++old;
      classes.push_back(
          std::move(*w).Finish(ds, options, !exact, &recomputed));
      drift.push_back(SummedDrift(classes.back()));
      ++w;
    } else if (exact) {
      classes.push_back(*old++);
    } else {
      classes.push_back(ClassWrite(old->length, &*old)
                            .Finish(ds, options, true, &recomputed));
      ++old;
    }
  }
  ONEX_ASSIGN_OR_RETURN(
      OnexBase next,
      OnexBase::Assemble(std::move(dataset), options, std::move(classes),
                         repaired_members, /*centroids_exact=*/true,
                         std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count()));
  ExtendResult result{std::move(next), 0, recomputed, std::move(drift)};
  return result;
}

}  // namespace

Result<OnexBase> AppendSeries(const OnexBase& base, TimeSeries series) {
  if (series.length() < 2) {
    return Status::InvalidArgument("appended series needs >= 2 points");
  }
  const BaseBuildOptions& options = base.options();

  // Extended dataset: existing refs stay valid (indices unchanged), the new
  // series gets index old_size.
  Dataset extended(base.dataset().name());
  for (const TimeSeries& ts : base.dataset().series()) extended.Add(ts);
  const std::size_t new_idx = extended.size();
  const std::size_t new_len = series.length();
  extended.Add(std::move(series));
  auto dataset = std::make_shared<const Dataset>(std::move(extended));
  const Dataset& ds = *dataset;
  ONEX_RETURN_IF_ERROR(CheckMemberLimits(ds));

  // Only classes no longer than the new series gain members.
  const std::size_t max_len =
      std::min(options.max_length == 0 ? SIZE_MAX : options.max_length,
               new_len);
  const double radius = options.st / 2.0;
  const bool update_centroid =
      options.centroid_policy != CentroidPolicy::kFixedLeader;

  std::vector<ClassWrite> writes;
  for (std::size_t len = options.min_length; len <= max_len;
       len += options.length_step) {
    if (new_len < len) continue;
    ClassWrite& cls = writes.emplace_back(len, PrevClass(base, len));
    for (std::size_t start = 0; start + len <= new_len;
         start += options.stride) {
      cls.Insert(ds, {new_idx, start, len}, radius, update_centroid);
    }
  }
  ONEX_ASSIGN_OR_RETURN(ExtendResult written,
                        CommitWrite(base, std::move(dataset),
                                    std::move(writes),
                                    base.stats().repaired_members));
  return std::move(written.base);
}

Result<std::vector<std::vector<double>>> MergeExtensions(
    std::size_t num_series, std::span<const SeriesExtension> extensions) {
  if (extensions.empty()) {
    return Status::InvalidArgument("ExtendSeries needs >= 1 extension");
  }
  // Merge duplicate targets in arrival order, so one batch behaves like the
  // same points streamed one call at a time.
  std::vector<std::vector<double>> pending(num_series);
  for (const SeriesExtension& ext : extensions) {
    if (ext.series >= num_series) {
      return Status::InvalidArgument(StrFormat(
          "cannot extend series %zu: dataset has %zu series", ext.series,
          num_series));
    }
    if (ext.points.empty()) {
      return Status::InvalidArgument(
          StrFormat("extension of series %zu has no points", ext.series));
    }
    pending[ext.series].insert(pending[ext.series].end(), ext.points.begin(),
                               ext.points.end());
  }
  return pending;
}

Dataset ExtendTails(const Dataset& ds,
                    const std::vector<std::vector<double>>& pending) {
  // Every ref into the untouched prefix stays valid because tails only grow.
  Dataset extended(ds.name());
  for (std::size_t s = 0; s < ds.size(); ++s) {
    if (s >= pending.size() || pending[s].empty()) {
      extended.Add(ds[s]);
    } else {
      std::vector<double> values = ds[s].values();
      values.insert(values.end(), pending[s].begin(), pending[s].end());
      extended.Add(TimeSeries(ds[s].name(), std::move(values), ds[s].label()));
    }
  }
  return extended;
}

Result<ExtendResult> ExtendSeries(
    const OnexBase& base, std::span<const SeriesExtension> extensions) {
  const Dataset& old_ds = base.dataset();
  const BaseBuildOptions& options = base.options();

  ONEX_ASSIGN_OR_RETURN(std::vector<std::vector<double>> pending,
                        MergeExtensions(old_ds.size(), extensions));
  auto dataset =
      std::make_shared<const Dataset>(ExtendTails(old_ds, pending));
  const Dataset& ds = *dataset;
  ONEX_RETURN_IF_ERROR(CheckMemberLimits(ds));

  // Only classes no longer than the longest extended series gain members.
  const std::size_t max_len =
      std::min(options.max_length == 0 ? SIZE_MAX : options.max_length,
               ds.MaxLength());
  const double radius = options.st / 2.0;
  const bool update_centroid =
      options.centroid_policy != CentroidPolicy::kFixedLeader;

  std::size_t new_members = 0;
  std::vector<ClassWrite> writes;
  for (std::size_t len = options.min_length; len <= max_len;
       len += options.length_step) {
    ClassWrite* cls = nullptr;
    for (std::size_t s = 0; s < pending.size(); ++s) {
      if (pending[s].empty()) continue;
      const std::size_t old_len = old_ds[s].length();
      const std::size_t new_len = ds[s].length();
      if (new_len < len) continue;
      // Only subsequences that end past the old tail are new; everything
      // else was grouped at build (or earlier extend) time. Starts stay on
      // the build-time stride grid.
      std::size_t first = 0;
      if (old_len >= len) {
        const std::size_t lo = old_len - len + 1;
        first = (lo + options.stride - 1) / options.stride * options.stride;
      }
      for (std::size_t start = first; start + len <= new_len;
           start += options.stride) {
        if (cls == nullptr) {
          cls = &writes.emplace_back(len, PrevClass(base, len));
        }
        cls->Insert(ds, {s, start, len}, radius, update_centroid);
        ++new_members;
      }
    }
  }

  // Drift is counted on the written groups (exact post-insert centroids),
  // so the number the regroup policy sees is the one queries experience.
  ONEX_ASSIGN_OR_RETURN(ExtendResult result,
                        CommitWrite(base, std::move(dataset),
                                    std::move(writes),
                                    base.stats().repaired_members));
  result.new_members = new_members;
  return result;
}

Result<ExtendResult> ExtendSeries(const OnexBase& base, std::size_t series_id,
                                  std::span<const double> new_points) {
  SeriesExtension ext;
  ext.series = series_id;
  ext.points.assign(new_points.begin(), new_points.end());
  return ExtendSeries(base, std::span<const SeriesExtension>(&ext, 1));
}

std::vector<LengthClassDrift> ComputeDrift(const OnexBase& base) {
  std::vector<LengthClassDrift> out;
  out.reserve(base.length_classes().size());
  for (const LengthClass& cls : base.length_classes()) {
    out.push_back(DriftOfClass(base, cls));
  }
  return out;
}

std::vector<LengthClassDrift> TrackedDrift(const OnexBase& base) {
  std::vector<LengthClassDrift> out;
  out.reserve(base.length_classes().size());
  for (const LengthClass& cls : base.length_classes()) {
    out.push_back(cls.group_outliers.size() == cls.groups.size()
                      ? SummedDrift(cls)
                      : DriftOfClass(base, cls));
  }
  return out;
}

Result<OnexBase> RegroupLengthClasses(const OnexBase& base,
                                      std::span<const std::size_t> lengths) {
  const std::set<std::size_t> want(lengths.begin(), lengths.end());
  std::size_t repaired = base.stats().repaired_members;
  std::vector<ClassWrite> writes;
  for (const LengthClass& cls : base.length_classes()) {
    if (!want.contains(cls.length)) continue;
    // Fresh leader clustering: every member re-admitted against the
    // centroids of its own era, the exact pipeline the offline build runs.
    writes.emplace_back(cls.length,
                        internal::BuildGroupsForLength(
                            base.dataset(), cls.length, base.options(),
                            &repaired));
  }
  ONEX_ASSIGN_OR_RETURN(ExtendResult written,
                        CommitWrite(base, base.shared_dataset(),
                                    std::move(writes), repaired));
  return std::move(written.base);
}

}  // namespace onex
