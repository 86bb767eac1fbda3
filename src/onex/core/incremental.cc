#include "onex/core/incremental.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "onex/common/string_utils.h"
#include "onex/core/grouping_util.h"
#include "onex/distance/euclidean.h"

namespace onex {
namespace {

/// Thaws one columnar class back into a mutable draft: member lists copied
/// out of the store's arena, centroids seeded verbatim from the store so
/// the insertion radius test sees exactly the representatives the base
/// queries with.
LengthClassDraft ThawClass(const LengthClass& cls) {
  LengthClassDraft draft;
  draft.length = cls.length;
  draft.groups.reserve(cls.groups.size());
  for (const SimilarityGroup& g : cls.groups) {
    GroupBuilder b(cls.length);
    b.SetMembers({g.members().begin(), g.members().end()});
    b.SetCentroid(g.centroid());
    draft.groups.push_back(std::move(b));
  }
  return draft;
}

std::vector<LengthClassDraft> ThawClasses(const OnexBase& base) {
  std::vector<LengthClassDraft> classes;
  classes.reserve(base.length_classes().size());
  for (const LengthClass& cls : base.length_classes()) {
    classes.push_back(ThawClass(cls));
  }
  return classes;
}

/// Finds the draft for `len`, creating it in sorted position when the base
/// has never seen this length (a longer series arrived under max_length == 0
/// scoping).
LengthClassDraft* FindOrCreateClass(std::vector<LengthClassDraft>* classes,
                                    std::size_t len) {
  auto it = std::lower_bound(
      classes->begin(), classes->end(), len,
      [](const LengthClassDraft& cls, std::size_t value) {
        return cls.length < value;
      });
  if (it == classes->end() || it->length != len) {
    LengthClassDraft fresh;
    fresh.length = len;
    it = classes->insert(it, std::move(fresh));
  }
  return &*it;
}

/// Inserts one subsequence under the build-time leader rule.
void InsertMember(LengthClassDraft* cls, const Dataset& ds,
                  const SubseqRef& ref, double radius, bool update_centroid) {
  const std::span<const double> vals = ref.Resolve(ds);
  const auto [idx, dist] = internal::NearestGroup(cls->groups, vals, radius);
  if (idx == cls->groups.size()) {
    GroupBuilder g(ref.length);
    g.Add(ref, vals, update_centroid);
    cls->groups.push_back(std::move(g));
  } else {
    cls->groups[idx].Add(ref, vals, update_centroid);
  }
}

LengthClassDrift DriftOfClass(const OnexBase& base, const LengthClass& cls) {
  const double radius = DriftOutlierRadius(base.options().st);
  LengthClassDrift drift;
  drift.length = cls.length;
  drift.members = cls.total_members;
  for (const SimilarityGroup& g : cls.groups) {
    for (const SubseqRef& ref : g.members()) {
      const double d =
          NormalizedEuclidean(g.centroid_span(), ref.Resolve(base.dataset()));
      if (d > radius) ++drift.outliers;
    }
  }
  return drift;
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

  std::vector<LengthClassDraft> classes = ThawClasses(base);

  const std::size_t max_len =
      options.max_length == 0 ? std::max(base.dataset().MaxLength(), new_len)
                              : options.max_length;
  const double radius = options.st / 2.0;
  const bool update_centroid =
      options.centroid_policy != CentroidPolicy::kFixedLeader;

  for (std::size_t len = options.min_length; len <= max_len;
       len += options.length_step) {
    if (new_len < len) continue;
    LengthClassDraft* cls = FindOrCreateClass(&classes, len);
    for (std::size_t start = 0; start + len <= new_len;
         start += options.stride) {
      InsertMember(cls, ds, {new_idx, start, len}, radius, update_centroid);
    }
  }

  // Restore recomputes centroids/envelopes/stats and repacks the columnar
  // stores; note this realigns running-mean centroids to the exact member
  // mean (insertion kept them approximately there) and keeps leaders fixed
  // for kFixedLeader.
  return OnexBase::Restore(std::move(dataset), options, std::move(classes),
                           base.stats().repaired_members);
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

  std::vector<LengthClassDraft> classes = ThawClasses(base);

  const std::size_t max_len = options.max_length == 0
                                  ? std::max(old_ds.MaxLength(), ds.MaxLength())
                                  : options.max_length;
  const double radius = options.st / 2.0;
  const bool update_centroid =
      options.centroid_policy != CentroidPolicy::kFixedLeader;

  std::size_t new_members = 0;
  std::vector<std::size_t> touched;
  for (std::size_t len = options.min_length; len <= max_len;
       len += options.length_step) {
    LengthClassDraft* cls = nullptr;
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
        if (cls == nullptr) cls = FindOrCreateClass(&classes, len);
        InsertMember(cls, ds, {s, start, len}, radius, update_centroid);
        ++new_members;
      }
    }
    if (cls != nullptr) touched.push_back(len);
  }

  ONEX_ASSIGN_OR_RETURN(
      OnexBase next,
      OnexBase::Restore(std::move(dataset), options, std::move(classes),
                        base.stats().repaired_members));

  // Drift is measured on the restored base (exact post-insert centroids) so
  // the number the regroup policy sees is the one queries experience. Under
  // kFixedLeader the invariant is exact — report the touched classes with
  // zero outliers instead of paying the member scan on every tick.
  const bool leader =
      options.centroid_policy == CentroidPolicy::kFixedLeader;
  std::vector<LengthClassDrift> drift;
  drift.reserve(touched.size());
  for (const std::size_t len : touched) {
    Result<const LengthClass*> cls = next.FindLengthClass(len);
    if (!cls.ok()) continue;
    drift.push_back(leader
                        ? LengthClassDrift{len, (*cls)->total_members, 0}
                        : DriftOfClass(next, **cls));
  }
  ExtendResult result{std::move(next), new_members, std::move(drift)};
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

Result<OnexBase> RegroupLengthClasses(const OnexBase& base,
                                      std::span<const std::size_t> lengths) {
  const std::set<std::size_t> want(lengths.begin(), lengths.end());
  std::size_t repaired = base.stats().repaired_members;
  std::vector<LengthClassDraft> classes;
  classes.reserve(base.length_classes().size());
  for (const LengthClass& cls : base.length_classes()) {
    if (want.contains(cls.length)) {
      // Fresh leader clustering: every member re-admitted against the
      // centroids of its own era, the exact pipeline the offline build runs.
      LengthClassDraft draft;
      draft.length = cls.length;
      draft.groups = internal::BuildGroupsForLength(base.dataset(), cls.length,
                                                    base.options(), &repaired);
      classes.push_back(std::move(draft));
    } else {
      classes.push_back(ThawClass(cls));
    }
  }
  return OnexBase::Restore(base.shared_dataset(), base.options(),
                           std::move(classes), repaired);
}

}  // namespace onex
