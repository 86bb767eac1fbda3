#include "onex/core/onex_base.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "onex/common/logging.h"
#include "onex/common/string_utils.h"
#include "onex/common/task_pool.h"
#include "onex/core/grouping_util.h"

namespace onex {
namespace {

/// Packs finished builders into a LengthClass: columnar store + one view
/// per group. `total_members` is recounted from the builders so callers
/// cannot desynchronize it.
LengthClass FinalizeLengthClass(std::size_t length,
                                const std::vector<GroupBuilder>& builders) {
  LengthClass cls;
  cls.length = length;
  cls.store =
      std::make_shared<const GroupStore>(GroupStore::Pack(length, builders));
  cls.groups.reserve(builders.size());
  for (std::size_t g = 0; g < builders.size(); ++g) {
    cls.groups.emplace_back(cls.store.get(), g);
  }
  cls.total_members = cls.store->total_members();
  return cls;
}

/// Builds the length-`len` class: leader clustering of every admissible
/// subsequence, plus the optional repair pass — the shared
/// internal::BuildGroupsForLength pipeline, packed columnar. Returns the
/// number of members the repair pass moved through `repaired`. Thread-safe:
/// touches only its own outputs.
LengthClass BuildLengthClass(const Dataset& ds, std::size_t len,
                             const BaseBuildOptions& options,
                             std::size_t* repaired) {
  const std::vector<GroupBuilder> groups =
      internal::BuildGroupsForLength(ds, len, options, repaired);
  if (groups.empty()) return LengthClass{len, nullptr, {}, 0, {}};
  return FinalizeLengthClass(len, groups);
}

}  // namespace

const char* CentroidPolicyToString(CentroidPolicy policy) {
  switch (policy) {
    case CentroidPolicy::kFixedLeader:
      return "fixed-leader";
    case CentroidPolicy::kRunningMean:
      return "running-mean";
    case CentroidPolicy::kRunningMeanRepair:
      return "running-mean-repair";
  }
  return "unknown";
}

Status BaseBuildOptions::Validate() const {
  if (!(st > 0.0) || !std::isfinite(st)) {
    return Status::InvalidArgument(
        StrFormat("similarity threshold must be positive, got %g", st));
  }
  if (min_length < 2) {
    return Status::InvalidArgument("min_length must be >= 2");
  }
  if (max_length != 0 && max_length < min_length) {
    return Status::InvalidArgument(StrFormat(
        "max_length (%zu) < min_length (%zu)", max_length, min_length));
  }
  if (length_step == 0 || stride == 0) {
    return Status::InvalidArgument("length_step and stride must be positive");
  }
  return Status::OK();
}

Result<OnexBase> OnexBase::Build(std::shared_ptr<const Dataset> dataset,
                                 const BaseBuildOptions& options) {
  if (dataset == nullptr || dataset->empty()) {
    return Status::InvalidArgument("cannot build a base over an empty dataset");
  }
  ONEX_RETURN_IF_ERROR(options.Validate());

  const auto t0 = std::chrono::steady_clock::now();
  OnexBase base;
  base.dataset_ = std::move(dataset);
  base.options_ = options;
  const Dataset& ds = *base.dataset_;

  // No class is longer than the longest series, however large max_length.
  const std::size_t max_len =
      std::min(options.max_length == 0 ? SIZE_MAX : options.max_length,
               ds.MaxLength());
  std::vector<std::size_t> lengths;
  for (std::size_t len = options.min_length; len <= max_len;
       len += options.length_step) {
    lengths.push_back(len);
  }

  std::vector<LengthClass> classes(lengths.size());
  std::vector<std::size_t> repaired(lengths.size(), 0);
  TaskPool& tasks = TaskPool::Shared();
  std::size_t workers = options.threads == 0 ? tasks.worker_count() + 1
                                             : options.threads;
  workers = std::min(workers, lengths.size() == 0 ? 1 : lengths.size());

  if (workers <= 1) {
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      classes[i] = BuildLengthClass(ds, lengths[i], options, &repaired[i]);
    }
  } else {
    // Length classes are independent work items; the pool dynamically
    // balances them (long lengths cost more than short ones). Each item
    // writes only its own slot, so the result is bit-identical to the
    // serial loop regardless of scheduling.
    tasks.ParallelFor(
        lengths.size(),
        [&](std::size_t i) {
          classes[i] = BuildLengthClass(ds, lengths[i], options, &repaired[i]);
        },
        workers);
  }

  for (std::size_t i = 0; i < classes.size(); ++i) {
    LengthClass& cls = classes[i];
    if (cls.total_members == 0) continue;
    base.stats_.repaired_members += repaired[i];
    base.stats_.num_subsequences += cls.total_members;
    base.stats_.num_groups += cls.groups.size();
    base.classes_.push_back(std::move(cls));
  }

  if (base.classes_.empty()) {
    return Status::InvalidArgument(StrFormat(
        "no subsequences: every series is shorter than min_length=%zu",
        options.min_length));
  }

  base.stats_.num_length_classes = base.classes_.size();
  base.stats_.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ONEX_LOG(kInfo) << "built ONEX base over '" << ds.name() << "': "
                  << base.stats_.num_subsequences << " subsequences -> "
                  << base.stats_.num_groups << " groups in "
                  << base.stats_.build_seconds << "s";
  return base;
}

Result<OnexBase> OnexBase::Restore(std::shared_ptr<const Dataset> dataset,
                                   const BaseBuildOptions& options,
                                   std::vector<LengthClassDraft> classes,
                                   std::size_t repaired_members) {
  if (dataset == nullptr || dataset->empty()) {
    return Status::InvalidArgument("cannot restore a base without a dataset");
  }
  ONEX_RETURN_IF_ERROR(options.Validate());

  const auto t0 = std::chrono::steady_clock::now();
  const Dataset& ds = *dataset;
  const bool leader =
      options.centroid_policy == CentroidPolicy::kFixedLeader;
  std::vector<LengthClass> finished;
  finished.reserve(classes.size());
  for (LengthClassDraft& draft : classes) {
    // Build() never materializes a class with zero members; skip an empty
    // draft rather than install a memberless LengthClass that every later
    // consumer (drift ratios, group scans) would have to special-case.
    if (draft.groups.empty()) continue;
    for (GroupBuilder& g : draft.groups) {
      if (g.empty()) {
        return Status::InvalidArgument("restored group has no members");
      }
      for (const SubseqRef& ref : g.members()) {
        ONEX_RETURN_IF_ERROR(ds.CheckRange(ref.series, ref.start, ref.length));
        if (ref.length != draft.length) {
          return Status::InvalidArgument(StrFormat(
              "member %s in length class %zu", ref.ToString().c_str(),
              draft.length));
        }
      }
      g.RecomputeFromMembers(ds, leader);
    }
    finished.push_back(FinalizeLengthClass(draft.length, draft.groups));
  }
  if (finished.empty()) {
    return Status::InvalidArgument("cannot restore a base with no groups");
  }
  return Assemble(std::move(dataset), options, std::move(finished),
                  repaired_members, /*centroids_exact=*/false,
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
}

Result<OnexBase> OnexBase::Assemble(std::shared_ptr<const Dataset> dataset,
                                    const BaseBuildOptions& options,
                                    std::vector<LengthClass> classes,
                                    std::size_t repaired_members,
                                    bool centroids_exact,
                                    double build_seconds) {
  if (dataset == nullptr || dataset->empty()) {
    return Status::InvalidArgument("cannot assemble a base without a dataset");
  }
  ONEX_RETURN_IF_ERROR(options.Validate());
  if (classes.empty()) {
    return Status::InvalidArgument("cannot assemble a base with no groups");
  }

  OnexBase base;
  base.dataset_ = std::move(dataset);
  base.options_ = options;
  base.stats_.repaired_members = repaired_members;
  base.stats_.build_seconds = build_seconds;
  base.centroids_exact_ = centroids_exact;
  std::size_t prev_length = 0;
  for (const LengthClass& cls : classes) {
    if (cls.length <= prev_length) {
      return Status::InvalidArgument(
          "length classes must be strictly increasing");
    }
    prev_length = cls.length;
    if (cls.store == nullptr || cls.groups.empty()) {
      return Status::InvalidArgument("assembled length class has no groups");
    }
    base.stats_.num_subsequences += cls.total_members;
    base.stats_.num_groups += cls.groups.size();
  }
  base.classes_ = std::move(classes);
  base.stats_.num_length_classes = base.classes_.size();
  return base;
}

Result<OnexBase> OnexBase::FromStores(
    std::shared_ptr<const Dataset> dataset, const BaseBuildOptions& options,
    std::vector<std::shared_ptr<const GroupStore>> stores,
    std::size_t repaired_members, std::shared_ptr<const void> storage) {
  std::vector<LengthClass> classes;
  classes.reserve(stores.size());
  for (std::shared_ptr<const GroupStore>& store : stores) {
    if (store == nullptr || store->num_groups() == 0) {
      return Status::InvalidArgument("assembled length class has no groups");
    }
    LengthClass cls;
    cls.length = store->length();
    cls.store = std::move(store);
    cls.groups.reserve(cls.store->num_groups());
    for (std::size_t g = 0; g < cls.store->num_groups(); ++g) {
      cls.groups.emplace_back(cls.store.get(), g);
    }
    cls.total_members = cls.store->total_members();
    classes.push_back(std::move(cls));
  }
  ONEX_ASSIGN_OR_RETURN(
      OnexBase base,
      Assemble(std::move(dataset), options, std::move(classes),
               repaired_members, /*centroids_exact=*/false,
               /*build_seconds=*/0.0));
  base.storage_ = std::move(storage);
  return base;
}

std::size_t OnexBase::MemoryUsage() const {
  std::size_t total = 0;
  for (const LengthClass& cls : classes_) {
    if (cls.store != nullptr) total += cls.store->MemoryUsage();
    total += cls.groups.size() * sizeof(SimilarityGroup);
  }
  return total;
}

Result<const LengthClass*> OnexBase::FindLengthClass(std::size_t length) const {
  // classes_ is sorted by length: binary search replaces the old
  // std::map index, which duplicated information the vector already has.
  const auto it = std::lower_bound(
      classes_.begin(), classes_.end(), length,
      [](const LengthClass& cls, std::size_t value) {
        return cls.length < value;
      });
  if (it == classes_.end() || it->length != length) {
    return Status::NotFound(
        StrFormat("no length class for length %zu", length));
  }
  return &*it;
}

}  // namespace onex
