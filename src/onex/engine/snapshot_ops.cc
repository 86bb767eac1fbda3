#include "onex/engine/snapshot_ops.h"

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace onex {

Result<std::shared_ptr<const PreparedDataset>> BuildSnapshot(
    const std::shared_ptr<const PreparedDataset>& current,
    const BaseBuildOptions& options, NormalizationKind norm) {
  auto next = std::make_shared<PreparedDataset>();
  next->name = current->name;
  next->raw = current->raw;
  next->norm_kind = norm;
  ONEX_ASSIGN_OR_RETURN(Dataset normalized,
                        Normalize(*next->raw, norm, &next->norm_params));
  next->normalized = std::make_shared<const Dataset>(std::move(normalized));
  ONEX_ASSIGN_OR_RETURN(OnexBase base,
                        OnexBase::Build(next->normalized, options));
  next->base = std::make_shared<const OnexBase>(std::move(base));
  next->build_options = options;
  return std::shared_ptr<const PreparedDataset>(std::move(next));
}

Result<std::shared_ptr<const PreparedDataset>> ApplyAppend(
    const PreparedDataset& current, const TimeSeries& series) {
  if (series.length() < 2) {
    return Status::InvalidArgument("appended series needs >= 2 points");
  }
  auto next = std::make_shared<PreparedDataset>(current);
  // Any mutation promotes a mapped snapshot back to the resident tier: the
  // new base owns its storage (copy-on-write), the arena handle is stale.
  next->arena.reset();
  // Extended raw dataset.
  Dataset raw(current.raw->name());
  for (const TimeSeries& ts : current.raw->series()) raw.Add(ts);
  raw.Add(series);
  next->raw = std::make_shared<const Dataset>(std::move(raw));

  if (current.prepared()) {
    // Normalize the newcomer with the frozen parameters, then insert it
    // into the base without re-grouping the rest.
    TimeSeries norm_series =
        NormalizeAppended(series, current.norm_kind, &next->norm_params);
    ONEX_ASSIGN_OR_RETURN(
        OnexBase extended,
        onex::AppendSeries(*next->base, std::move(norm_series)));
    next->base = std::make_shared<const OnexBase>(std::move(extended));
    next->normalized = next->base->shared_dataset();
  }
  return std::shared_ptr<const PreparedDataset>(std::move(next));
}

Result<ExtendOutcome> ApplyExtend(
    const PreparedDataset& current,
    std::span<const SeriesExtension> extensions) {
  // One pending tail per series (validation + duplicate merge shared with
  // the core layer).
  ONEX_ASSIGN_OR_RETURN(std::vector<std::vector<double>> pending,
                        MergeExtensions(current.raw->size(), extensions));

  ExtendOutcome outcome;
  for (const std::vector<double>& tail : pending) {
    if (tail.empty()) continue;
    ++outcome.series_extended;
    outcome.points_appended += tail.size();
  }
  auto next = std::make_shared<PreparedDataset>(current);
  next->arena.reset();  // Mutation = copy-on-write promotion off the arena.
  next->raw =
      std::make_shared<const Dataset>(ExtendTails(*current.raw, pending));

  if (current.prepared()) {
    // The same tails in normalized units, mapped through the dataset's
    // frozen parameters so appended values land in exactly the units the
    // base compares in; only the new subsequences join the base.
    std::vector<SeriesExtension> norm_ext;
    for (std::size_t s = 0; s < pending.size(); ++s) {
      if (pending[s].empty()) continue;
      SeriesExtension ext{s, {}};
      ext.points.reserve(pending[s].size());
      for (const double v : pending[s]) {
        ext.points.push_back(NormalizeValue(current.norm_params, s, v));
      }
      norm_ext.push_back(std::move(ext));
    }
    ONEX_ASSIGN_OR_RETURN(ExtendResult extended,
                          onex::ExtendSeries(*current.base, norm_ext));
    next->base = std::make_shared<const OnexBase>(std::move(extended.base));
    next->normalized = next->base->shared_dataset();
    outcome.new_members = extended.new_members;
    outcome.drift = std::move(extended.drift);
  }
  outcome.snapshot = std::move(next);
  return outcome;
}

Result<std::shared_ptr<const PreparedDataset>> ApplyRegroup(
    const PreparedDataset& current, std::span<const std::size_t> lengths) {
  if (!current.prepared()) {
    return Status::FailedPrecondition(
        "cannot regroup '" + current.name + "': it is not prepared");
  }
  ONEX_ASSIGN_OR_RETURN(OnexBase rebuilt,
                        RegroupLengthClasses(*current.base, lengths));
  auto next = std::make_shared<PreparedDataset>(current);
  next->arena.reset();  // Mutation = copy-on-write promotion off the arena.
  next->base = std::make_shared<const OnexBase>(std::move(rebuilt));
  return std::shared_ptr<const PreparedDataset>(std::move(next));
}

}  // namespace onex
