#include "onex/engine/snapshot_ops.h"

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace onex {

Result<std::shared_ptr<const PreparedDataset>> BuildSnapshot(
    const std::shared_ptr<const PreparedDataset>& current,
    const BaseBuildOptions& options, NormalizationKind norm, bool renormalize,
    TaskPool* pool) {
  auto next = std::make_shared<PreparedDataset>();
  next->name = current->name;
  next->raw = current->raw;
  next->norm_kind = norm;
  if (!renormalize && current->normalized != nullptr &&
      current->norm_kind == norm &&
      current->normalized->size() <= current->raw->size()) {
    // Honor the frozen-normalization contract. The normalized copy may have
    // gone stale while the base sat evicted: whole series appended
    // (size grew) and/or existing series extended at the tail (lengths
    // grew). Catch up only the missing parts with the existing parameters —
    // exactly what a resident append/extend would have done — instead of
    // renormalizing (and silently rescaling) the whole dataset.
    next->norm_params = current->norm_params;
    bool stale = current->normalized->size() < current->raw->size();
    for (std::size_t s = 0; !stale && s < current->normalized->size(); ++s) {
      stale = (*current->normalized)[s].length() != (*current->raw)[s].length();
    }
    if (!stale) {
      next->normalized = current->normalized;
    } else {
      Dataset normalized(current->normalized->name());
      for (std::size_t s = 0; s < current->raw->size(); ++s) {
        const TimeSeries& raw_ts = (*current->raw)[s];
        if (s >= current->normalized->size()) {
          normalized.Add(NormalizeAppended(raw_ts, norm, &next->norm_params));
          continue;
        }
        const TimeSeries& have = (*current->normalized)[s];
        if (have.length() == raw_ts.length()) {
          normalized.Add(have);
          continue;
        }
        std::vector<double> values = have.values();
        values.reserve(raw_ts.length());
        for (std::size_t i = have.length(); i < raw_ts.length(); ++i) {
          values.push_back(NormalizeValue(next->norm_params, s, raw_ts[i]));
        }
        normalized.Add(
            TimeSeries(have.name(), std::move(values), have.label()));
      }
      next->normalized =
          std::make_shared<const Dataset>(std::move(normalized));
    }
  } else {
    ONEX_ASSIGN_OR_RETURN(Dataset normalized,
                          Normalize(*next->raw, norm, &next->norm_params));
    next->normalized =
        std::make_shared<const Dataset>(std::move(normalized));
  }
  ONEX_ASSIGN_OR_RETURN(OnexBase base,
                        OnexBase::Build(next->normalized, options, pool));
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
  } else if (current.normalized != nullptr) {
    // Base evicted: grow the frozen normalized copy in lockstep (the same
    // values BuildSnapshot's catch-up would derive). This keeps per-series
    // parameters frozen at the newcomer's own pre-extend values, so a
    // later ExtendSeries of this series — and the eventual transparent
    // rebuild — match what a resident append+extend would have produced.
    Dataset normalized(current.normalized->name());
    for (const TimeSeries& ts : current.normalized->series()) {
      normalized.Add(ts);
    }
    normalized.Add(
        NormalizeAppended(series, current.norm_kind, &next->norm_params));
    next->normalized = std::make_shared<const Dataset>(std::move(normalized));
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

  // The same tails in normalized units: mapped through the dataset's
  // frozen parameters, so appended values land in exactly the units the
  // base compares in.
  std::vector<std::vector<double>> norm_pending(pending.size());
  for (std::size_t s = 0; s < pending.size(); ++s) {
    norm_pending[s].reserve(pending[s].size());
    for (const double v : pending[s]) {
      norm_pending[s].push_back(NormalizeValue(current.norm_params, s, v));
    }
  }

  if (current.prepared()) {
    // Insert only the new subsequences into the base.
    std::vector<SeriesExtension> norm_ext;
    for (std::size_t s = 0; s < norm_pending.size(); ++s) {
      if (norm_pending[s].empty()) continue;
      norm_ext.push_back(SeriesExtension{s, std::move(norm_pending[s])});
    }
    ONEX_ASSIGN_OR_RETURN(ExtendResult extended,
                          onex::ExtendSeries(*current.base, norm_ext));
    next->base = std::make_shared<const OnexBase>(std::move(extended.base));
    next->normalized = next->base->shared_dataset();
    outcome.new_members = extended.new_members;
    outcome.drift = std::move(extended.drift);
  } else if (current.normalized != nullptr) {
    // Base evicted: keep the frozen normalized copy in lockstep so the
    // transparent rebuild (DESIGN.md §11) regroups exactly the values a
    // resident extend would have inserted.
    next->normalized = std::make_shared<const Dataset>(
        ExtendTails(*current.normalized, norm_pending));
  }
  outcome.snapshot = std::move(next);
  return outcome;
}

Result<std::shared_ptr<const PreparedDataset>> ApplyRegroup(
    const PreparedDataset& current, std::span<const std::size_t> lengths) {
  if (!current.prepared()) {
    return Status::FailedPrecondition(
        "cannot regroup '" + current.name + "': base is not resident");
  }
  ONEX_ASSIGN_OR_RETURN(OnexBase rebuilt,
                        RegroupLengthClasses(*current.base, lengths));
  auto next = std::make_shared<PreparedDataset>(current);
  next->arena.reset();  // Mutation = copy-on-write promotion off the arena.
  next->base = std::make_shared<const OnexBase>(std::move(rebuilt));
  return std::shared_ptr<const PreparedDataset>(std::move(next));
}

}  // namespace onex
