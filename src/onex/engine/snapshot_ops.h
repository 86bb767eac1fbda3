#ifndef ONEX_ENGINE_SNAPSHOT_OPS_H_
#define ONEX_ENGINE_SNAPSHOT_OPS_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "onex/common/result.h"
#include "onex/core/incremental.h"
#include "onex/engine/dataset_registry.h"
#include "onex/ts/normalization.h"

namespace onex {

/// The snapshot writers — every state transition a slot can take, as pure
/// functions from one immutable PreparedDataset to the next. The live write
/// paths (Engine::AppendSeries / Engine::ExtendSeries conditional-install
/// loops, DatasetRegistry::Prepare, the drift regroup) and WAL replay
/// (DESIGN.md §13) share these, so recovery provably converges with the
/// live path: the same inputs flow through the same code, byte for byte.

/// The one preparation pipeline, shared by Prepare and WAL replay. The
/// normalization always re-runs from raw, re-baselining dataset-level
/// extrema — the analyst's one knob for folding appended out-of-range
/// values into the scale. Runs with no lock held.
Result<std::shared_ptr<const PreparedDataset>> BuildSnapshot(
    const std::shared_ptr<const PreparedDataset>& current,
    const BaseBuildOptions& options, NormalizationKind norm);

/// One whole-series append (raw units): the grown raw dataset plus — when
/// the snapshot is prepared — the incremental base insert under the frozen
/// normalization. InvalidArgument on a series shorter than 2 points.
Result<std::shared_ptr<const PreparedDataset>> ApplyAppend(
    const PreparedDataset& current, const TimeSeries& series);

/// Outcome of ApplyExtend: the next snapshot plus the maintenance signals
/// the drift policy consumes.
struct ExtendOutcome {
  std::shared_ptr<const PreparedDataset> snapshot;
  std::size_t series_extended = 0;
  std::size_t points_appended = 0;
  std::size_t new_members = 0;
  std::vector<LengthClassDrift> drift;
};

/// Streaming tail-extend (raw units): on a prepared snapshot the tails are
/// normalized with the frozen parameters and only the subsequences they
/// create join the base (core/incremental.h); an unprepared one grows its
/// raw tails only. Duplicate series entries concatenate in order.
Result<ExtendOutcome> ApplyExtend(
    const PreparedDataset& current,
    std::span<const SeriesExtension> extensions);

/// Drift repair: rebuilds just the named length classes of a prepared
/// snapshot (fresh leader clustering; core/incremental.h).
/// FailedPrecondition when the snapshot is not prepared.
Result<std::shared_ptr<const PreparedDataset>> ApplyRegroup(
    const PreparedDataset& current, std::span<const std::size_t> lengths);

}  // namespace onex

#endif  // ONEX_ENGINE_SNAPSHOT_OPS_H_
