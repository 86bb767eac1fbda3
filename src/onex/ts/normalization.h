#ifndef ONEX_TS_NORMALIZATION_H_
#define ONEX_TS_NORMALIZATION_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "onex/common/result.h"
#include "onex/ts/dataset.h"

namespace onex {

/// Normalization applied before grouping. ONEX normalizes the whole dataset
/// into [0,1] with the global extrema (the paper's thresholds — e.g. ST=0.1 —
/// presume a common value scale); per-series variants are provided for
/// workloads where amplitude should not matter.
enum class NormalizationKind {
  kNone = 0,
  kMinMaxDataset = 1,  ///< (v - min_D) / (max_D - min_D), dataset-global.
  kMinMaxSeries = 2,   ///< Per-series min-max to [0,1].
  kZScoreSeries = 3,   ///< Per-series (v - mean) / stddev.
};

const char* NormalizationKindToString(NormalizationKind kind);
Result<NormalizationKind> NormalizationKindFromString(const std::string& name);

/// Parameters captured during normalization so values can be mapped back for
/// display (the web front-end shows original units).
struct NormalizationParams {
  NormalizationKind kind = NormalizationKind::kNone;
  /// For kMinMaxDataset: the global extrema. Per-series kinds keep one entry
  /// per series in `per_series` as (offset, scale): original = v*scale+offset.
  double min = 0.0;
  double max = 0.0;
  std::vector<std::pair<double, double>> per_series;
};

/// Returns a normalized copy of `ds`.
///
/// Degenerate inputs are handled conservatively: a constant series (or a
/// constant dataset for the dataset-global kind) maps to all zeros rather
/// than dividing by zero.
Result<Dataset> Normalize(const Dataset& ds, NormalizationKind kind,
                          NormalizationParams* params = nullptr);

/// Maps a normalized value back to original units for series `series_idx`.
double Denormalize(const NormalizationParams& params, std::size_t series_idx,
                   double value);

/// Inverse of Denormalize: maps one raw value of series `series_idx` into
/// the frozen normalized space. The streaming tail path (Engine::
/// ExtendSeries) uses this so points appended to an existing series land
/// in exactly the units the base compares in.
/// Degenerate frozen scales (constant dataset) map to 0, mirroring
/// Normalize.
double NormalizeValue(const NormalizationParams& params,
                      std::size_t series_idx, double value);

/// Normalizes one newcomer series against an existing dataset's *frozen*
/// parameters — the incremental-append counterpart of Normalize. Dataset-
/// level kinds reuse the stored extrema untouched (appending never rescales
/// the rest of the dataset); per-series kinds compute the newcomer's own
/// offset/scale and append it to `params->per_series`. Used by the
/// engine's AppendSeries and by WAL replay of an append, so both paths
/// produce the same values.
TimeSeries NormalizeAppended(const TimeSeries& series, NormalizationKind kind,
                             NormalizationParams* params);

}  // namespace onex

#endif  // ONEX_TS_NORMALIZATION_H_
