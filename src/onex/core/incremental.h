#ifndef ONEX_CORE_INCREMENTAL_H_
#define ONEX_CORE_INCREMENTAL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "onex/common/result.h"
#include "onex/core/onex_base.h"

namespace onex {

/// Incremental maintenance of the ONEX base: extend an existing base with
/// new data without re-grouping the whole collection. The demo loads data
/// "with a click of a button"; production collections keep growing (a new
/// year of state indicators, another household, a live feed ticking), and a
/// full rebuild per arrival wastes the offline work already done.
///
/// Two write shapes (DESIGN.md §12):
///   - AppendSeries: a whole new series joins the collection.
///   - ExtendSeries: existing series grow at the tail, point by point — the
///     streaming-ingest path a dashboard tailing live feeds exercises.
///
/// Semantics: new subsequences are inserted with the identical leader rule
/// used at build time (join the nearest group whose centroid is within
/// ST/2, else found a new group). Existing group memberships never change,
/// so the ST/2 invariant (exact for kFixedLeader) is preserved; with
/// kRunningMean the centroids of joined groups move, exactly as they would
/// have during a batch build. Lengths the base has never seen (a longer
/// series than any before, under max_length == 0 scoping) get fresh length
/// classes.
///
/// Cost: a write pays for the groups it changes (DESIGN.md §12). Only a
/// group that gained members, or that the write founded, is recomputed
/// from its members; every other group's rows, and every class with no new
/// member, carry over from the input base. The result equals
/// OnexBase::Restore of its memberships byte for byte. That needs exact
/// centroids in the input (OnexBase::centroids_exact), so the first write
/// after a Build or an arena load recomputes every group.
///
/// Results are new immutable bases over the grown dataset; the input base
/// is untouched (readers keep their snapshot, mirroring Engine::Prepare).

Result<OnexBase> AppendSeries(const OnexBase& base, TimeSeries series);

/// One series' pending tail: `points` (in the base's units — normalized
/// upstream with the dataset's frozen parameters) are appended to series
/// `series`.
struct SeriesExtension {
  std::size_t series = 0;
  std::vector<double> points;
};

/// Drift of one length class under kRunningMean: incremental inserts move
/// centroids, so members admitted long ago can end up farther than ST/2
/// from today's representative. `outliers` counts such members; when the
/// fraction grows, group envelopes widen, pruning weakens and answer
/// quality decays toward the regroup threshold (DESIGN.md §12). Exactly 0
/// under kFixedLeader, whose invariant is exact.
struct LengthClassDrift {
  std::size_t length = 0;
  std::size_t members = 0;
  std::size_t outliers = 0;  ///< Members farther than ST/2 from centroid.

  double fraction() const {
    return members == 0
               ? 0.0
               : static_cast<double>(outliers) / static_cast<double>(members);
  }
};

/// Distance from its own centroid beyond which a member counts as a drift
/// outlier: the build-time insertion radius ST/2 plus a hair of slack, so
/// floating-point noise alone never flags a member. ComputeDrift and the
/// ANOMALY scan share it.
inline double DriftOutlierRadius(double st) { return st / 2.0 + 1e-9; }

/// Outcome of ExtendSeries: the grown base plus the maintenance signals the
/// registry's drift policy consumes.
struct ExtendResult {
  OnexBase base;
  std::size_t new_members = 0;  ///< Subsequences this extension generated.
  /// Groups recomputed from their members: those that gained members plus
  /// those the extension founded — or every group, on a base without exact
  /// centroids.
  std::size_t groups_recomputed = 0;
  /// Post-extension drift of every length class the extension touched
  /// (ascending by length). The other classes gained no member, so their
  /// groups and drift are the input base's.
  std::vector<LengthClassDrift> drift;
};

/// Merges extensions into one pending tail per series (duplicate targets
/// concatenate in arrival order). InvalidArgument on an out-of-range series
/// index or an empty point vector. Shared by the core extend below and the
/// engine's raw-tail bookkeeping so both agree on validation and merge
/// order.
Result<std::vector<std::vector<double>>> MergeExtensions(
    std::size_t num_series, std::span<const SeriesExtension> extensions);

/// Returns a copy of `ds` with each series' tail extended by `pending[s]`.
/// Empty or missing entries leave the series untouched.
Dataset ExtendTails(const Dataset& ds,
                    const std::vector<std::vector<double>>& pending);

/// Extends existing series at the tail, generating and inserting only the
/// subsequences the new points create (those ending past each series' old
/// length, on the build-time stride grid). Duplicate series entries
/// concatenate in order. InvalidArgument on an out-of-range series index or
/// an empty extension list / point vector.
Result<ExtendResult> ExtendSeries(const OnexBase& base,
                                  std::span<const SeriesExtension> extensions);

/// Single-series convenience form.
Result<ExtendResult> ExtendSeries(const OnexBase& base, std::size_t series_id,
                                  std::span<const double> new_points);

/// Full drift scan: every length class of `base`, ascending by length. The
/// DRIFT verb and the property suite read this; ExtendSeries reports the
/// touched subset itself.
std::vector<LengthClassDrift> ComputeDrift(const OnexBase& base);

/// The same numbers from the per-group counts writes keep
/// (LengthClass::group_outliers), with no member scan; a class without
/// counts (a Build or arena base) is scanned. ComputeDrift is its twin.
std::vector<LengthClassDrift> TrackedDrift(const OnexBase& base);

/// Rebuilds just the named length classes from scratch — fresh leader
/// clustering over the (current) dataset via the shared
/// internal::BuildGroupsForLength pipeline, then every group recomputed
/// from its members as Restore does. Every other class carries over under
/// the write rule above: shared as it is on a base with exact centroids,
/// recomputed from its members otherwise. This is the drift repair: a
/// regrouped class's members were all admitted against final-era
/// centroids, restoring the tight envelopes incremental maintenance
/// eroded. Lengths with no class in `base` are ignored.
Result<OnexBase> RegroupLengthClasses(const OnexBase& base,
                                      std::span<const std::size_t> lengths);

}  // namespace onex

#endif  // ONEX_CORE_INCREMENTAL_H_
