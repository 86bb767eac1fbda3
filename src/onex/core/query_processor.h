#ifndef ONEX_CORE_QUERY_PROCESSOR_H_
#define ONEX_CORE_QUERY_PROCESSOR_H_

#include <cstddef>
#include <span>
#include <vector>

#include "onex/common/cancellation.h"
#include "onex/common/result.h"
#include "onex/core/onex_base.h"
#include "onex/distance/dtw.h"
#include "onex/distance/envelope.h"
#include "onex/distance/warping_path.h"

namespace onex {

/// Knobs of the DTW-side exploration (paper §3.2/§3.3). Defaults enable the
/// full pruning cascade; the ablation bench (E7) toggles the flags.
struct QueryOptions {
  /// Sakoe-Chiba half-width for query-time DTW; kNoWindow = unconstrained.
  int window = kNoWindow;
  /// Group-envelope + Keogh lower-bound pruning ("indexing of time series
  /// using bounding envelopes").
  bool use_lower_bounds = true;
  /// Early-abandoning DTW against the best-so-far ("early pruning of
  /// unpromising candidates").
  bool use_early_abandon = true;
  /// How many of the best-representative groups to refine. 1 reproduces the
  /// paper's "best match representative" rule; larger values trade time for
  /// accuracy.
  std::size_t explore_top_groups = 1;
  /// When set, keeps refining groups whose representative lies within ST of
  /// the current k-th answer instead of stopping after explore_top_groups.
  /// Stronger answers, but the scan can touch a large share of the base —
  /// the paper's speed claim assumes this is off.
  bool exhaustive = false;
  /// Restrict searched lengths (0 = no bound). The demo's Similarity View
  /// searches all lengths; Seasonal View pins one.
  std::size_t min_length = 0;
  std::size_t max_length = 0;
  /// Extract the warping path of the final answer (Fig 2's dotted lines).
  bool compute_path = true;
  /// Optional cooperative cancellation (deadline_ms on the wire, or the
  /// serving layer's disconnect flag). Polled between cascade stages and
  /// between refined groups; an expired token turns the query into
  /// DeadlineExceeded. Queries that complete before expiry are bit-identical
  /// to uncancellable runs — the token is only ever *read* between stages,
  /// never inside the horizon arithmetic.
  const Cancellation* cancel = nullptr;
};

/// Work counters for one query; benches report these to show where pruning
/// pays off. Deterministic for a given (base, query, options), whichever
/// thread runs the query and whatever runs beside it.
struct QueryStats {
  std::size_t groups_total = 0;
  std::size_t groups_pruned_lb = 0;       ///< Skipped by lower bound alone.
  std::size_t rep_dtw_evaluations = 0;    ///< DTW calls against centroids.
  std::size_t member_dtw_evaluations = 0; ///< DTW calls against members.
  std::size_t members_pruned_lb = 0;
  /// Per-stage attribution of the LB_Kim → LB_Keogh → DTW cascade
  /// (DESIGN.md §14): which bound removed a candidate (group or member),
  /// and how many DTW dynamic programs actually ran. pruned_kim +
  /// pruned_keogh == groups_pruned_lb + members_pruned_lb; dtw_evals ==
  /// rep_dtw_evaluations + member_dtw_evaluations. Surfaced on the wire in
  /// MATCH/KNN/STATS responses.
  std::size_t pruned_kim = 0;    ///< Candidates dropped by LB_Kim alone.
  std::size_t pruned_keogh = 0;  ///< Dropped by an LB_Keogh-family bound.
  std::size_t dtw_evals = 0;     ///< Total DTW evaluations (reps + members).
};

/// A retrieved match. Distances come in raw (sqrt of summed squared costs)
/// and length-normalized (raw / sqrt(max(n,m))) forms; normalized values are
/// comparable across lengths and against the build threshold ST.
struct BestMatch {
  SubseqRef ref;
  std::size_t length = 0;
  std::size_t group_index = 0;   ///< Group's index inside its length class.
  double dtw = 0.0;              ///< Raw DTW(query, match).
  double normalized_dtw = 0.0;
  double rep_dtw = 0.0;          ///< Raw DTW(query, group representative).
  double normalized_rep_dtw = 0.0;
  WarpingPath path;              ///< Query-to-match alignment (optional).
};

/// DTW-side exploration over a built ONEX base (paper §3.2): rank groups by
/// representative DTW, refine inside the winner(s). The base must outlive
/// the processor. Stateless between calls and safe to share between
/// concurrent callers: each query runs on its caller's thread, and
/// parallelism lives across queries (DESIGN.md §6).
class QueryProcessor {
 public:
  explicit QueryProcessor(const OnexBase* base) : base_(base) {}

  /// The demo's similarity search: the best match to `query` across every
  /// group of every (admissible) length. The triangle-inequality foundation
  /// guarantees the answer's DTW is within ST of the true optimum.
  Result<BestMatch> BestMatchQuery(std::span<const double> query,
                                   const QueryOptions& options = {},
                                   QueryStats* stats = nullptr) const;

  /// k nearest groups' best members, ascending by normalized DTW. Examines
  /// the max(k, explore_top_groups) best-representative groups (plus, with
  /// options.exhaustive, any group whose representative is within ST of the
  /// current k-th answer); a documented extension of the paper's best-match
  /// rule.
  Result<std::vector<BestMatch>> KnnQuery(std::span<const double> query,
                                          std::size_t k,
                                          const QueryOptions& options = {},
                                          QueryStats* stats = nullptr) const;

  const OnexBase& base() const { return *base_; }

 private:
  struct RankedGroup {
    double normalized_rep_dtw;
    double raw_rep_dtw;
    std::size_t class_index;
    std::size_t group_index;
    /// True when normalized_rep_dtw is the exact representative DTW; false
    /// when it is only a lower bound (group was pruned or abandoned during
    /// ranking). Exact entries win sorting ties so pruning can never demote
    /// the true argmin group below a bound-valued one.
    bool exact;
    /// Ranking already counted this group in groups_pruned_lb; refinement
    /// must not count it again when the group-envelope bound skips it.
    bool pruned;
  };

  /// Pass 1: the `keep` best groups by DTW between query and
  /// representative, ascending (every group when `keep` covers them all).
  /// Groups are visited in order of normalized lower bound and pruned
  /// against a horizon that tightens as exact values arrive: the exact
  /// representative DTW of the first group visited, then the keep-th
  /// smallest exact value once `keep` exist. The first group whose bound
  /// passes the horizon ends the scan. Prunes against a tightened horizon
  /// are strict-with-slack and exact values win ties, so the `keep` groups
  /// and their keys are those of a scan against the first horizon alone
  /// (DESIGN.md §6). `query_env` is the query's Keogh envelope under
  /// options.window, built once per query and shared with refinement.
  std::vector<RankedGroup> RankGroups(std::span<const double> query,
                                      const Envelope& query_env,
                                      std::size_t keep,
                                      const QueryOptions& options,
                                      QueryStats* stats) const;

  const OnexBase* base_;
};

}  // namespace onex

#endif  // ONEX_CORE_QUERY_PROCESSOR_H_
