#include "onex/core/analytics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numbers>
#include <span>
#include <utility>
#include <vector>

#include "onex/common/status.h"
#include "onex/distance/envelope.h"
#include "onex/distance/euclidean.h"
#include "onex/distance/kernels.h"

namespace onex {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Status Poll(const Cancellation* cancel) {
  return cancel == nullptr ? Status::OK() : cancel->Check();
}

/// Early-abandon filter that never changes an answer: proves
/// d(a,b) >= cutoff (returns +inf) or computes the *exact* normalized ED
/// through the same NormalizedEuclidean the oracles call — so accelerated
/// and naive paths agree bit for bit. The cutoff is inflated by the
/// StrictCutoffSq slack before the squared-space scan, which makes an
/// abandonment prove d strictly greater than cutoff: candidates tied exactly
/// at the cutoff always reach the exact comparison, keeping canonical
/// tie-breaks intact.
double FilteredDistance(std::span<const double> a, std::span<const double> b,
                        double cutoff, std::size_t* evals,
                        std::size_t* abandoned) {
  if (std::isfinite(cutoff)) {
    const double n = static_cast<double>(a.size());
    const double cutoff_sq = StrictCutoffSq(cutoff * cutoff * n);
    const double sq = SquaredEuclideanEarlyAbandon(a, b, cutoff_sq);
    if (!(sq < cutoff_sq)) {
      ++*abandoned;
      return kInf;
    }
  }
  ++*evals;
  return NormalizedEuclidean(a, b);
}

/// Exact max member-to-centroid distance of one group.
double GroupRadius(const Dataset& ds, const SimilarityGroup& g) {
  double r = 0.0;
  for (const SubseqRef& ref : g.members()) {
    r = std::max(r, NormalizedEuclidean(g.centroid_span(), ref.Resolve(ds)));
  }
  return r;
}

bool RefLess(const SubseqRef& a, const SubseqRef& b) { return a < b; }

}  // namespace

// ---------------------------------------------------------------------------
// ANOMALY
// ---------------------------------------------------------------------------

Result<AnomalyReport> DetectAnomalies(const OnexBase& base,
                                      const AnomalyOptions& options) {
  if (!(options.eps >= 0.0) || !std::isfinite(options.eps)) {
    return Status::InvalidArgument("eps must be finite and >= 0");
  }
  if (options.min_pts < 1) {
    return Status::InvalidArgument("min_pts must be >= 1");
  }
  const double eps =
      options.eps > 0.0 ? options.eps : base.options().st / 2.0;
  if (options.length != 0) {
    ONEX_RETURN_IF_ERROR(base.FindLengthClass(options.length).status());
  }

  const Dataset& ds = base.dataset();
  const double drift_radius = DriftOutlierRadius(base.options().st);
  AnomalyReport report;
  std::vector<AnomalyFinding> all;
  for (const LengthClass& cls : base.length_classes()) {
    if (options.length != 0 && cls.length != options.length) continue;
    ONEX_RETURN_IF_ERROR(Poll(options.cancel));

    // Pairwise centroid distances turn the triangle inequality into an
    // O(1)-per-centroid prefilter: d(m, c_g) >= d(c_own, c_g) - d(m, c_own).
    // Cheaper than one member scan (G <= M), and the only filter that
    // saves arithmetic at short lengths, where the blocked EA kernel has
    // already paid for the full distance by its first abandon check.
    // Capped so a degenerate base (every member its own group) cannot
    // commit a quadratic table; the scan stays exact without it.
    const std::size_t n_groups = cls.groups.size();
    // This class's drift (ComputeDrift's count for it) falls out of the
    // own-centroid distance the scan computes anyway.
    LengthClassDrift drift;
    drift.length = cls.length;
    drift.members = cls.total_members;
    std::vector<double> cdist;
    if (n_groups >= 2 && n_groups <= (std::size_t{1} << 11)) {
      cdist.assign(n_groups * n_groups, 0.0);
      for (std::size_t i = 0; i < n_groups; ++i) {
        for (std::size_t j = i + 1; j < n_groups; ++j) {
          const double d =
              NormalizedEuclidean(cls.groups[i].centroid_span(),
                                  cls.groups[j].centroid_span());
          cdist[i * n_groups + j] = d;
          cdist[j * n_groups + i] = d;
        }
      }
    }

    for (std::size_t own = 0; own < cls.groups.size(); ++own) {
      for (const SubseqRef& ref : cls.groups[own].members()) {
        const std::span<const double> values = ref.Resolve(ds);
        // Own centroid first (almost always the nearest), exact.
        double score = NormalizedEuclidean(
            cls.groups[own].centroid_span(), values);
        ++report.distance_evals;
        const double d_own = score;
        if (d_own > drift_radius) ++drift.outliers;
        bool clustered = score <= eps && cls.groups[own].size() >=
                                             options.min_pts;
        for (std::size_t gi = 0; gi < cls.groups.size(); ++gi) {
          if (gi == own) continue;
          const SimilarityGroup& g = cls.groups[gi];
          // Skipping is safe only once this centroid can neither improve
          // the score nor flip the clustered flag; prove d >= both.
          const bool qual = !clustered && g.size() >= options.min_pts;
          const double cutoff = qual ? std::max(score, eps) : score;
          if (!cdist.empty()) {
            // Deflate the bound by the distances' own rounding slack so
            // a skip proves d strictly greater than the cutoff — exact
            // ties always fall through to the exact comparison.
            const double cc = cdist[own * n_groups + gi];
            const double lb = cc - d_own - 1e-9 * (cc + d_own) - 1e-12;
            if (lb > cutoff) {
              ++report.evals_abandoned;
              continue;
            }
          }
          const double d =
              FilteredDistance(g.centroid_span(), values, cutoff,
                               &report.distance_evals,
                               &report.evals_abandoned);
          if (d < score) score = d;
          if (d <= eps && g.size() >= options.min_pts) clustered = true;
        }
        AnomalyFinding f;
        f.ref = ref;
        f.score = score;
        f.outlier = !clustered;
        if (f.outlier) ++report.outliers;
        all.push_back(f);
        ++report.members_scanned;
      }
      ONEX_RETURN_IF_ERROR(Poll(options.cancel));
    }
    report.drift.push_back(drift);
  }

  std::sort(all.begin(), all.end(),
            [](const AnomalyFinding& a, const AnomalyFinding& b) {
              if (a.score != b.score) return a.score > b.score;
              return RefLess(a.ref, b.ref);
            });
  if (all.size() > options.top_k) all.resize(options.top_k);
  report.findings = std::move(all);
  return report;
}

// ---------------------------------------------------------------------------
// CHANGEPOINT
// ---------------------------------------------------------------------------

namespace {

/// One live run-length hypothesis: the Normal-Inverse-Gamma posterior for
/// the observations since its changepoint, plus its (normalized) weight.
struct RunHypothesis {
  std::size_t run = 0;
  double mu = 0.0;
  double kappa = 1.0;
  double alpha = 1.0;
  double beta = 1.0;
  double prob = 1.0;
};

/// Student-t predictive density of the NIG posterior at x.
double PredictiveDensity(const RunHypothesis& h, double x) {
  const double nu = 2.0 * h.alpha;
  const double s2 = h.beta * (h.kappa + 1.0) / (h.alpha * h.kappa);
  const double z = (x - h.mu) * (x - h.mu) / (nu * s2);
  const double log_pdf = std::lgamma((nu + 1.0) / 2.0) -
                         std::lgamma(nu / 2.0) -
                         0.5 * std::log(nu * std::numbers::pi * s2) -
                         (nu + 1.0) / 2.0 * std::log1p(z);
  return std::exp(log_pdf);
}

RunHypothesis Updated(const RunHypothesis& h, double x, double prob) {
  RunHypothesis n;
  n.run = h.run + 1;
  n.mu = (h.kappa * h.mu + x) / (h.kappa + 1.0);
  n.beta = h.beta + h.kappa * (x - h.mu) * (x - h.mu) / (2.0 * (h.kappa + 1.0));
  n.kappa = h.kappa + 1.0;
  n.alpha = h.alpha + 0.5;
  n.prob = prob;
  return n;
}

/// Conservative allowance for how truncation-dropped mass can be amplified
/// by later rescalings. The differential suite validates it across
/// seeded schedules; with nothing dropped the recursion is exact.
constexpr double kDropAmplification = 8.0;

}  // namespace

Result<ChangepointReport> DetectChangepoints(std::span<const double> values,
                                             const ChangepointOptions& options) {
  if (!(options.hazard > 0.0) || !(options.hazard < 1.0) ||
      !std::isfinite(options.hazard)) {
    return Status::InvalidArgument("hazard must be in (0, 1)");
  }
  if (options.max_run < 2) {
    return Status::InvalidArgument("max_run must be >= 2");
  }
  if (!(options.threshold >= 0.0) || options.threshold > 1.0 ||
      !std::isfinite(options.threshold)) {
    return Status::InvalidArgument("threshold must be in [0, 1]");
  }
  if (options.last > 0 && options.last < values.size()) {
    values = values.subspan(values.size() - options.last);
  }
  if (values.empty()) {
    return Status::InvalidArgument("changepoint needs at least one point");
  }

  const double h = options.hazard;
  ChangepointReport report;
  report.change_probability.reserve(values.size());
  std::vector<RunHypothesis> runs{RunHypothesis{}};
  std::vector<RunHypothesis> next;
  for (std::size_t t = 0; t < values.size(); ++t) {
    if ((t & 63u) == 0) ONEX_RETURN_IF_ERROR(Poll(options.cancel));
    const double x = values[t];

    next.clear();
    double cp_mass = 0.0;
    double total = 0.0;
    // Fresh changepoint hypothesis first, so runs stay sorted by run.
    next.push_back(RunHypothesis{});
    for (const RunHypothesis& r : runs) {
      const double pred = PredictiveDensity(r, x);
      const double joint = r.prob * pred;
      cp_mass += joint * h;
      next.push_back(Updated(r, x, joint * (1.0 - h)));
      total += joint;
    }
    next.front().prob = cp_mass;
    if (!(total > 0.0) || !std::isfinite(total)) {
      return Status::InvalidArgument(
          "changepoint recursion degenerated (non-finite input?)");
    }
    for (RunHypothesis& r : next) r.prob /= total;

    // Truncate to the max_run most probable hypotheses. Dropped mass is
    // accounted and converted into the report's error bound; the kept
    // hypotheses are rescaled so the recursion stays a distribution.
    if (next.size() > options.max_run) {
      std::sort(next.begin(), next.end(),
                [](const RunHypothesis& a, const RunHypothesis& b) {
                  if (a.prob != b.prob) return a.prob > b.prob;
                  return a.run < b.run;
                });
      double dropped = 0.0;
      for (std::size_t i = options.max_run; i < next.size(); ++i) {
        dropped += next[i].prob;
      }
      next.resize(options.max_run);
      report.mass_dropped += dropped;
      if (dropped < 1.0) {
        for (RunHypothesis& r : next) r.prob /= (1.0 - dropped);
      }
      std::sort(next.begin(), next.end(),
                [](const RunHypothesis& a, const RunHypothesis& b) {
                  return a.run < b.run;
                });
    }
    runs.swap(next);

    // P(run = 0 | x_1:t) is identically the hazard in this recursion —
    // the change and growth branches share every predictive factor, so
    // the fresh hypothesis carries no evidence about x_t. The step's
    // change signal is the ONE-step-old run: it dominates exactly when
    // the regime hypothesized to start at t scored its first point x_t
    // better than every older run's predictive did.
    double p_change = 0.0;
    if (t > 0) {
      for (const RunHypothesis& r : runs) {
        if (r.run == 1) p_change = r.prob;
      }
    }
    report.change_probability.push_back(p_change);
    if (p_change > options.threshold) {
      report.changepoints.push_back(ChangepointHit{t, p_change});
    }
  }

  const RunHypothesis* map = &runs.front();
  for (const RunHypothesis& r : runs) {
    if (r.prob > map->prob) map = &r;
  }
  report.map_run_length = map->run;
  report.evaluated = values.size();
  report.error_bound =
      std::min(1.0, kDropAmplification * report.mass_dropped);
  return report;
}

// ---------------------------------------------------------------------------
// MOTIF / DISCORD
// ---------------------------------------------------------------------------

namespace {

/// Everything the per-class motif/discord search reuses per member.
struct ClassIndex {
  std::vector<SubseqRef> refs;          ///< All members, group-major.
  std::vector<std::size_t> ref_group;   ///< Owning group per member.
  std::vector<double> radius;           ///< Exact per-group radius.
};

ClassIndex BuildClassIndex(const Dataset& ds, const LengthClass& cls) {
  ClassIndex idx;
  idx.refs.reserve(cls.total_members);
  idx.radius.reserve(cls.groups.size());
  for (std::size_t gi = 0; gi < cls.groups.size(); ++gi) {
    idx.radius.push_back(GroupRadius(ds, cls.groups[gi]));
    for (const SubseqRef& ref : cls.groups[gi].members()) {
      idx.refs.push_back(ref);
      idx.ref_group.push_back(gi);
    }
  }
  return idx;
}

/// Canonical pair ordering: the closest pair, ties broken by (a, b) with
/// a < b — the same rule the brute-force oracle applies, so accelerated
/// and naive searches pick identical winners even on exact ties.
struct PairBest {
  double distance = kInf;
  SubseqRef a, b;
  bool valid = false;

  void Offer(double d, SubseqRef x, SubseqRef y) {
    if (RefLess(y, x)) std::swap(x, y);
    if (!valid || d < distance ||
        (d == distance &&
         (RefLess(x, a) || (x == a && RefLess(y, b))))) {
      distance = d;
      a = x;
      b = y;
      valid = true;
    }
  }
};

}  // namespace

Result<MotifReport> FindMotifs(const OnexBase& base,
                               const MotifOptions& options) {
  if (options.length != 0) {
    ONEX_RETURN_IF_ERROR(base.FindLengthClass(options.length).status());
  }
  const Dataset& ds = base.dataset();
  MotifReport report;

  for (const LengthClass& cls : base.length_classes()) {
    if (options.length != 0 && cls.length != options.length) continue;
    ONEX_RETURN_IF_ERROR(Poll(options.cancel));

    MotifClassReport out;
    out.length = cls.length;
    const ClassIndex idx = BuildClassIndex(ds, cls);
    report.members_scanned += idx.refs.size();

    // Densest groups: population is the motif strength, radius the spread.
    std::vector<std::size_t> order(cls.groups.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                if (cls.groups[a].size() != cls.groups[b].size()) {
                  return cls.groups[a].size() > cls.groups[b].size();
                }
                return a < b;
              });
    for (std::size_t i = 0; i < order.size() && i < options.top_k; ++i) {
      MotifGroup g;
      g.group = order[i];
      g.count = cls.groups[order[i]].size();
      g.radius = idx.radius[order[i]];
      out.densest.push_back(g);
    }

    // Closest non-overlapping pair. Within-group pairs first (densest
    // groups first — members of one group are within ST of each other, so
    // the best pair almost always lives here), then cross-group pairs
    // under the admissible bound d(a,b) >= d(c_a,c_b) - r_a - r_b.
    PairBest best;
    for (std::size_t oi = 0; oi < order.size(); ++oi) {
      const SimilarityGroup& g = cls.groups[order[oi]];
      const auto members = g.members();
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = i + 1; j < members.size(); ++j) {
          if (members[i].Overlaps(members[j])) continue;
          const double d = FilteredDistance(
              members[i].Resolve(ds), members[j].Resolve(ds), best.distance,
              &report.pairs_evaluated, &report.pairs_pruned);
          if (std::isfinite(d)) best.Offer(d, members[i], members[j]);
        }
      }
      ONEX_RETURN_IF_ERROR(Poll(options.cancel));
    }
    for (std::size_t gi = 0; gi < cls.groups.size(); ++gi) {
      for (std::size_t hi = gi + 1; hi < cls.groups.size(); ++hi) {
        const double centroid_gap =
            NormalizedEuclidean(cls.groups[gi].centroid_span(),
                                cls.groups[hi].centroid_span());
        const double bound =
            centroid_gap - idx.radius[gi] - idx.radius[hi];
        if (best.valid && bound > best.distance) {
          report.pairs_pruned +=
              cls.groups[gi].size() * cls.groups[hi].size();
          continue;
        }
        for (const SubseqRef& a : cls.groups[gi].members()) {
          for (const SubseqRef& b : cls.groups[hi].members()) {
            if (a.Overlaps(b)) continue;
            const double d = FilteredDistance(
                a.Resolve(ds), b.Resolve(ds), best.distance,
                &report.pairs_evaluated, &report.pairs_pruned);
            if (std::isfinite(d)) best.Offer(d, a, b);
          }
        }
      }
      ONEX_RETURN_IF_ERROR(Poll(options.cancel));
    }
    if (best.valid) {
      out.motif_a = best.a;
      out.motif_b = best.b;
      out.motif_distance = best.distance;
      out.has_motif = true;
    }

    // Discords: exact nearest-neighbor distance per member, groups visited
    // in ascending lower-bound order d(m, c_g) - r_g so most are skipped.
    std::vector<Discord> lonely;
    std::vector<std::pair<double, std::size_t>> group_order(
        cls.groups.size());
    for (std::size_t mi = 0; mi < idx.refs.size(); ++mi) {
      const SubseqRef m = idx.refs[mi];
      const std::span<const double> mv = m.Resolve(ds);
      for (std::size_t gi = 0; gi < cls.groups.size(); ++gi) {
        const double to_centroid =
            NormalizedEuclidean(mv, cls.groups[gi].centroid_span());
        group_order[gi] = {to_centroid - idx.radius[gi], gi};
      }
      std::sort(group_order.begin(), group_order.end());
      double nn = kInf;
      for (const auto& [lb, gi] : group_order) {
        if (lb >= nn) break;  // Every later group is at least this far.
        for (const SubseqRef& other : cls.groups[gi].members()) {
          if (other.Overlaps(m)) continue;  // Trivial self-match.
          const double d = FilteredDistance(
              mv, other.Resolve(ds), nn, &report.pairs_evaluated,
              &report.pairs_pruned);
          if (d < nn) nn = d;
        }
      }
      if (std::isfinite(nn)) lonely.push_back(Discord{m, nn});
      if ((mi & 31u) == 0) ONEX_RETURN_IF_ERROR(Poll(options.cancel));
    }
    std::sort(lonely.begin(), lonely.end(),
              [](const Discord& a, const Discord& b) {
                if (a.distance != b.distance) return a.distance > b.distance;
                return RefLess(a.ref, b.ref);
              });
    if (lonely.size() > options.discords) lonely.resize(options.discords);
    out.discords = std::move(lonely);

    report.classes.push_back(std::move(out));
  }
  return report;
}

// ---------------------------------------------------------------------------
// FORECAST
// ---------------------------------------------------------------------------

Result<ForecastReport> ForecastSeries(const OnexBase& base,
                                      std::size_t series,
                                      const ForecastOptions& options) {
  const Dataset& ds = base.dataset();
  ONEX_RETURN_IF_ERROR(ds.CheckIndex(series));
  ONEX_RETURN_IF_ERROR(Poll(options.cancel));
  if (options.horizon < 1) {
    return Status::InvalidArgument("horizon must be >= 1");
  }
  if (options.k < 1) return Status::InvalidArgument("k must be >= 1");
  const std::size_t len = ds[series].length();

  // Resolve the tail/pattern length: the requested class, or the longest
  // class that fits the series. Seasonal-naive with an explicit period
  // never consults the group structure, so it skips the resolution.
  const bool seasonal = options.method == ForecastMethod::kSeasonalNaive;
  std::size_t tail_len = options.length;
  if (tail_len == 0 && seasonal && options.period != 0) {
    tail_len = std::min(options.period, len);
  } else if (tail_len == 0) {
    for (const LengthClass& cls : base.length_classes()) {
      if (cls.length <= len) tail_len = cls.length;
    }
    if (tail_len == 0) {
      return Status::FailedPrecondition(
          "no length class fits the series; pass length= or period=");
    }
  } else if (options.method == ForecastMethod::kGroupNn) {
    ONEX_RETURN_IF_ERROR(base.FindLengthClass(tail_len).status());
  }
  if (tail_len > len) {
    return Status::InvalidArgument("length exceeds the series");
  }

  ForecastReport report;
  report.method = options.method;
  report.series = series;
  report.tail_length = tail_len;

  if (options.method == ForecastMethod::kSeasonalNaive) {
    const std::size_t period = options.period != 0 ? options.period : tail_len;
    if (period < 1 || period > len) {
      return Status::InvalidArgument("period must be in [1, series length]");
    }
    report.period = period;
    report.tail_start = len - period;
    report.values.reserve(options.horizon);
    const std::span<const double> v = ds[series].values();
    for (std::size_t j = 0; j < options.horizon; ++j) {
      report.values.push_back(v[len - period + (j % period)]);
    }
    return report;
  }

  // kGroupNn: exact k nearest members with a full continuation, found by
  // visiting groups in ascending lower-bound order and abandoning members
  // against the current k-th best.
  ONEX_ASSIGN_OR_RETURN(const LengthClass* cls,
                        base.FindLengthClass(tail_len));
  const std::size_t tail_start = len - tail_len;
  report.tail_start = tail_start;
  const SubseqRef tail_ref{series, tail_start, tail_len};
  const std::span<const double> tail = tail_ref.Resolve(ds);

  // (distance, ref) ascending; canonical tie-break by ref so the neighbor
  // *set* — and therefore the averaged forecast — is deterministic and
  // identical to the oracle's.
  std::vector<std::pair<double, SubseqRef>> best;
  const auto canon_less = [](const std::pair<double, SubseqRef>& a,
                             const std::pair<double, SubseqRef>& b) {
    if (a.first != b.first) return a.first < b.first;
    return RefLess(a.second, b.second);
  };

  // Lower-bound every group off its precomputed member envelope (the
  // pointwise min/max band in the GroupStore): one O(length) evaluation
  // bounds the distance from the tail to EVERY member, with no member
  // scan. Ascending order makes the prune a break, not a skip.
  Envelope tail_env;
  tail_env.lower.assign(tail.begin(), tail.end());
  tail_env.upper = tail_env.lower;
  const double inv_sqrt_len = 1.0 / std::sqrt(static_cast<double>(tail_len));
  std::vector<std::pair<double, std::size_t>> group_order;
  group_order.reserve(cls->groups.size());
  for (std::size_t gi = 0; gi < cls->groups.size(); ++gi) {
    const double lb =
        LbKeoghGroup(tail_env, cls->groups[gi].envelope()) * inv_sqrt_len;
    group_order.push_back({lb, gi});
  }
  std::sort(group_order.begin(), group_order.end());

  std::size_t evals = 0;
  std::size_t abandoned = 0;
  for (std::size_t oi = 0; oi < group_order.size(); ++oi) {
    const auto& [lb, gi] = group_order[oi];
    // Deflate by the bound's own rounding slack so a prune proves every
    // member strictly beyond the k-th best; boundary ties fall through.
    if (best.size() == options.k &&
        lb * (1.0 - 1e-9) - 1e-12 > best.back().first) {
      report.groups_pruned += group_order.size() - oi;
      break;
    }
    for (const SubseqRef& m : cls->groups[gi].members()) {
      if (m.end() + options.horizon > ds[m.series].length()) continue;
      if (m.Overlaps(tail_ref)) continue;  // The tail itself / leakage.
      ++report.candidates;
      const double cutoff =
          best.size() == options.k ? best.back().first : kInf;
      const double d =
          FilteredDistance(tail, m.Resolve(ds), cutoff, &evals, &abandoned);
      if (!std::isfinite(d)) continue;
      const std::pair<double, SubseqRef> cand{d, m};
      if (best.size() < options.k || canon_less(cand, best.back())) {
        best.insert(
            std::lower_bound(best.begin(), best.end(), cand, canon_less),
            cand);
        if (best.size() > options.k) best.pop_back();
      }
    }
    ONEX_RETURN_IF_ERROR(Poll(options.cancel));
  }

  if (best.empty()) {
    return Status::FailedPrecondition(
        "no member has a full continuation for this horizon");
  }
  report.values.assign(options.horizon, 0.0);
  for (const auto& [d, m] : best) {
    report.neighbors.push_back(ForecastNeighbor{m, d});
    const std::span<const double> src = ds[m.series].values();
    for (std::size_t j = 0; j < options.horizon; ++j) {
      report.values[j] += src[m.end() + j];
    }
  }
  const double inv = 1.0 / static_cast<double>(best.size());
  for (double& v : report.values) v *= inv;
  return report;
}

}  // namespace onex
