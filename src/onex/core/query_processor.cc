#include "onex/core/query_processor.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "onex/common/string_utils.h"
#include "onex/distance/envelope.h"
#include "onex/distance/kernels.h"

namespace onex {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double NormFactor(std::size_t n, std::size_t m) {
  return std::sqrt(static_cast<double>(std::max(n, m)));
}

/// Adds one stage's counters to the caller's stats; dtw_evals is derived
/// from the two DTW counts.
void FlushInto(const QueryStats& acc, QueryStats* stats) {
  if (stats == nullptr) return;
  stats->groups_pruned_lb += acc.groups_pruned_lb;
  stats->rep_dtw_evaluations += acc.rep_dtw_evaluations;
  stats->member_dtw_evaluations += acc.member_dtw_evaluations;
  stats->members_pruned_lb += acc.members_pruned_lb;
  stats->pruned_kim += acc.pruned_kim;
  stats->pruned_keogh += acc.pruned_keogh;
  stats->dtw_evals += acc.rep_dtw_evaluations + acc.member_dtw_evaluations;
}

/// Squared cost of the stretched-diagonal warping path: step t of
/// L = max(n, m) aligns a[t(n-1)/(L-1)] with b[t(m-1)/(L-1)]. Each step
/// advances the longer side by one and the shorter by zero or one, and the
/// path never leaves the |n - m| band every effective window admits, so the
/// cost bounds the squared DTW from above at O(L). Equal lengths reduce to
/// the lock-step (squared Euclidean) path.
double DiagonalPathCostSq(std::span<const double> a,
                          std::span<const double> b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == m) {
    return ActiveKernel().squared_euclidean(a.data(), b.data(), n);
  }
  // Walk the longer side one point per step; the shorter side's index
  // floor(t(s-1)/(L-1)) advances Bresenham-style, without a division.
  const std::span<const double> lng = n > m ? a : b;
  const std::span<const double> sht = n > m ? b : a;
  const std::size_t run = lng.size() - 1;
  const std::size_t rise = sht.size() - 1;
  double acc = 0.0;
  std::size_t j = 0;
  std::size_t err = 0;
  for (std::size_t t = 0; t < lng.size(); ++t) {
    const double d = lng[t] - sht[j];
    acc += d * d;
    err += rise;
    if (err >= run) {
      err -= run;
      ++j;
    }
  }
  return acc;
}

}  // namespace

std::vector<QueryProcessor::RankedGroup> QueryProcessor::RankGroups(
    std::span<const double> query, const Envelope& query_env, std::size_t keep,
    const QueryOptions& options, QueryStats* stats) const {
  const std::size_t qn = query.size();
  // Admissible (class, group) pairs, in deterministic class-major order.
  // The columnar store makes the per-class portion of this scan a linear
  // walk over one centroid matrix.
  struct Entry {
    std::size_t class_index;
    std::size_t group_index;
    double nf;
    bool same_length;
  };
  std::vector<Entry> entries;
  for (std::size_t ci = 0; ci < base_->length_classes().size(); ++ci) {
    const LengthClass& cls = base_->length_classes()[ci];
    if (options.min_length != 0 && cls.length < options.min_length) continue;
    if (options.max_length != 0 && cls.length > options.max_length) continue;
    const double nf = NormFactor(qn, cls.length);
    for (std::size_t gi = 0; gi < cls.store->num_groups(); ++gi) {
      entries.push_back({ci, gi, nf, cls.length == qn});
    }
  }
  if (stats != nullptr) stats->groups_total += entries.size();
  std::vector<RankedGroup> ranked(entries.size());
  if (entries.empty()) return ranked;

  QueryStats acc;
  auto centroid_of = [&](const Entry& e) {
    return base_->length_classes()[e.class_index].store->centroid(
        e.group_index);
  };

  // Stage 1: admissible lower bounds for every group. Three bounds per
  // same-length group, cheapest first: LB_Kim (endpoints only), forward
  // LB_Keogh (query envelope vs centroid), and reversed LB_Keogh against
  // the centroid envelope the GroupStore precomputed at Pack time. Bounds
  // are computed in full (no abandoning) because the values double as rank
  // keys for pruned groups; LB_Kim is kept separately so stage 3 can
  // attribute each prune to the stage that achieved it.
  std::vector<double> lb_raw(entries.size(), 0.0);
  std::vector<double> lb_kim_raw(entries.size(), 0.0);
  if (options.use_lower_bounds) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const Entry& e = entries[i];
      const std::span<const double> cent = centroid_of(e);
      const double kim = LbKim(query, cent);
      double lb = kim;
      if (e.same_length) {
        lb = std::max(lb, LbKeogh(query_env, cent));
        // The centroid envelope is unconstrained, so admissible for every
        // query window.
        const GroupStore& store =
            *base_->length_classes()[e.class_index].store;
        lb = std::max(lb,
                      LbKeogh(store.centroid_envelope(e.group_index), query));
      }
      lb_kim_raw[i] = kim;
      lb_raw[i] = lb;
    }
  }

  // Groups are visited best-first: ascending normalized lower bound, lowest
  // index on ties, popped from a heap built in O(G).
  std::vector<double> lb_norm(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    lb_norm[i] = lb_raw[i] / entries[i].nf;
  }
  std::vector<std::size_t> order(entries.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  auto visited_later = [&](std::size_t a, std::size_t b) {
    return lb_norm[a] != lb_norm[b] ? lb_norm[a] > lb_norm[b] : a > b;
  };
  std::make_heap(order.begin(), order.end(), visited_later);
  auto next_group = [&]() {
    std::pop_heap(order.begin(), order.end(), visited_later);
    const std::size_t i = order.back();
    order.pop_back();
    return i;
  };

  // Stage 2: seed the pruning horizon with the exact representative DTW of
  // the most promising group, the first one visited.
  const std::size_t seed = next_group();
  ++acc.rep_dtw_evaluations;
  const double seed_raw = DtwDistanceEarlyAbandon(
      query, centroid_of(entries[seed]), /*cutoff=*/-1.0, options.window);
  double horizon = seed_raw / entries[seed].nf;
  ranked[seed] = {horizon, seed_raw, entries[seed].class_index,
                  entries[seed].group_index, /*exact=*/true, /*pruned=*/false};

  // The `keep` smallest exact keys so far, as a max-heap. Once it is full
  // its top, the keep-th smallest, tightens the horizon (DESIGN.md §6): no
  // group above it can reach the first `keep` places.
  std::vector<double> kept{horizon};
  bool tightened = false;

  // Stage 3: score the other groups in visiting order. Against the seed's
  // horizon a bound at the horizon prunes, as it always has; against a
  // tightened one every prune and abandon must prove its group strictly
  // worse (StrictCutoffSq), so a group tied with the keep-th key stays
  // exact and keeps its tie-break.
  while (!order.empty()) {
    const double bar =
        tightened ? std::sqrt(StrictCutoffSq(horizon * horizon)) : horizon;
    auto beyond = [&](double bound) {
      return tightened ? bound > bar : bound >= bar;
    };
    const std::size_t i = next_group();
    if (options.use_lower_bounds && beyond(lb_norm[i])) {
      // Every group left bounds at least as high: all are pruned, ranked
      // by their lower bound so top-K exploration can come back to them.
      order.push_back(i);
      for (const std::size_t j : order) {
        const Entry& e = entries[j];
        ++acc.groups_pruned_lb;
        if (beyond(lb_kim_raw[j] / e.nf)) {
          ++acc.pruned_kim;
        } else {
          ++acc.pruned_keogh;
        }
        ranked[j] = {lb_norm[j], lb_raw[j], e.class_index, e.group_index,
                     /*exact=*/false, /*pruned=*/true};
      }
      break;
    }
    const Entry& e = entries[i];
    const double cutoff = options.use_early_abandon ? bar * e.nf : -1.0;
    const std::span<const double> cent = centroid_of(e);
    const GroupStore& store = *base_->length_classes()[e.class_index].store;
    if (options.use_lower_bounds && options.use_early_abandon) {
      // Row-prefix bound at any length (DESIGN.md §7.7), against the
      // centroid's [min, max] — any column of its unconstrained envelope.
      // It floors every cell of the DP's last row, so above the strict
      // cutoff the early-abandoning DP below is certain to return +inf:
      // skip it and write exactly the abandoned entry it would produce.
      const EnvelopeView cent_env = store.centroid_envelope(e.group_index);
      if (LbRowPrefixSq(query, cent, cent_env.lower[0], cent_env.upper[0]) >
          StrictCutoffSq(cutoff * cutoff)) {
        ++acc.groups_pruned_lb;
        ++acc.pruned_keogh;
        ranked[i] = {horizon, cutoff, e.class_index, e.group_index,
                     /*exact=*/false, /*pruned=*/true};
        continue;
      }
    }
    ++acc.rep_dtw_evaluations;
    const double raw =
        DtwDistanceEarlyAbandon(query, cent, cutoff, options.window);
    if (std::isinf(raw)) {
      // Abandoned: true distance exceeds the horizon; rank with that floor.
      ranked[i] = {horizon, cutoff, e.class_index, e.group_index,
                   /*exact=*/false, /*pruned=*/false};
      continue;
    }
    const double norm = raw / e.nf;
    ranked[i] = {norm, raw, e.class_index, e.group_index, /*exact=*/true,
                 /*pruned=*/false};
    if (kept.size() < keep) {
      kept.push_back(norm);
      std::push_heap(kept.begin(), kept.end());
    } else if (norm < kept.front()) {
      std::pop_heap(kept.begin(), kept.end());
      kept.back() = norm;
      std::push_heap(kept.begin(), kept.end());
    }
    if (kept.size() == keep && kept.front() < horizon) {
      horizon = kept.front();
      tightened = true;
    }
  }
  FlushInto(acc, stats);

  // Only the first `keep` places are ever refined, so only they are sorted.
  const std::size_t head = std::min(keep, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + head, ranked.end(),
                    [](const RankedGroup& a, const RankedGroup& b) {
                      if (a.normalized_rep_dtw != b.normalized_rep_dtw) {
                        return a.normalized_rep_dtw < b.normalized_rep_dtw;
                      }
                      if (a.exact != b.exact) return a.exact;  // exact wins
                      if (a.class_index != b.class_index) {
                        return a.class_index < b.class_index;
                      }
                      return a.group_index < b.group_index;
                    });
  ranked.resize(head);
  return ranked;
}

Result<BestMatch> QueryProcessor::BestMatchQuery(std::span<const double> query,
                                                 const QueryOptions& options,
                                                 QueryStats* stats) const {
  ONEX_ASSIGN_OR_RETURN(std::vector<BestMatch> top,
                        KnnQuery(query, 1, options, stats));
  if (top.empty()) {
    return Status::NotFound("no admissible groups for this query");
  }
  return std::move(top.front());
}

Result<std::vector<BestMatch>> QueryProcessor::KnnQuery(
    std::span<const double> query, std::size_t k, const QueryOptions& options,
    QueryStats* stats) const {
  if (query.size() < 2) {
    return Status::InvalidArgument(
        StrFormat("query must have >= 2 points, got %zu", query.size()));
  }
  if (k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  // Cascade stage boundary 1: before ranking. Catches requests that were
  // already over deadline when they came off the pipeline queue.
  if (options.cancel != nullptr) {
    ONEX_RETURN_IF_ERROR(options.cancel->Check());
  }
  const std::size_t qn = query.size();
  // Keogh envelope of the query, shared by ranking and refinement for every
  // same-length candidate. Its band must match the query window to stay
  // admissible.
  const Envelope query_env = ComputeKeoghEnvelope(
      query, options.window < 0 ? -1
                                : EffectiveWindow(qn, qn, options.window));
  // The query's [min, max]: the full-band envelope the cross-length member
  // bound measures candidate points against, whatever the window.
  const auto [q_min, q_max] = std::minmax_element(query.begin(), query.end());
  // How many groups must be refined: at least explore_top_groups (>=1 for
  // best-match, >=k for knn so k answers can come from k distinct groups),
  // and with options.exhaustive every group whose representative is close
  // enough that it could still hold a better member — so ranking keeps all.
  const std::size_t must_explore = std::max(
      std::max<std::size_t>(1, options.explore_top_groups), k);
  const std::vector<RankedGroup> ranked = RankGroups(
      query, query_env,
      options.exhaustive ? std::numeric_limits<std::size_t>::max()
                         : must_explore,
      options, stats);
  if (ranked.empty()) {
    return Status::NotFound(
        "no groups to search (length restrictions exclude every class)");
  }
  // Stage boundary 2: between ranking and refinement.
  if (options.cancel != nullptr) {
    ONEX_RETURN_IF_ERROR(options.cancel->Check());
  }

  const Dataset& ds = base_->dataset();
  const double st = base_->options().st;

  // Candidate answers, kept sorted ascending by normalized DTW; the k-th
  // value is the pruning horizon.
  std::vector<BestMatch> best;
  auto worst_kth = [&]() {
    return best.size() < k ? kInf : best.back().normalized_dtw;
  };

  QueryStats acc;
  // Per-member scratch, reused across groups: seed flags and the seeds'
  // exact DTWs, diagonal-path costs, seed indices, and the candidate values
  // for the seeded horizon.
  std::vector<char> is_seed;
  std::vector<double> seed_dist;
  std::vector<double> diag;
  std::vector<std::size_t> seeds;
  std::vector<double> kth;
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    const RankedGroup& rg = ranked[r];
    if (r >= must_explore && rg.normalized_rep_dtw > worst_kth() + st) {
      break;  // only exhaustive ranking returns more than must_explore
    }
    // Stage boundary 3: between refined groups — the granularity that bounds
    // how stale a doomed query can run.
    if (options.cancel != nullptr) {
      ONEX_RETURN_IF_ERROR(options.cancel->Check());
    }

    const LengthClass& cls = base_->length_classes()[rg.class_index];
    const GroupStore& store = *cls.store;
    const double nf = NormFactor(qn, cls.length);

    // Group-envelope bound: no member can beat the current k-th answer.
    // A group ranking already pruned is skipped without a second count, so
    // groups_pruned_lb never exceeds groups_total.
    if (options.use_lower_bounds && cls.length == qn && best.size() >= k) {
      const double glb =
          LbKeoghGroup(query_env, store.envelope(rg.group_index)) / nf;
      if (glb >= worst_kth()) {
        if (!rg.pruned) {
          ++acc.groups_pruned_lb;
          ++acc.pruned_keogh;
        }
        continue;
      }
    }

    // Refine this group in one pass in member order. The prune/abandon
    // horizon is set when the group is entered and tightens to the k-th
    // answer as members merge into a full top-k below (DESIGN.md §6).
    const MemberView members = store.members(rg.group_index);
    is_seed.assign(members.size(), 0);
    double horizon = worst_kth();
    if (best.size() < k) {
      // Seeded horizon: with fewer than k answers there is no k-th distance
      // to prune against, and every member would run a full, unabandoned
      // DTW. Instead take the exact DTW of the min(k, size) members whose
      // diagonal path is cheapest (likely near the optimum), and scan the
      // rest against the k-th smallest of the answers so far and those
      // seeds. Only the choice of seeds depends on the diagonal cost.
      const std::size_t num_seeds = std::min(k, members.size());
      seeds.resize(members.size());
      std::iota(seeds.begin(), seeds.end(), std::size_t{0});
      if (num_seeds < members.size()) {
        diag.resize(members.size());
        for (std::size_t i = 0; i < members.size(); ++i) {
          diag[i] = DiagonalPathCostSq(query, members[i].Resolve(ds));
        }
        std::nth_element(seeds.begin(), seeds.begin() + (num_seeds - 1),
                         seeds.end(), [&](std::size_t a, std::size_t b) {
                           return diag[a] != diag[b] ? diag[a] < diag[b]
                                                     : a < b;
                         });
      }
      seeds.resize(num_seeds);
      acc.member_dtw_evaluations += num_seeds;
      seed_dist.resize(members.size());
      kth.clear();
      for (const BestMatch& m : best) kth.push_back(m.normalized_dtw);
      for (const std::size_t i : seeds) {
        is_seed[i] = 1;
        seed_dist[i] = DtwDistanceEarlyAbandon(query, members[i].Resolve(ds),
                                               /*cutoff=*/-1.0, options.window);
        kth.push_back(seed_dist[i] / nf);
      }
      if (kth.size() >= k) {
        std::nth_element(kth.begin(), kth.begin() + (k - 1), kth.end());
        horizon = kth[k - 1];
      }
    }

    // Every prune and abandon below must prove its member strictly worse
    // than the horizon (StrictCutoffSq): a member tied with it — an earlier
    // answer, or a seed later in this group — still reaches the merge, so
    // the answers and tie-breaks are those of a full scan.
    double cutoff_sq = 0.0;
    double cutoff = 0.0;
    double abandon_at = 0.0;
    auto set_horizon = [&](double h) {
      horizon = h;
      cutoff_sq = StrictCutoffSq((horizon * nf) * (horizon * nf));
      cutoff = std::sqrt(cutoff_sq);
      abandon_at = options.use_early_abandon ? cutoff : -1.0;
    };
    set_horizon(horizon);
    for (std::size_t i = 0; i < members.size(); ++i) {
      double raw;
      if (is_seed[i]) {
        raw = seed_dist[i];
      } else {
        const std::span<const double> vals = members[i].Resolve(ds);
        if (options.use_lower_bounds) {
          // LB_Kim → LB_Keogh → corner-range cascade: each stage runs only
          // when the previous one failed to prune, and LB_Keogh abandons
          // once it proves the member can't beat the horizon. The
          // corner-range bound holds at every length (DESIGN.md §7.7) and
          // runs both ways, since DTW is symmetric: the member's interior
          // against the query's range, then the query's interior against
          // the member's range (the strong side when the member is the
          // shorter one).
          if (LbKim(query, vals) > cutoff) {
            ++acc.members_pruned_lb;
            ++acc.pruned_kim;
            continue;
          }
          const auto [v_min, v_max] =
              std::minmax_element(vals.begin(), vals.end());
          if ((cls.length == qn &&
               LbKeogh(query_env, vals, abandon_at) > cutoff) ||
              LbCornerRangeSq(query, *q_min, *q_max, vals) > cutoff_sq ||
              LbCornerRangeSq(vals, *v_min, *v_max, query) > cutoff_sq) {
            ++acc.members_pruned_lb;
            ++acc.pruned_keogh;
            continue;
          }
        }
        ++acc.member_dtw_evaluations;
        raw = DtwDistanceEarlyAbandon(query, vals, abandon_at, options.window);
      }
      if (std::isinf(raw)) continue;
      const double norm = raw / nf;
      if (best.size() >= k && norm >= worst_kth()) continue;

      BestMatch m;
      m.ref = members[i];
      m.length = cls.length;
      m.group_index = rg.group_index;
      m.dtw = raw;
      m.normalized_dtw = norm;
      m.rep_dtw = rg.raw_rep_dtw;
      m.normalized_rep_dtw = rg.normalized_rep_dtw;
      best.insert(std::upper_bound(best.begin(), best.end(), m,
                                   [](const BestMatch& a, const BestMatch& b) {
                                     return a.normalized_dtw <
                                            b.normalized_dtw;
                                   }),
                  std::move(m));
      if (best.size() > k) best.pop_back();
      if (best.size() == k && worst_kth() < horizon) set_horizon(worst_kth());
    }
  }
  FlushInto(acc, stats);

  if (best.empty()) {
    return Status::NotFound("no match found (base has no members)");
  }
  // Stage boundary 4: before the (full, unabandoned) alignment DPs.
  if (options.cancel != nullptr) {
    ONEX_RETURN_IF_ERROR(options.cancel->Check());
  }
  if (options.compute_path) {
    for (BestMatch& m : best) {
      m.path = DtwWithPath(query, m.ref.Resolve(ds), options.window).path;
    }
  }
  return best;
}

}  // namespace onex
