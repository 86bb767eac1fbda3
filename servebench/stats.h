#ifndef ONEX_SERVEBENCH_STATS_H_
#define ONEX_SERVEBENCH_STATS_H_

/// The benchmark's own arithmetic, kept free of any ONEX dependency so the
/// self-test (selftest.cc) can check it in isolation:
///
///   - percentiles: nearest-rank, and the "tail" rule — the highest
///     percentile (capped at p99) that still has at least ten samples
///     beyond it, reported together with the sample count; a run's tail is
///     the median of the tails of equal slices of its window;
///   - spans: a layer's self time is its span minus its child spans;
///   - open-loop due times: event i of a fixed-rate stream is due at
///     offset + i / rate, its latency runs from when it was due (not when it was
///     sent), and whatever was due but unanswered at the end is the backlog.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

/// Nearest-rank percentile of an ascending-sorted sample: the ceil(p/100 *
/// n)-th smallest value (1-indexed). p in (0, 100]. NaN on an empty sample.
inline double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::nan("");
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// The highest percentile, in steps of 0.1 and at most `cap`, whose
/// nearest-rank position leaves at least ten samples beyond it. 0 when the
/// sample has ten or fewer values (no percentile qualifies).
inline double TailPercent(std::size_t n, double cap = 99.0) {
  if (n <= 10) return 0.0;
  for (int tenths = static_cast<int>(std::lround(cap * 10)); tenths > 0;
       --tenths) {
    const double p = tenths / 10.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (n - rank >= 10) return p;
  }
  return 0.0;
}

/// A timing as the benchmark reports it: median, tail and sample count.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< Which percentile `tail` is (see TailPercent).
};

inline Summary Summarize(std::vector<double> values, double cap = 99.0) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = NearestRank(values, 50.0);
  s.tail_pct = TailPercent(values.size(), cap);
  s.tail = s.tail_pct > 0 ? NearestRank(values, s.tail_pct) : values.back();
  return s;
}

/// Median of a small sample (the mean of the middle two for an even count).
inline double Median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// A sample keyed by when its request was due (seconds into the window).
struct TimedSample {
  double due = 0.0;
  double value = 0.0;
};

/// Splits [0, window) into `parts` equal slices by due time and summarizes
/// each slice on its own (samples due outside the window are dropped).
inline std::vector<Summary> SliceSummaries(const std::vector<TimedSample>& s,
                                           double window, int parts,
                                           double cap = 99.0) {
  std::vector<std::vector<double>> slices(static_cast<std::size_t>(parts));
  for (const TimedSample& x : s) {
    if (x.due < 0 || x.due >= window) continue;
    const auto i = static_cast<std::size_t>(x.due / window * parts);
    slices[std::min(i, slices.size() - 1)].push_back(x.value);
  }
  std::vector<Summary> out;
  for (std::vector<double>& v : slices) out.push_back(Summarize(std::move(v), cap));
  return out;
}

/// The tail a run reports: the median, over the window's slices, of each
/// slice's tail. A burst of interference confined to one slice (a noisy
/// neighbour, a hypervisor steal spike) moves one slice, not the result.
inline double MedianSliceTail(const std::vector<Summary>& slices) {
  std::vector<double> tails;
  for (const Summary& s : slices) {
    if (s.n > 0) tails.push_back(s.tail);
  }
  return Median(std::move(tails));
}

/// The median a run reports: the median of the slices' medians.
inline double MedianSliceP50(const std::vector<Summary>& slices) {
  std::vector<double> p50s;
  for (const Summary& s : slices) {
    if (s.n > 0) p50s.push_back(s.p50);
  }
  return Median(std::move(p50s));
}

/// One traced interval. `parent` indexes the enclosing span in the same
/// trace (-1 for a root); spans of one request share `request`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span recorder, one per thread (no locking); summarized when
/// the run ends.
class Trace {
 public:
  /// Records a measured interval; returns its index for children's `parent`.
  int Add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Union length of [start, end) intervals, in ns.
inline std::int64_t CoveredNs(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0, cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) covered += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) covered += cur_end - cur_start;
  return covered;
}

/// Self time of every span, in ms: its duration minus the part of its
/// interval that its direct children cover (children clipped to the
/// parent's interval, overlaps between children counted once).
inline std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    kids[static_cast<std::size_t>(s.parent)].emplace_back(
        std::max(s.start_ns, p.start_ns), std::min(s.end_ns, p.end_ns));
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t self =
        (spans[i].end_ns - spans[i].start_ns) - CoveredNs(std::move(kids[i]));
    out[i] = static_cast<double>(self) / 1e6;
  }
  return out;
}

/// Self times grouped by span name.
inline std::map<std::string, std::vector<double>> SelfTimesByName(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesMs(spans);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name].push_back(self[i]);
  }
  return out;
}

/// Fixed-rate arrival schedule: event i is due at offset + i / rate seconds
/// after the start of the measured window.
struct OpenLoop {
  double rate = 1.0;    ///< Events per second.
  double offset = 0.0;  ///< Due time of event 0 (staggers parallel streams).

  double Due(std::size_t i) const {
    return offset + static_cast<double>(i) / rate;
  }
  /// Events due strictly before `t`: the count a punctual generator has
  /// issued by then.
  std::size_t DueBefore(double t) const {
    if (t <= offset) return 0;
    return static_cast<std::size_t>(std::ceil((t - offset) * rate - 1e-9));
  }
};

/// One request's fate, times in seconds from the window start. `done` < 0
/// means it never completed.
struct RequestTimes {
  double due = 0.0;
  double sent = 0.0;
  double done = -1.0;

  bool completed() const { return done >= 0.0; }
  /// Latency charged to the system: from when the request was due, so a
  /// stall that delays later sends is counted against every request behind
  /// it.
  double latency() const { return done - due; }
  /// How late the generator itself was in sending it.
  double lateness() const { return sent - due; }
};

/// Requests due before `t` that had not completed by `t`.
inline std::size_t BacklogAt(const std::vector<RequestTimes>& reqs, double t) {
  std::size_t n = 0;
  for (const RequestTimes& r : reqs) {
    if (r.due < t && (!r.completed() || r.done > t)) ++n;
  }
  return n;
}

}  // namespace servebench

#endif  // ONEX_SERVEBENCH_STATS_H_
