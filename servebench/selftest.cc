/// Self-test of the benchmark's arithmetic (stats.h): the percentile rule,
/// span self time, and open-loop due-time accounting. Exits non-zero on the
/// first failed expectation; run.py runs it after every build.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest: FAILED line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int lo, int hi) {
  std::vector<double> v;
  for (int i = lo; i <= hi; ++i) v.push_back(i);
  return v;
}

void TestNearestRank() {
  using servebench::NearestRank;
  const std::vector<double> ten = Range(1, 10);
  EXPECT(Near(NearestRank(ten, 50), 5));
  EXPECT(Near(NearestRank(ten, 90), 9));
  EXPECT(Near(NearestRank(ten, 91), 10));  // ceil(9.1) = 10th value
  EXPECT(Near(NearestRank(ten, 100), 10));
  EXPECT(Near(NearestRank(ten, 10), 1));
  EXPECT(Near(NearestRank(Range(1, 4), 50), 2));
  EXPECT(Near(NearestRank({7.0}, 99), 7));
  EXPECT(std::isnan(NearestRank({}, 50)));
}

void TestTailRule() {
  using servebench::TailPercent;
  EXPECT(Near(TailPercent(1000), 99.0));  // rank 990, ten beyond
  EXPECT(Near(TailPercent(5000), 99.0));  // capped at p99
  EXPECT(Near(TailPercent(100), 90.0));   // rank 90, ten beyond
  EXPECT(Near(TailPercent(500), 98.0));
  EXPECT(Near(TailPercent(999), 98.9));   // p99 would leave only 9 beyond
  EXPECT(Near(TailPercent(11), 9.0));
  EXPECT(Near(TailPercent(10), 0.0));  // nothing qualifies
  EXPECT(Near(TailPercent(0), 0.0));

  const servebench::Summary s = servebench::Summarize(Range(1, 1000));
  EXPECT(s.n == 1000);
  EXPECT(Near(s.p50, 500));
  EXPECT(Near(s.tail_pct, 99.0));
  EXPECT(Near(s.tail, 990));
  // Order of the input does not matter.
  std::vector<double> rev = Range(1, 100);
  std::reverse(rev.begin(), rev.end());
  const servebench::Summary r = servebench::Summarize(rev);
  EXPECT(Near(r.p50, 50) && Near(r.tail_pct, 90) && Near(r.tail, 90));
}

void TestSlices() {
  using servebench::TimedSample;
  EXPECT(Near(servebench::Median({3, 1, 2}), 2));
  EXPECT(Near(servebench::Median({4, 1, 3, 2}), 2.5));
  // Four one-second slices of 100 samples each, latency 1..100; slice 2
  // additionally suffers a burst of slow requests.
  std::vector<TimedSample> samples;
  for (int slice = 0; slice < 4; ++slice) {
    for (int i = 1; i <= 100; ++i) {
      const double slow = (slice == 2 && i > 50) ? 1000.0 : 0.0;
      samples.push_back({slice + i / 101.0, i + slow});
    }
  }
  samples.push_back({4.5, 1e9});  // due after the window: dropped
  const auto slices = servebench::SliceSummaries(samples, 4.0, 4);
  EXPECT(slices.size() == 4);
  EXPECT(slices[0].n == 100 && Near(slices[0].tail_pct, 90) &&
         Near(slices[0].tail, 90));
  EXPECT(Near(slices[2].tail, 1090));
  // The burst moves one slice's tail, not the median of the four.
  EXPECT(Near(servebench::MedianSliceTail(slices), 90));
  EXPECT(Near(servebench::MedianSliceP50(slices), 50));  // slice 2: 51
  // The whole-run tail over the same samples would be the burst.
  std::vector<double> all;
  for (const TimedSample& x : samples) {
    if (x.due < 4.0) all.push_back(x.value);
  }
  EXPECT(servebench::Summarize(all).tail > 1000);
}

void TestSelfTime() {
  using servebench::Span;
  // parent [0,100] with children [10,30], [20,50] (overlapping) and
  // [90,120] (clipped to the parent): covered = 40 + 10, self = 50.
  std::vector<Span> spans = {
      {"protocol.execute", 0, 100, -1, 1},
      {"engine.search", 10, 30, 0, 1},
      {"engine.get", 20, 50, 0, 1},
      {"engine.other", 90, 120, 0, 1},
      {"core.query", 12, 28, 1, 1},  // grandchild: only its parent shrinks
  };
  const std::vector<double> self = servebench::SelfTimesMs(spans);
  EXPECT(Near(self[0], 50e-6));
  EXPECT(Near(self[1], 4e-6));   // 20 - 16
  EXPECT(Near(self[2], 30e-6));
  EXPECT(Near(self[3], 30e-6));
  EXPECT(Near(self[4], 16e-6));
  // Self times add back up to the root's duration when children nest.
  std::vector<Span> nested = {
      {"a", 0, 1000, -1, 7}, {"b", 0, 600, 0, 7}, {"c", 0, 250, 1, 7}};
  const std::vector<double> ns = servebench::SelfTimesMs(nested);
  EXPECT(Near(ns[0] + ns[1] + ns[2], nested[0].ms()));
  const auto by_name = servebench::SelfTimesByName(nested);
  EXPECT(by_name.at("b").size() == 1 && Near(by_name.at("b")[0], 350e-6));

  servebench::Trace trace;
  const int root = trace.Add({"net.request", 100, 200, -1, 3});
  EXPECT(trace.Add({"net.encode", 110, 130, root, 3}) == 1);
  const std::vector<double> ts = servebench::SelfTimesMs(trace.spans());
  EXPECT(Near(ts[0], 80e-6) && Near(ts[1], 20e-6));
}

void TestOpenLoop() {
  const servebench::OpenLoop loop{100.0};
  EXPECT(Near(loop.Due(0), 0.0));
  EXPECT(Near(loop.Due(150), 1.5));
  EXPECT(loop.DueBefore(0.0) == 0);
  EXPECT(loop.DueBefore(1.0) == 100);  // event 100 is due at 1.0, not before
  EXPECT(loop.DueBefore(1.005) == 101);
  const servebench::OpenLoop staggered{20.0, 0.02};
  EXPECT(Near(staggered.Due(2), 0.12));
  EXPECT(staggered.DueBefore(0.02) == 0);
  EXPECT(staggered.DueBefore(0.021) == 1);
  EXPECT(staggered.DueBefore(10.0) == 200);  // due at 0.02, ..., 9.97

  // A request sent late is charged from its due time.
  const servebench::RequestTimes late{1.0, 1.2, 1.25};
  EXPECT(Near(late.latency(), 0.25));
  EXPECT(Near(late.lateness(), 0.2));

  const std::vector<servebench::RequestTimes> reqs = {
      {0.0, 0.0, 0.1}, {0.5, 0.5, 2.5}, {1.0, 1.0, -1.0}, {3.0, 3.0, 3.1}};
  EXPECT(servebench::BacklogAt(reqs, 2.0) == 2);  // #1 in flight, #2 lost
  EXPECT(servebench::BacklogAt(reqs, 4.0) == 1);  // only the lost one
}

}  // namespace

int main() {
  TestNearestRank();
  TestTailRule();
  TestSlices();
  TestSelfTime();
  TestOpenLoop();
  if (failures != 0) return 1;
  std::printf("selftest: all checks passed\n");
  return 0;
}
