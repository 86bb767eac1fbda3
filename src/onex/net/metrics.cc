#include "onex/net/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

namespace onex::net {

ServerMetrics::ServerMetrics() : start_(std::chrono::steady_clock::now()) {}

std::size_t ServerMetrics::HistBucket(double latency_ms) {
  const double us = latency_ms * 1000.0;
  if (!(us > 1.0)) return 0;
  const double idx = 4.0 * std::log2(us);
  if (idx >= static_cast<double>(kHistBuckets - 1)) return kHistBuckets - 1;
  return static_cast<std::size_t>(idx);
}

double ServerMetrics::BucketMidMs(std::size_t bucket) {
  // Geometric midpoint of [2^(b/4), 2^((b+1)/4)] microseconds.
  const double us = std::exp2((static_cast<double>(bucket) + 0.5) / 4.0);
  return us / 1000.0;
}

std::int64_t ServerMetrics::UptimeSeconds() const {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void ServerMetrics::RecordRequest(std::size_t verb_slot, double latency_ms,
                                  bool deadline_expired) {
  VerbStats& vs = verbs_[std::min(verb_slot, kNumVerbs)];
  vs.count.fetch_add(1, kRelaxed);
  vs.hist[HistBucket(latency_ms)].fetch_add(1, kRelaxed);
  requests_.fetch_add(1, kRelaxed);
  if (deadline_expired) deadline_expired_.fetch_add(1, kRelaxed);

  // Rolling qps ring: claim the slot for the current second, then count.
  // The claim races benignly — a lost update near a second boundary skews
  // one slot by a handful of requests, which is noise at qps scale.
  const std::int64_t sec = UptimeSeconds();
  QpsSlot& slot = qps_[static_cast<std::size_t>(sec) % kQpsSlots];
  std::int64_t cur = slot.second.load(kRelaxed);
  if (cur != sec && slot.second.compare_exchange_strong(cur, sec, kRelaxed)) {
    slot.count.store(0, kRelaxed);
  }
  slot.count.fetch_add(1, kRelaxed);
}

void ServerMetrics::ConnectionOpened() {
  connections_total_.fetch_add(1, kRelaxed);
  const std::uint64_t live = connections_live_.fetch_add(1, kRelaxed) + 1;
  std::uint64_t peak = connections_peak_.load(kRelaxed);
  while (live > peak &&
         !connections_peak_.compare_exchange_weak(peak, live, kRelaxed)) {
  }
}

json::Value ServerMetrics::ToJson() const {
  json::Value v = json::Value::MakeObject();
  v.Set("ok", true);
  v.Set("uptime_s", static_cast<double>(UptimeSeconds()));
  v.Set("requests", requests_.load(kRelaxed));
  v.Set("bytes_in", bytes_in_.load(kRelaxed));
  v.Set("bytes_out", bytes_out_.load(kRelaxed));
  v.Set("queue_depth", queue_depth_.load(kRelaxed));
  v.Set("deadline_expired", deadline_expired_.load(kRelaxed));
  v.Set("slow_reader_disconnects", slow_disconnects_.load(kRelaxed));

  json::Value conns = json::Value::MakeObject();
  conns.Set("live", connections_live_.load(kRelaxed));
  conns.Set("peak", connections_peak_.load(kRelaxed));
  conns.Set("total", connections_total_.load(kRelaxed));
  conns.Set("binary_upgrades", binary_upgrades_.load(kRelaxed));
  v.Set("connections", std::move(conns));

  // qps over the last completed window (current second excluded — it is
  // still filling). Early in life the divisor is the short uptime instead,
  // so a 2-second-old server doesn't report a tenth of its rate.
  const std::int64_t now_sec = UptimeSeconds();
  std::uint64_t in_window = 0;
  const std::int64_t window =
      std::min<std::int64_t>(kQpsWindowSeconds, std::max<std::int64_t>(now_sec, 1));
  for (std::int64_t s = now_sec - window; s < now_sec; ++s) {
    if (s < 0) continue;
    const QpsSlot& slot = qps_[static_cast<std::size_t>(s) % kQpsSlots];
    if (slot.second.load(kRelaxed) == s) in_window += slot.count.load(kRelaxed);
  }
  v.Set("qps", static_cast<double>(in_window) / static_cast<double>(window));

  json::Value verbs = json::Value::MakeObject();
  for (std::size_t i = 0; i < verbs_.size(); ++i) {
    const VerbStats& vs = verbs_[i];
    const std::uint64_t count = vs.count.load(kRelaxed);
    if (count == 0) continue;  // keep the response proportional to traffic
    json::Value row = json::Value::MakeObject();
    row.Set("count", count);
    // Percentiles from the histogram, nearest-rank: the p-th percentile is
    // the ceil(p * count)-th smallest sample (1-indexed). The old
    // floor(p * (count-1)) walk truncated the rank, so a tail of one slow
    // request among many fast ones never surfaced — p99 of {10 x 2us,
    // 1 x 100ms} reported the 2us bucket.
    const double targets[] = {0.50, 0.95, 0.99};
    const char* names[] = {"p50_ms", "p95_ms", "p99_ms"};
    for (int t = 0; t < 3; ++t) {
      const auto rank = static_cast<std::uint64_t>(
          std::ceil(targets[t] * static_cast<double>(count)));
      std::uint64_t seen = 0;
      double value = 0.0;
      for (std::size_t b = 0; b < kHistBuckets; ++b) {
        seen += vs.hist[b].load(kRelaxed);
        if (seen >= rank) {
          value = BucketMidMs(b);
          break;
        }
      }
      row.Set(names[t], value);
    }
    verbs.Set(i < kNumVerbs ? std::string(Verbs()[i].name) : "OTHER",
              std::move(row));
  }
  v.Set("verbs", std::move(verbs));
  return v;
}

}  // namespace onex::net
