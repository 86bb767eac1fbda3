#ifndef ONEX_NET_METRICS_H_
#define ONEX_NET_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "onex/json/json.h"
#include "onex/net/protocol.h"

namespace onex::net {

/// Serving statistics behind the METRICS verb (reactor.h): request counts
/// and latency histograms per verb, rolling qps, connection and byte
/// counters, backpressure outcomes. Everything is relaxed atomics — a
/// metrics read races benignly with writers and reports a near-instant
/// snapshot, never blocks the serving path.
///
/// Latencies land in log-scale buckets (4 per octave of microseconds, so
/// ~19% worst-case quantile error); p50/p95/p99 are the midpoints of the
/// buckets holding the nearest-rank samples at METRICS time. qps comes from
/// a ring of per-second counters over the last completed 10 seconds.
///
/// Per-verb rows are indexed by verb-table slot (VerbSlot, protocol.h):
/// one per table row plus a final "OTHER" for names not in the table.
class ServerMetrics {
 public:
  ServerMetrics();

  void RecordRequest(std::size_t verb_slot, double latency_ms,
                     bool deadline_expired);
  void AddBytesIn(std::uint64_t n) { bytes_in_.fetch_add(n, kRelaxed); }
  void AddBytesOut(std::uint64_t n) { bytes_out_.fetch_add(n, kRelaxed); }

  void ConnectionOpened();
  void ConnectionClosed() { connections_live_.fetch_sub(1, kRelaxed); }
  void BinaryUpgrade() { binary_upgrades_.fetch_add(1, kRelaxed); }
  void SlowReaderDisconnect() { slow_disconnects_.fetch_add(1, kRelaxed); }

  /// Requests recorded but not yet answered, across all connections.
  void QueueEnter() { queue_depth_.fetch_add(1, kRelaxed); }
  void QueueLeave() { queue_depth_.fetch_sub(1, kRelaxed); }

  std::uint64_t connections_live() const {
    return connections_live_.load(kRelaxed);
  }
  std::uint64_t slow_reader_disconnects() const {
    return slow_disconnects_.load(kRelaxed);
  }
  std::uint64_t deadline_expired() const {
    return deadline_expired_.load(kRelaxed);
  }
  std::uint64_t requests_total() const { return requests_.load(kRelaxed); }

  /// The METRICS response body (includes "ok":true).
  json::Value ToJson() const;

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;
  /// 4 buckets per octave over [1us, ~2^36us]; index 0 also absorbs sub-us.
  static constexpr std::size_t kHistBuckets = 144;
  static constexpr std::size_t kQpsSlots = 16;
  static constexpr std::size_t kQpsWindowSeconds = 10;

  struct VerbStats {
    std::atomic<std::uint64_t> count{0};
    std::array<std::atomic<std::uint64_t>, kHistBuckets> hist{};
  };
  struct QpsSlot {
    std::atomic<std::int64_t> second{-1};
    std::atomic<std::uint64_t> count{0};
  };

  static std::size_t HistBucket(double latency_ms);
  /// Representative latency (ms) for a bucket: its geometric midpoint.
  static double BucketMidMs(std::size_t bucket);
  std::int64_t UptimeSeconds() const;

  std::chrono::steady_clock::time_point start_;
  std::array<VerbStats, kNumVerbs + 1> verbs_;  ///< + the "OTHER" slot.
  std::array<QpsSlot, kQpsSlots> qps_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> connections_live_{0};
  std::atomic<std::uint64_t> connections_peak_{0};
  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> binary_upgrades_{0};
  std::atomic<std::uint64_t> slow_disconnects_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> queue_depth_{0};
};

}  // namespace onex::net

#endif  // ONEX_NET_METRICS_H_
