#ifndef ONEX_SERVEBENCH_BENCH_H_
#define ONEX_SERVEBENCH_BENCH_H_

/// Types shared by the load generator (serve_bench.cc) and the in-process
/// layer replay of the traced run (layers.cc).
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "onex/engine/engine.h"
#include "onex/engine/query_spec.h"
#include "stats.h"

namespace servebench {

/// One entry of a workload's command table. `text` is what goes on the
/// wire; the remaining fields restate its parameters so the layer replay can
/// call the engine and query processor with exactly the same inputs.
struct Request {
  std::string text;
  std::vector<double> values;  ///< EXTEND points, sent as the frame payload.
  std::string verb;
  std::string dataset;
  bool write = false;
  std::vector<onex::QuerySpec> specs;  ///< MATCH/KNN/BATCH queries.
  std::size_t k = 1;
  std::size_t series = 0;  ///< EXTEND/FORECAST target series.
  std::size_t length = 0;  ///< ANOMALY length class.
};

/// What happened to one issued request; times in seconds from the start of
/// the measured window.
struct LogEntry {
  std::uint32_t request = 0;  ///< Index into the command table.
  RequestTimes t;
  bool failed = false;  ///< {"ok":false}, or never answered.
  bool traced = false;  ///< Spans recorded (every other event of a traced run).
  std::uint64_t hash = 0;  ///< Hash of the scrubbed response text (reads).
};

/// Named metric values the run reports (name -> value); units live in
/// BENCHMARK.json and the printed table.
using Metrics = std::map<std::string, double>;

/// Inputs of the traced run's in-process replay.
struct ReplayInput {
  onex::Engine* oracle = nullptr;
  const std::vector<Request>* requests = nullptr;
  /// Traced read requests the run completed.
  std::vector<const LogEntry*> reads;
  /// Dataset name -> generator kind ("walk", "sine").
  std::map<std::string, std::string> kinds;
};

/// Replays a sample of the run's reads against `oracle`, calling each
/// layer's public entry points with the request's own inputs, and records
/// the per-layer metrics (net.parse_us, protocol.execute_ms.*, engine.*,
/// core.*, distance.*, per-layer self times) into `out`. Prints a per-verb
/// breakdown to stdout.
void ReplayReadLayers(const ReplayInput& input, std::mt19937_64* rng,
                      Metrics* out);

/// Milliseconds as a double, from a steady_clock duration.
template <typename D>
double Ms(D d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace servebench

#endif  // ONEX_SERVEBENCH_BENCH_H_
