#!/usr/bin/env sh
# Perf-trajectory benchmark runner: builds (reusing ./build) and drops
# machine-readable results at the repo root so the numbers accumulate
# across PRs.
#
#   BENCH_query.json        bench_e2_query_speedup — the ONEX-vs-UCR
#                           headline comparison plus the batch scaling
#                           sweep: 8 queries fanned over 1/2/4/N threads,
#                           one thread per query, answers checked against
#                           the serial run; and the explore shape (MATCH
#                           k=1 / KNN k=5 over walk and sine, maxlen 64):
#                           ms, centroid and member DTWs per query
#   BENCH_maintenance.json  bench_e10_maintenance — streaming maintenance:
#                           extend throughput, extend cost against history,
#                           drift-regroup latency and query latency during
#                           a background regroup
#   BENCH_kernels.json      bench_e11_kernel_sweep — distance-kernel layer
#                           ablation: scalar vs SIMD tables, pruning
#                           cascade on vs off (DESIGN.md §14)
#   BENCH_net.json          bench_e12_load — the serving path under load:
#                           10k idle connections on the epoll reactor,
#                           pipelined-binary vs blocking-text throughput,
#                           text/binary dialect equivalence (DESIGN.md §15)
#   BENCH_tier.json         bench_e13_coldstart — tiered-storage cold
#                           start: time-to-first-query off an mmap'd arena
#                           checkpoint vs re-preparation vs resident, at
#                           16/64/256 datasets (DESIGN.md §17)
#   BENCH_analytics.json    bench_e14_analytics — analytics on the group
#                           structure: ANOMALY/MOTIF/FORECAST fast paths
#                           vs index-blind scans, BOCPD truncation vs the
#                           exact recursion (DESIGN.md §18)
#
# Usage: scripts/bench.sh [query.json [maintenance.json [kernels.json [net.json [tier.json [analytics.json]]]]]]
set -eu

cd "$(dirname "$0")/.."
QUERY_OUT="${1:-BENCH_query.json}"
MAINT_OUT="${2:-BENCH_maintenance.json}"
KERNEL_OUT="${3:-BENCH_kernels.json}"
NET_OUT="${4:-BENCH_net.json}"
TIER_OUT="${5:-BENCH_tier.json}"
ANALYTICS_OUT="${6:-BENCH_analytics.json}"

cmake -B build -S . -DONEX_BUILD_BENCHES=ON >/dev/null
cmake --build build -j --target bench_e2_query_speedup \
  bench_e10_maintenance bench_e11_kernel_sweep bench_e12_load \
  bench_e13_coldstart bench_e14_analytics >/dev/null

./build/bench_e2_query_speedup --json "$QUERY_OUT"
echo "perf record: $QUERY_OUT"
./build/bench_e10_maintenance --json "$MAINT_OUT"
echo "perf record: $MAINT_OUT"
./build/bench_e11_kernel_sweep --json "$KERNEL_OUT"
echo "perf record: $KERNEL_OUT"
./build/bench_e12_load --json "$NET_OUT"
echo "perf record: $NET_OUT"
./build/bench_e13_coldstart --json "$TIER_OUT"
echo "perf record: $TIER_OUT"
./build/bench_e14_analytics --json "$ANALYTICS_OUT"
echo "perf record: $ANALYTICS_OUT"
