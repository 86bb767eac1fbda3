#!/usr/bin/env sh
# Tier-1 verify: configure, build everything (library, tests, benches,
# examples), run the full test suite. CI runs exactly this script; run it
# locally before pushing.
set -eu

cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
cd build
ctest --output-on-failure -j"$(nproc)"

# Quick durability smoke on top of the suite run: stream into a durable
# engine, restart it, demand identical answers (DESIGN.md §13).
./engine_recovery_test --gtest_filter='EngineRecovery.SmokeRestart' \
  --gtest_brief=1

# Reactor smoke (DESIGN.md §15): 1k concurrent connections with a live
# serving path underneath, a pipelined binary batch, METRICS sanity, and
# text/binary dialect equivalence. Exits nonzero if any of those fail.
./bench_e12_load --smoke

# Cold-restart smoke (DESIGN.md §17): checkpoint a small fleet, restart,
# and demand the first MATCH is served off the mmap'd arena with answers
# identical to resident and to an explicit re-preparation.
./bench_e13_coldstart --smoke

# Option smoke (DESIGN.md §9): a verb uses an option as given or refuses it.
# A misspelt window= must answer InvalidArgument, not run unconstrained.
./onexd 7740 >/dev/null 2>&1 &
SINGLE=$!
tries=0
until ./onex_cli 7740 PING >/dev/null 2>&1; do
  tries=$((tries + 1))
  [ "$tries" -lt 150 ] || { echo "onexd :7740 never came up"; exit 1; }
  sleep 0.2
done
./onex_cli 7740 "GEN demo walk num=6 len=24 seed=3" \
  "PREPARE demo st=0.2 maxlen=12" | grep -q '"ok": true'
./onex_cli 7740 "MATCH demo q=1:5:12 windw=2" |
  grep -q '"code": "InvalidArgument"' ||
  { echo "MATCH accepted a misspelt option"; kill "$SINGLE"; exit 1; }
kill "$SINGLE"
wait "$SINGLE" 2>/dev/null || :
echo "option smoke: OK"

# Cluster smoke (DESIGN.md §16): boot a real 3-process cluster, route
# traffic through every node, kill -9 the shard that owns "demo", and
# demand the survivors keep answering after promotion. HRW placement
# depends only on the dataset name and node *index*, so "demo" lands on
# node index 2 for any 3-node cluster regardless of ports.
CLUSTER_ROOT="$(mktemp -d)"
CLUSTER_NODES="127.0.0.1:7741,127.0.0.1:7742,127.0.0.1:7743"

# A cluster node never rotates its log, and a budget eviction checkpoints:
# onexd must refuse the combination with exit status 2 before serving.
status=0
timeout 10 ./onexd --cluster-nodes="$CLUSTER_NODES" --cluster-self=0 \
  --data-dir="$CLUSTER_ROOT/refused" --budget=1 >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "onexd accepted --budget in cluster mode"; exit 1; }

# An evicted base serves from its checkpoint, so a budget without a data
# dir could never be honoured: onexd must refuse it with exit status 2.
status=0
timeout 10 ./onexd 0 --budget=1 >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "onexd accepted --budget without --data-dir"; exit 1; }

# Numeric flags are parsed whole and range-checked: an out-of-range port or
# a non-numeric value is a usage error (exit 2), never a silent default.
for bad in "70000" "0 --checkpoint-every=abc" "--cluster-self=x"; do
  status=0
  # shellcheck disable=SC2086  # $bad is a list of arguments
  timeout 10 ./onexd $bad >/dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] || { echo "onexd accepted '$bad' (exit $status)"; exit 1; }
done

./onexd --cluster-nodes="$CLUSTER_NODES" --cluster-self=0 \
  --data-dir="$CLUSTER_ROOT/n0" --no-fsync >/dev/null 2>&1 &
N0=$!
./onexd --cluster-nodes="$CLUSTER_NODES" --cluster-self=1 \
  --data-dir="$CLUSTER_ROOT/n1" --no-fsync >/dev/null 2>&1 &
N1=$!
./onexd --cluster-nodes="$CLUSTER_NODES" --cluster-self=2 \
  --data-dir="$CLUSTER_ROOT/n2" --no-fsync >/dev/null 2>&1 &
N2=$!
cleanup_cluster() {
  kill -9 "$N0" "$N1" "$N2" 2>/dev/null || :
  rm -rf "$CLUSTER_ROOT"
}
trap cleanup_cluster EXIT

for port in 7741 7742 7743; do
  tries=0
  until ./onex_cli "$port" PING >/dev/null 2>&1; do
    tries=$((tries + 1))
    [ "$tries" -lt 150 ] || { echo "cluster node :$port never came up"; exit 1; }
    sleep 0.2
  done
done

./onex_cli 7741 "GEN demo sine num=4 len=32 seed=7" | grep -q '"ok": true'
./onex_cli 7741 "PREPARE demo st=0.2 maxlen=16" | grep -q '"ok": true'
./onex_cli 7742 "KNN demo q=0:0:12 k=2" | grep -q '"ok": true'
./onex_cli 7743 "MATCH datasets=demo q=1:2:10" | grep -q '"ok": true'
# fwd=1 is the coordinators' internal pin for routed verbs; it must not
# unblock a checkpoint, which would rotate the log replicas catch up from.
./onex_cli 7743 "CHECKPOINT demo fwd=1" |
  grep -q '"code": "FailedPrecondition"' ||
  { echo "fwd=1 unblocked CHECKPOINT in cluster mode"; exit 1; }

# Fault injection: node 2 is demo's primary; the coordinator must notice,
# promote a caught-up replica, and keep serving bit-identical answers.
kill -9 "$N2"
./onex_cli 7741 CLUSTER | grep -q '"ok": true'
./onex_cli 7741 "KNN demo q=0:0:12 k=2" | grep -q '"ok": true'
./onex_cli 7742 "MATCH demo q=1:2:10" | grep -q '"ok": true'

cleanup_cluster
trap - EXIT
echo "cluster smoke: OK"
