/// onexd — the ONEX analytics server (the demo's server tier). Clients speak
/// the newline-delimited command protocol (single-line JSON responses) and
/// may upgrade to the ONEXB binary frame with BIN; METRICS reports serving
/// statistics. Serving runs on the epoll reactor (DESIGN.md §15) —
/// thousands of connections on one thread.
///
///   $ ./onexd [port] [--data-dir=DIR] [--checkpoint-every=N] [--no-fsync]
///            [--budget=BYTES]
///            [--cluster-nodes=host:port,host:port,...] [--cluster-self=N]
///
/// --budget bounds resident prepared bases (0 = unlimited). An over-budget
/// slot is checkpointed if its WAL is dirty and then served from the
/// mmap'd arena checkpoint (the mapped tier, DESIGN.md §17), so a nonzero
/// --budget requires --data-dir.
///
/// With --data-dir, the server is durable (DESIGN.md §13): state found in
/// DIR is recovered before the first client connects, every acknowledged
/// mutation is journaled write-ahead, and prepared datasets checkpoint in
/// the background every N journaled mutations (default 256; 0 = manual
/// CHECKPOINT only). Kill the process however you like — the next start
/// with the same --data-dir answers queries identically.
///
/// With --cluster-nodes, the server joins a cluster (DESIGN.md §16): the
/// list names every node (identical on all of them), --cluster-self=N is
/// this node's index into it, and the node's own port comes from the listed
/// endpoint. Cluster mode requires --data-dir (replication ships the WAL),
/// forces --checkpoint-every=0 (replica catch-up replays the log from its
/// start) and refuses --budget (an eviction checkpoints, which would rotate
/// that log). See README.md "Running a 3-node cluster".
///
/// Try it with the bundled CLI:
///   $ ./onexd 7700 --data-dir=/tmp/onex-data &
///   $ ./onex_cli 7700 "GEN demo sine num=8 len=32" "PREPARE demo st=0.15"
///   $ ./onex_cli 7700 "MATCH demo q=0:4:16"
#include <atomic>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "onex/common/logging.h"
#include "onex/common/string_utils.h"
#include "onex/engine/engine.h"
#include "onex/net/cluster.h"
#include "onex/net/reactor.h"

namespace {
std::atomic<bool> g_stop{false};
void HandleSignal(int) { g_stop.store(true); }

constexpr char kUsage[] =
    "usage: onexd [port] [--data-dir=DIR] [--checkpoint-every=N] "
    "[--no-fsync] [--budget=BYTES] [--cluster-nodes=h:p,...] "
    "[--cluster-self=N]\n";

/// Parses `text` as a whole decimal integer in [lo, hi] into `*out`. On bad
/// input prints what was wrong and the usage line, and returns false (the
/// caller exits 2).
bool ParseFlag(const char* what, std::string_view text, long long lo,
               long long hi, long long* out) {
  const onex::Result<long long> value = onex::ParseInt(text);
  if (!value.ok() || *value < lo || *value > hi) {
    std::fprintf(stderr,
                 "onexd: %s must be an integer in [%lld, %lld], got "
                 "'%.*s'\n%s",
                 what, lo, hi, static_cast<int>(text.size()), text.data(),
                 kUsage);
    return false;
  }
  *out = *value;
  return true;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(begin));
      break;
    }
    out.push_back(csv.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return out;
}
}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  onex::DurabilityOptions durability;
  durability.checkpoint_every = 256;
  onex::DatasetRegistryOptions registry_options;
  std::vector<std::string> cluster_nodes;
  long long cluster_self = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long long value = 0;
    if (arg.rfind("--data-dir=", 0) == 0) {
      durability.dir = arg.substr(std::strlen("--data-dir="));
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      if (!ParseFlag("--checkpoint-every",
                     arg.substr(std::strlen("--checkpoint-every=")), 0,
                     LLONG_MAX, &value)) {
        return 2;
      }
      durability.checkpoint_every = static_cast<std::uint64_t>(value);
    } else if (arg == "--no-fsync") {
      durability.fsync = false;
    } else if (arg.rfind("--budget=", 0) == 0) {
      if (!ParseFlag("--budget", arg.substr(std::strlen("--budget=")), 0,
                     LLONG_MAX, &value)) {
        return 2;
      }
      registry_options.prepared_budget_bytes = static_cast<std::size_t>(value);
    } else if (arg.rfind("--cluster-nodes=", 0) == 0) {
      cluster_nodes = SplitCsv(arg.substr(std::strlen("--cluster-nodes=")));
    } else if (arg.rfind("--cluster-self=", 0) == 0) {
      if (!ParseFlag("--cluster-self",
                     arg.substr(std::strlen("--cluster-self=")), 0, LLONG_MAX,
                     &cluster_self)) {
        return 2;
      }
    } else if (!arg.empty() && arg[0] != '-') {
      if (!ParseFlag("port", arg, 0, 65535, &value)) return 2;
      port = static_cast<std::uint16_t>(value);
    } else {
      std::fprintf(stderr, "onexd: unknown flag '%s'\n%s", arg.c_str(),
                   kUsage);
      return 2;
    }
  }

  // An evicted base serves from its checkpoint; without a data dir there is
  // none, so a budget could never be honoured.
  if (registry_options.prepared_budget_bytes > 0 && durability.dir.empty()) {
    std::fprintf(stderr,
                 "onexd: --budget requires --data-dir (an evicted base "
                 "serves from its checkpoint)\nusage: onexd [port] "
                 "--data-dir=DIR --budget=BYTES [...]\n");
    return 2;
  }

  const bool cluster_mode = !cluster_nodes.empty();
  if (cluster_mode) {
    if (cluster_self < 0 ||
        static_cast<std::size_t>(cluster_self) >= cluster_nodes.size()) {
      std::fprintf(stderr,
                   "onexd: cluster mode needs --cluster-self=N with N "
                   "indexing --cluster-nodes\n");
      return 2;
    }
    if (durability.dir.empty()) {
      std::fprintf(stderr,
                   "onexd: cluster mode requires --data-dir (replication "
                   "ships the write-ahead log)\n");
      return 2;
    }
    // Replica catch-up replays the primary's WAL from its first record; a
    // checkpoint rotation would truncate exactly that (DESIGN.md §16). A
    // budget eviction of a durable slot checkpoints, so it is refused too.
    if (registry_options.prepared_budget_bytes > 0) {
      std::fprintf(stderr,
                   "onexd: cluster mode refuses --budget (an eviction "
                   "checkpoints, and a cluster node never rotates its "
                   "log)\n");
      return 2;
    }
    durability.checkpoint_every = 0;
    const std::string& self =
        cluster_nodes[static_cast<std::size_t>(cluster_self)];
    const std::size_t colon = self.rfind(':');
    if (colon != std::string::npos) {
      long long value = 0;
      if (!ParseFlag("the port in --cluster-nodes",
                     std::string_view(self).substr(colon + 1), 0, 65535,
                     &value)) {
        return 2;
      }
      port = static_cast<std::uint16_t>(value);
    }
  }

  onex::SetLogLevel(onex::LogLevel::kInfo);
  onex::Engine engine(registry_options);
  if (!durability.dir.empty()) {
    if (onex::Status s = engine.EnableDurability(durability); !s.ok()) {
      std::fprintf(stderr, "onexd: recovery failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("onexd: durable in %s (%zu dataset(s) recovered)\n",
                durability.dir.c_str(), engine.registry().Describe().size());
  }

  std::unique_ptr<onex::net::ClusterNode> cluster;
  if (cluster_mode) {
    onex::net::ClusterNode::Options copt;
    copt.nodes = cluster_nodes;
    copt.self = static_cast<std::size_t>(cluster_self);
    cluster = std::make_unique<onex::net::ClusterNode>(&engine, copt);
  }

  onex::net::ReactorServer server(&engine);
  if (cluster != nullptr) server.SetCluster(cluster.get());
  if (onex::Status s = server.Start(port); !s.ok()) {
    std::fprintf(stderr, "onexd: %s\n", s.ToString().c_str());
    return 1;
  }
  if (cluster != nullptr) {
    // After the listener is up: peers dial in for replication as soon as
    // their own hubs start, and this node's hub starts shipping to them.
    if (onex::Status s = cluster->Start(); !s.ok()) {
      std::fprintf(stderr, "onexd: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("onexd: cluster node %lld of %zu\n", cluster_self,
                cluster_nodes.size());
  }
  std::printf("onexd listening on 127.0.0.1:%u (epoll reactor)\n",
              server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load() && server.running()) {
    // Serving runs on its own thread; park cheaply here.
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  std::printf("onexd: shutting down\n");
  server.Stop();
  // The hub's WAL sink is uninstalled only here, after the server stopped
  // executing commands that could fire it.
  if (cluster != nullptr) cluster->Stop();
  return 0;
}
