/// The kill-9 fault-injection differential harness (DESIGN.md §16, the
/// cluster's headline proof). For each seeded schedule it boots a real
/// 3-process onexd cluster, drives randomized multi-dataset traffic through
/// one coordinator while an in-process single-node oracle replays the same
/// script, then SIGKILLs the primary owning a dataset at an acked boundary,
/// probes CLUSTER to promote, and asserts that every subsequent answer —
/// mutators, single-dataset queries, datasets= scatter-gather merges, error
/// responses — is bitwise equal (modulo wall-clock fields) to the uncrashed
/// oracle. Sync replication is what makes this sound: a coordinator ack
/// implies every live replica holds the record, so no acknowledged write can
/// vanish with the dead node. ctest gives this suite a 600 s budget.
#include <sys/types.h>
#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/engine/engine.h"
#include "onex/json/json.h"
#include "onex/net/client.h"
#include "onex/net/cluster.h"
#include "onex/net/protocol.h"
#include "onex/net/socket.h"

namespace onex::net {
namespace {

std::string OnexdPath() {
  // The test binary and onexd land in the same build directory.
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "./onexd";
  buf[n] = '\0';
  const std::string self(buf);
  const std::size_t slash = self.rfind('/');
  return self.substr(0, slash + 1) + "onexd";
}

/// Asks the kernel for ephemeral ports. The sockets are held open while all
/// three are chosen (so the set is distinct), then released just before the
/// children bind them.
std::vector<std::uint16_t> PickPorts(std::size_t count) {
  std::vector<ServerSocket> held;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    Result<ServerSocket> s = ServerSocket::Listen(0);
    EXPECT_TRUE(s.ok()) << s.status();
    ports.push_back(s->port());
    held.push_back(std::move(*s));
  }
  return ports;
}

void ScrubVolatile(json::Value* v) {
  if (v->is_object()) {
    v->mutable_object().erase("elapsed_ms");
    v->mutable_object().erase("build_seconds");
    for (auto& entry : v->mutable_object()) ScrubVolatile(&entry.second);
  } else if (v->is_array()) {
    for (auto& entry : v->mutable_array()) ScrubVolatile(&entry);
  }
}

std::string Scrubbed(json::Value v) {
  ScrubVolatile(&v);
  return v.Dump();
}

/// One onexd child process plus the bookkeeping to kill -9 it.
struct Node {
  pid_t pid = -1;
  std::uint16_t port = 0;

  void Kill9() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }
};

class ClusterProcs {
 public:
  /// Spawns `nodes.size()` onexd processes forming one cluster. Sanitizer
  /// reports of the children land in `san_dir`.
  static ClusterProcs Spawn(const std::vector<std::uint16_t>& ports,
                            const std::string& data_root,
                            const std::string& san_dir) {
    std::string csv;
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (i != 0) csv += ',';
      csv += "127.0.0.1:" + std::to_string(ports[i]);
    }
    const std::string binary = OnexdPath();
    // A sanitized onexd writes its reports into san_dir, where the test
    // looks for them: ctest shows a passing test's stderr to no one.
    std::vector<std::pair<std::string, std::string>> san_env;
    for (const char* var : {"ASAN_OPTIONS", "TSAN_OPTIONS", "UBSAN_OPTIONS"}) {
      const char* before = std::getenv(var);
      const std::string prefix =
          before != nullptr && *before != '\0' ? std::string(before) + ":" : "";
      san_env.emplace_back(var, prefix + "log_path=" + san_dir + "/report");
    }
    ClusterProcs procs;
    for (std::size_t i = 0; i < ports.size(); ++i) {
      const std::string dir = data_root + "/d" + std::to_string(i);
      std::filesystem::create_directories(dir);
      const pid_t pid = ::fork();
      if (pid == 0) {
        // Child: quiet stdout (startup banners), keep stderr for post-
        // mortems in the ctest log.
        if (::freopen("/dev/null", "w", stdout) == nullptr) ::_exit(126);
        for (const auto& [var, value] : san_env) {
          ::setenv(var.c_str(), value.c_str(), 1);
        }
        const std::string nodes_flag = "--cluster-nodes=" + csv;
        const std::string self_flag = "--cluster-self=" + std::to_string(i);
        const std::string dir_flag = "--data-dir=" + dir;
        ::execl(binary.c_str(), binary.c_str(), nodes_flag.c_str(),
                self_flag.c_str(), dir_flag.c_str(), "--no-fsync",
                static_cast<char*>(nullptr));
        ::_exit(127);  // exec failed
      }
      Node node;
      node.pid = pid;
      node.port = ports[i];
      procs.nodes_.push_back(node);
    }
    return procs;
  }

  ~ClusterProcs() {
    for (Node& node : nodes_) node.Kill9();
  }

  Node& node(std::size_t i) { return nodes_[i]; }

  /// Blocks until every node answers PING (recovery + listener up).
  bool WaitReady() const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (const Node& node : nodes_) {
      for (;;) {
        Result<OnexClient> client = OnexClient::Connect("127.0.0.1", node.port);
        if (client.ok()) {
          Result<json::Value> pong = client->Call("PING");
          if (pong.ok() && (*pong)["ok"].as_bool()) break;
        }
        if (std::chrono::steady_clock::now() > deadline) return false;
        ::usleep(20 * 1000);
      }
    }
    return true;
  }

 private:
  std::vector<Node> nodes_;
};

/// Plain-HRW owner with every node alive — how the harness picks its victim
/// before any failure exists.
std::size_t InitialOwner(const std::string& dataset, std::size_t n) {
  std::size_t best = 0;
  std::uint64_t best_weight = ClusterNode::HrwWeight(dataset, 0);
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t w = ClusterNode::HrwWeight(dataset, i);
    if (w > best_weight) {
      best_weight = w;
      best = i;
    }
  }
  return best;
}

/// The seeded traffic generator. Commands reference only series 0..4 (GEN
/// makes 5) plus appended names unique per step, so the script is valid —
/// and where it is not (a duplicate append name, say), the error response
/// is part of the differential contract too.
std::string RandomOp(Rng* rng, const std::vector<std::string>& datasets,
                     int step) {
  const std::string& ds = datasets[rng->UniformIndex(datasets.size())];
  auto spec = [&] {
    return std::to_string(rng->UniformIndex(5)) + ":" +
           std::to_string(rng->UniformIndex(8)) + ":" +
           std::to_string(8 + rng->UniformIndex(8));
  };
  auto vals = [&](std::size_t n) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) out += ',';
      out += std::to_string(rng->UniformInt(-100, 100));
      out += "e-2";
    }
    return out;
  };
  // datasets= lists every dataset, starting at a random one: the merge
  // must not depend on the user order.
  const std::size_t first = rng->UniformIndex(datasets.size());
  std::string all;
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    if (i != 0) all += ',';
    all += datasets[(first + i) % datasets.size()];
  }
  switch (rng->UniformIndex(8)) {
    case 0:
      return "APPEND " + ds + " series=h" + std::to_string(step) +
             " v=" + vals(6 + rng->UniformIndex(4));
    case 1:
      return "EXTEND " + ds + " series=" + std::to_string(rng->UniformIndex(5)) +
             " points=" + vals(1 + rng->UniformIndex(3));
    case 2:
      return "MATCH " + ds + " q=" + spec();
    case 3:
      return "KNN " + ds + " q=" + spec() +
             " k=" + std::to_string(1 + rng->UniformIndex(3));
    case 4: {
      std::string cmd = "BATCH " + ds + " q=" + spec() + ";" + spec() + " k=2";
      return cmd;
    }
    // datasets= scatter-gather across shards, merged by the coordinator.
    case 5:
      return "MATCH datasets=" + all + " q=" + spec();
    case 6:
      return "BATCH datasets=" + all + " q=" + spec() + ";" + spec() + " k=2";
    default:
      return "KNN datasets=" + all + " q=" + spec() +
             " k=" + std::to_string(2 + rng->UniformIndex(2));
  }
}

class DifferentialRun {
 public:
  DifferentialRun(OnexClient* cluster, Engine* oracle, Session* oracle_session)
      : cluster_(cluster), oracle_(oracle), oracle_session_(oracle_session) {}

  /// Runs one command against both worlds and asserts bitwise equality.
  void Step(const std::string& command) {
    SCOPED_TRACE(command);
    Result<json::Value> cluster_response = cluster_->Call(command);
    ASSERT_TRUE(cluster_response.ok()) << cluster_response.status();
    Result<Command> cmd = ParseCommandLine(command);
    ASSERT_TRUE(cmd.ok());
    const json::Value oracle_response =
        ExecuteCommand(oracle_, oracle_session_, *cmd);
    EXPECT_EQ(Scrubbed(*cluster_response), Scrubbed(oracle_response));
  }

 private:
  OnexClient* cluster_;
  Engine* oracle_;
  Session* oracle_session_;
};

void RunSeededSchedule(std::uint64_t seed, const std::string& san_dir) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const std::vector<std::string> datasets = {"alpha", "beta", "gamma"};
  const std::string data_root =
      ::testing::TempDir() + "/onex_harness_" + std::to_string(seed);
  std::filesystem::remove_all(data_root);

  const std::vector<std::uint16_t> ports = PickPorts(3);
  ClusterProcs procs = ClusterProcs::Spawn(ports, data_root, san_dir);
  ASSERT_TRUE(procs.WaitReady()) << "cluster did not come up";

  // The coordinator varies by seed; the victim is the owner of the first
  // dataset not owned by the coordinator (so the kill always severs a
  // remote primary mid-conversation). Shard assignment is pure HRW, so the
  // test computes it without asking the cluster.
  const std::size_t coordinator = seed % 3;
  std::size_t victim = (coordinator + 1) % 3;
  std::string victim_dataset = datasets[0];
  for (const std::string& ds : datasets) {
    const std::size_t owner = InitialOwner(ds, 3);
    if (owner != coordinator) {
      victim = owner;
      victim_dataset = ds;
      break;
    }
  }

  Result<OnexClient> client =
      OnexClient::Connect("127.0.0.1", procs.node(coordinator).port);
  ASSERT_TRUE(client.ok()) << client.status();
  Engine oracle;
  Session oracle_session;
  DifferentialRun diff(&*client, &oracle, &oracle_session);

  // Deterministic bootstrap, then seeded traffic.
  Rng rng(seed * 2654435761u + 1);
  int step = 0;
  for (const std::string& ds : datasets) {
    diff.Step("GEN " + ds + (rng.Bernoulli(0.5) ? " sine" : " walk") +
              " num=5 len=40 seed=" + std::to_string(seed * 10 + step));
    diff.Step("PREPARE " + ds + " st=0.2 maxlen=16");
    ++step;
  }
  // The scatter and select routes: LIST merges every node's names; USE is
  // validated on the owner and adopted by this coordinator's session.
  diff.Step("LIST");
  diff.Step("USE " + datasets[1]);
  diff.Step("KNN q=0:0:12 k=2");
  Result<json::Value> described = client->Call("DATASETS");
  ASSERT_TRUE(described.ok()) << described.status();
  EXPECT_EQ((*described)["datasets"].as_array().size(), datasets.size())
      << described->Dump();
  for (int i = 0; i < 8; ++i) {
    diff.Step(RandomOp(&rng, datasets, step++));
    if (::testing::Test::HasFatalFailure()) return;
  }

  // kill -9 at an acked boundary: the previous command's response was
  // received, and sync replication means received ⇒ on every live replica.
  procs.node(victim).Kill9();
  // The probe makes the failure detection deterministic: it marks the dead
  // node, runs the promotion sweep, and reports the new topology.
  Result<json::Value> cluster_status = client->Call("CLUSTER");
  ASSERT_TRUE(cluster_status.ok()) << cluster_status.status();
  ASSERT_TRUE((*cluster_status)["ok"].as_bool()) << cluster_status->Dump();
  EXPECT_FALSE(
      (*cluster_status)["nodes"].as_array()[victim]["alive"].as_bool())
      << cluster_status->Dump();

  // Post-promotion traffic MUST start by exercising the dataset whose
  // primary just died — reads from the promoted replica, then a write that
  // continues its journal — before the seeded mix resumes.
  diff.Step("KNN " + victim_dataset + " q=0:0:12 k=2");
  diff.Step("EXTEND " + victim_dataset + " series=2 points=0.5,0.25");
  diff.Step("MATCH " + victim_dataset + " q=1:2:10");
  for (int i = 0; i < 8; ++i) {
    diff.Step(RandomOp(&rng, datasets, step++));
    if (::testing::Test::HasFatalFailure()) return;
  }

  std::filesystem::remove_all(data_root);
}

/// Fails on every sanitizer report a child left in `san_dir`, quoting it.
void ExpectNoSanitizerReports(const std::string& san_dir) {
  for (const auto& entry : std::filesystem::directory_iterator(san_dir)) {
    std::ifstream in(entry.path());
    std::stringstream report;
    report << in.rdbuf();
    ADD_FAILURE() << "sanitizer report " << entry.path() << ":\n"
                  << report.str();
  }
}

TEST(ClusterHarnessTest, KillNinePromotionIsBitwiseInvisible) {
  // ≥8 seeded schedules: coordinators, victims, traffic mixes and kill
  // points all vary with the seed.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string san_dir =
        ::testing::TempDir() + "/onex_harness_san_" + std::to_string(seed);
    std::filesystem::remove_all(san_dir);
    std::filesystem::create_directories(san_dir);
    RunSeededSchedule(seed, san_dir);
    ExpectNoSanitizerReports(san_dir);
    std::filesystem::remove_all(san_dir);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace onex::net
