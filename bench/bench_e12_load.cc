/// E12 — the serving path under load (DESIGN.md §15): the epoll reactor
/// with pipelined binary frames vs blocking text round-trips. Three claims,
/// measured:
///
///   1. Connection scale: ten thousand concurrent idle connections cost the
///      reactor file descriptors, not threads — and the serving path stays
///      responsive underneath them.
///   2. Pipelined throughput: 64 clients streaming requests through the
///      ONEXB binary frame with a 64-deep pipeline sustain >= 5x the
///      request rate of the same clients doing one blocking text
///      round-trip at a time against the same reactor. The 5x verdict is
///      scored on multicore hosts only (the reactor thread and 64 client
///      threads need real cores); single-core runs record the raw ratio and
///      null the verdict, bench_e2's convention.
///   3. Dialect equivalence: a session replayed over text and over binary
///      frames produces byte-identical JSON bodies.
///
/// The idle-connection fleet lives in a forked child process: the host caps
/// file descriptors per process, and each held connection costs one fd on
/// each side of the loopback.
///
/// With --json <path>, machine-readable results land in <path> (the repo's
/// BENCH_net.json trajectory file; see scripts/bench.sh). --smoke shrinks
/// the fleet and request counts for CI gating (scripts/check.sh).
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "onex/engine/engine.h"
#include "onex/json/json.h"
#include "onex/net/client.h"
#include "onex/net/reactor.h"
#include "onex/net/socket.h"

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Strips wall-clock fields so two executions of one command compare equal.
void ScrubVolatile(onex::json::Value* v) {
  if (v->is_object()) {
    v->mutable_object().erase("elapsed_ms");
    v->mutable_object().erase("build_seconds");
    v->mutable_object().erase("uptime_s");
    for (auto& entry : v->mutable_object()) ScrubVolatile(&entry.second);
  } else if (v->is_array()) {
    for (auto& entry : v->mutable_array()) ScrubVolatile(&entry);
  }
}

/// ---- Claim 1: idle-connection scale ------------------------------------
/// Forks a child that opens `target` connections and holds them open until
/// told to release; the parent watches the reactor's live-connection gauge
/// climb and proves the serving path still answers underneath the fleet.
struct IdleResult {
  std::size_t target = 0;
  std::size_t established = 0;
  double seconds = 0.0;
  bool ping_ok = false;
};

IdleResult RunIdleFleet(onex::net::ReactorServer* server, std::size_t target) {
  IdleResult result;
  result.target = target;

  int ready_pipe[2], go_pipe[2];
  if (pipe(ready_pipe) != 0 || pipe(go_pipe) != 0) return result;
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t child = fork();
  if (child < 0) return result;
  if (child == 0) {
    // Child: connect the fleet, report the count, hold until released.
    close(ready_pipe[0]);
    close(go_pipe[1]);
    std::vector<onex::net::Socket> fleet;
    fleet.reserve(target);
    for (std::size_t i = 0; i < target; ++i) {
      onex::Result<onex::net::Socket> s =
          onex::net::ConnectTcp("127.0.0.1", server->port());
      if (!s.ok()) break;
      fleet.push_back(std::move(*s));
    }
    const std::uint32_t established =
        static_cast<std::uint32_t>(fleet.size());
    (void)!write(ready_pipe[1], &established, sizeof(established));
    char go = 0;
    (void)!read(go_pipe[0], &go, 1);  // blocks until the parent releases
    _exit(0);
  }
  close(ready_pipe[1]);
  close(go_pipe[0]);

  std::uint32_t established = 0;
  if (read(ready_pipe[0], &established, sizeof(established)) !=
      sizeof(established)) {
    established = 0;
  }
  result.established = established;

  // The child has connected; wait for the reactor to have accepted them all.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server->metrics().connections_live() < established &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  result.seconds = SecondsSince(t0);

  // The fleet is parked; the serving path must still answer promptly.
  onex::Result<onex::net::OnexClient> probe =
      onex::net::OnexClient::Connect("127.0.0.1", server->port());
  if (probe.ok()) {
    onex::Result<onex::json::Value> pong = probe->Call("PING");
    result.ping_ok = pong.ok() && (*pong)["ok"].as_bool();
  }

  const char go = 1;
  (void)!write(go_pipe[1], &go, 1);
  close(go_pipe[1]);
  close(ready_pipe[0]);
  int status = 0;
  waitpid(child, &status, 0);
  return result;
}

/// ---- Claim 2: pipelined throughput -------------------------------------
/// Each client thread issues `per_client` PINGs — the protocol itself, no
/// engine work — so the measurement isolates the serving path. All clients
/// connect (and, for the reactor, negotiate ONEXB) before the clock starts:
/// the measured window is pure request traffic, not thread spawns and
/// connection handshakes.
struct StartGate {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t ready = 0;
  bool go = false;

  void Arrive(std::size_t expected) {
    std::unique_lock<std::mutex> lock(mutex);
    if (++ready == expected) cv.notify_all();
    cv.wait(lock, [&] { return go; });
  }
  void WaitReady(std::size_t expected) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return ready == expected; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex);
    go = true;
    cv.notify_all();
  }
};

double BlockingTextQps(std::uint16_t port, std::size_t clients,
                       std::size_t per_client) {
  StartGate gate;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([port, per_client, clients, &gate] {
      onex::Result<onex::net::OnexClient> client =
          onex::net::OnexClient::Connect("127.0.0.1", port);
      gate.Arrive(clients);
      if (!client.ok()) return;
      for (std::size_t i = 0; i < per_client; ++i) {
        if (!client->Call("PING").ok()) return;  // blocking round-trip
      }
    });
  }
  gate.WaitReady(clients);
  const auto t0 = std::chrono::steady_clock::now();
  gate.Release();
  for (std::thread& t : threads) t.join();
  return static_cast<double>(clients * per_client) / SecondsSince(t0);
}

double ReactorQps(std::uint16_t port, std::size_t clients,
                  std::size_t per_client) {
  StartGate gate;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([port, per_client, clients, &gate] {
      onex::Result<onex::net::OnexClient> client =
          onex::net::OnexClient::Connect("127.0.0.1", port);
      const bool upgraded = client.ok() && client->UpgradeBinary().ok();
      gate.Arrive(clients);
      if (!upgraded) return;
      std::vector<onex::net::WireRequest> burst(per_client);
      for (onex::net::WireRequest& r : burst) r.command = "PING";
      (void)client->SendMany(burst, /*window=*/64);
    });
  }
  gate.WaitReady(clients);
  const auto t0 = std::chrono::steady_clock::now();
  gate.Release();
  for (std::thread& t : threads) t.join();
  return static_cast<double>(clients * per_client) / SecondsSince(t0);
}

/// ---- Claim 3: dialect equivalence --------------------------------------
/// Replays one session over text and over binary frames (separate engines —
/// the script mutates) and demands byte-identical scrubbed bodies.
bool DialectsAgree(std::size_t* commands_checked) {
  const std::vector<std::string> script = {
      "PING",
      "GEN demo sine num=6 len=24 seed=5",
      "PREPARE demo st=0.2 maxlen=12",
      "USE demo",
      "STATS",
      "MATCH q=0:2:8",
      "KNN q=1:0:10 k=3",
      "BATCH q=0:0:8;1:2:8 k=2",
      "NOT_A_COMMAND foo",
      "MATCH q=999:0:8",
      "DATASETS",
  };
  *commands_checked = script.size();

  onex::Engine text_engine, bin_engine;
  onex::net::ReactorServer text_server(&text_engine);
  onex::net::ReactorServer bin_server(&bin_engine);
  if (!text_server.Start(0).ok() || !bin_server.Start(0).ok()) return false;
  onex::Result<onex::net::OnexClient> text_client =
      onex::net::OnexClient::Connect("127.0.0.1", text_server.port());
  onex::Result<onex::net::OnexClient> bin_client =
      onex::net::OnexClient::Connect("127.0.0.1", bin_server.port());
  if (!text_client.ok() || !bin_client.ok()) return false;
  if (!bin_client->UpgradeBinary().ok()) return false;

  bool identical = true;
  for (const std::string& line : script) {
    onex::Result<onex::json::Value> t = text_client->Call(line);
    onex::Result<onex::json::Value> b = bin_client->Call(line);
    if (!t.ok() || !b.ok()) return false;
    ScrubVolatile(&*t);
    ScrubVolatile(&*b);
    if (t->Dump() != b->Dump()) {
      std::fprintf(stderr, "dialect mismatch on '%s':\n  text   %s\n  binary %s\n",
                   line.c_str(), t->Dump().c_str(), b->Dump().c_str());
      identical = false;
    }
  }
  text_server.Stop();
  bin_server.Stop();
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  using onex::bench::Fmt;
  using onex::bench::FmtZu;

  std::string json_path;
  bool smoke = false;
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]) == "--json" && a + 1 < argc) {
      json_path = argv[a + 1];
      ++a;
    } else if (std::string(argv[a]) == "--smoke") {
      smoke = true;
    }
  }

  onex::bench::Banner(
      "E12 serving path under load", "pipelined binary vs blocking text",
      "10k concurrent connections held on one serving thread; >= 5x "
      "pipelined-binary throughput at 64 clients; text/binary dialect "
      "equivalence");

  const std::size_t hardware_threads = onex::bench::HardwareThreads();
  const bool single_core = hardware_threads <= 1;
  std::printf("hardware_threads: %zu\n", hardware_threads);
  std::printf("mode: %s\n\n", smoke ? "smoke" : "full");

  const std::size_t idle_target = smoke ? 1000 : 10000;
  const std::size_t clients = smoke ? 8 : 64;
  const std::size_t per_client = smoke ? 100 : 400;

  // ---- idle fleet -------------------------------------------------------
  onex::Engine engine;
  onex::net::ReactorServer reactor(&engine);
  if (!reactor.Start(0).ok()) {
    std::fprintf(stderr, "reactor start failed\n");
    return 1;
  }
  const IdleResult idle = RunIdleFleet(&reactor, idle_target);
  onex::bench::Table idle_table(
      {"target", "established", "seconds", "conns/s", "ping_under_load"});
  idle_table.AddRow({FmtZu(idle.target), FmtZu(idle.established),
                     Fmt("%.2f", idle.seconds),
                     Fmt("%.0f", static_cast<double>(idle.established) /
                                     (idle.seconds > 0 ? idle.seconds : 1)),
                     idle.ping_ok ? "ok" : "FAILED"});
  idle_table.Print();
  const bool idle_ok =
      idle.established >= idle.target && idle.ping_ok;

  // ---- pipelined throughput --------------------------------------------
  const double text_qps = BlockingTextQps(reactor.port(), clients, per_client);
  const double reactor_qps = ReactorQps(reactor.port(), clients, per_client);
  const double speedup = text_qps > 0 ? reactor_qps / text_qps : 0.0;

  std::printf("\n-- pipelined throughput (%zu clients x %zu PINGs) --\n",
              clients, per_client);
  onex::bench::Table tput_table(
      {"path", "dialect", "pipeline", "qps", "speedup"});
  tput_table.AddRow({"epoll reactor", "text", "1 (blocking)",
                     Fmt("%.0f", text_qps), "1.0x"});
  tput_table.AddRow({"epoll reactor", "binary", "64",
                     Fmt("%.0f", reactor_qps), Fmt("%.1fx", speedup)});
  tput_table.Print();

  // Latency percentiles the reactor recorded while under the burst.
  const onex::json::Value metrics = reactor.metrics().ToJson();
  const onex::json::Value& ping_stats = metrics["verbs"]["PING"];
  if (ping_stats.is_object()) {
    std::printf("reactor PING latency: p50=%.3fms p95=%.3fms p99=%.3fms\n",
                ping_stats["p50_ms"].as_number(),
                ping_stats["p95_ms"].as_number(),
                ping_stats["p99_ms"].as_number());
  }

  // ---- dialect equivalence ---------------------------------------------
  std::size_t commands_checked = 0;
  const bool identical = DialectsAgree(&commands_checked);
  std::printf("\ndialect equivalence: %zu commands, %s\n", commands_checked,
              identical ? "byte-identical" : "MISMATCH");

  reactor.Stop();

  std::printf(
      "\nshape check: established must reach the target with ping_under_load "
      "ok (connections cost fds, not threads), equivalence must say "
      "byte-identical, and the pipelined row must beat the blocking row — "
      "pipelining amortizes round-trips and syscalls. The >=5x target is "
      "scored on multicore hosts only%s: the reactor thread and 64 client "
      "threads need real cores to be a fair fight.\n",
      single_core ? " (this host is single-core, verdict nulled)" : "");

  if (!json_path.empty()) {
    onex::json::Value root = onex::json::Value::MakeObject();
    root.Set("bench", "e12_load");
    root.Set("host", onex::bench::HostBlock());
    root.Set("thread_speedups_valid", !single_core);
    root.Set("smoke", smoke);
    onex::json::Value idle_json = onex::json::Value::MakeObject();
    idle_json.Set("target", idle.target);
    idle_json.Set("established", idle.established);
    idle_json.Set("seconds", idle.seconds);
    idle_json.Set("ping_under_load", idle.ping_ok);
    root.Set("idle_connections", std::move(idle_json));
    onex::json::Value tput = onex::json::Value::MakeObject();
    tput.Set("clients", clients);
    tput.Set("requests_per_client", per_client);
    tput.Set("text_blocking_qps", text_qps);
    tput.Set("reactor_binary_pipelined_qps", reactor_qps);
    tput.Set("speedup", speedup);
    // The >=5x target needs cores to separate the reactor thread from the
    // 64 client threads. On a single core the reactor time-slices against
    // every client thread, so the verdict is nulled (bench_e2 convention) —
    // the raw speedup above is still recorded for trajectory.
    if (single_core) {
      tput.Set("target_5x_met", onex::json::Value(nullptr));
    } else {
      tput.Set("target_5x_met", speedup >= 5.0);
    }
    root.Set("pipelined_throughput", std::move(tput));
    onex::json::Value eq = onex::json::Value::MakeObject();
    eq.Set("commands", commands_checked);
    eq.Set("identical", identical);
    root.Set("dialect_equivalence", std::move(eq));
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << root.Dump() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Smoke mode gates CI: connection scale, a live serving path under the
  // fleet, and dialect equivalence are hard requirements. The throughput
  // ratio is reported but not gated — CI machines are too noisy to assert
  // a multiplier.
  if (smoke && (!idle_ok || !identical)) return 1;
  return 0;
}
