#include "onex/net/reactor.h"

#include <sys/socket.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/net/client.h"

namespace onex::net {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ReactorServer>(&engine_);
    ASSERT_TRUE(server_->Start(0).ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override { server_->Stop(); }

  OnexClient Connect() {
    Result<OnexClient> client = OnexClient::Connect("127.0.0.1",
                                                    server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  Engine engine_;
  std::unique_ptr<ReactorServer> server_;
};

TEST_F(ServerTest, PingRoundTrip) {
  OnexClient client = Connect();
  Result<json::Value> v = client.Call("PING");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_TRUE((*v)["ok"].as_bool());
  EXPECT_TRUE((*v)["pong"].as_bool());
}

TEST_F(ServerTest, FullAnalyticsSessionOverTheWire) {
  OnexClient client = Connect();
  Result<json::Value> v = client.Call("GEN demo sine num=6 len=18 seed=5");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE((*v)["ok"].as_bool()) << v->Dump();

  v = client.Call("PREPARE demo st=0.2 maxlen=10");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE((*v)["ok"].as_bool()) << v->Dump();
  EXPECT_GT((*v)["groups"].as_number(), 0.0);

  v = client.Call("MATCH demo q=0:2:8 exhaustive=1");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE((*v)["ok"].as_bool()) << v->Dump();
  EXPECT_NEAR((*v)["match"]["normalized_dtw"].as_number(), 0.0, 1e-9);

  v = client.Call("OVERVIEW demo top=4");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE((*v)["ok"].as_bool());
  EXPECT_LE((*v)["overview"]["cells"].as_array().size(), 4u);
}

TEST_F(ServerTest, MalformedCommandGetsErrorNotDisconnect) {
  OnexClient client = Connect();
  Result<json::Value> v = client.Call("NOT_A_COMMAND foo");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE((*v)["ok"].as_bool());
  // Session continues after the error.
  v = client.Call("PING");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE((*v)["ok"].as_bool());
}

TEST_F(ServerTest, EmptyLinesAreIgnored) {
  OnexClient client = Connect();
  // A blank line produces no response; the next command still works.
  Result<json::Value> v = client.Call("\nPING");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE((*v)["pong"].as_bool());
}

TEST_F(ServerTest, MultipleSequentialClients) {
  for (int round = 0; round < 3; ++round) {
    OnexClient client = Connect();
    Result<json::Value> v = client.Call("PING");
    ASSERT_TRUE(v.ok());
    EXPECT_TRUE((*v)["ok"].as_bool());
    client.Close();
  }
}

TEST_F(ServerTest, ConcurrentClientsShareTheEngine) {
  // One client loads; others see the dataset: a shared server-side session
  // like the demo's.
  OnexClient loader = Connect();
  Result<json::Value> v = loader.Call("GEN shared walk num=4 len=12");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE((*v)["ok"].as_bool());

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  // char, not bool: vector<bool> packs bits, and concurrent writers to
  // adjacent bits share a word (a real data race TSan rejects).
  std::vector<char> results(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &results] {
      Result<OnexClient> client =
          OnexClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) return;
      Result<json::Value> r = client->Call("LIST");
      if (r.ok() && (*r)["ok"].as_bool() &&
          (*r)["datasets"].as_array().size() == 1) {
        results[static_cast<std::size_t>(c)] = 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(results[static_cast<std::size_t>(c)], 1) << "client " << c;
  }
}

TEST_F(ServerTest, MultiDatasetDashboardSession) {
  // One connection drives two datasets — the dashboard shape the registry
  // exists for (DESIGN.md §11).
  OnexClient client = Connect();
  ASSERT_TRUE((*client.Call("GEN rates sine num=5 len=16 seed=2"))["ok"]
                  .as_bool());
  ASSERT_TRUE((*client.Call("GEN loads walk num=5 len=16 seed=3"))["ok"]
                  .as_bool());
  ASSERT_TRUE((*client.Call("PREPARE rates st=0.2 maxlen=8"))["ok"]
                  .as_bool());
  ASSERT_TRUE((*client.Call("PREPARE dataset=loads st=0.25 maxlen=8"))["ok"]
                  .as_bool());

  Result<json::Value> v = client.Call("DATASETS");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE((*v)["ok"].as_bool()) << v->Dump();
  ASSERT_EQ((*v)["datasets"].as_array().size(), 2u);
  for (const json::Value& row : (*v)["datasets"].as_array()) {
    EXPECT_TRUE(row["prepared"].as_bool()) << row.Dump();
  }

  // USE routes bare queries; dataset= overrides per command.
  ASSERT_TRUE((*client.Call("USE rates"))["ok"].as_bool());
  v = client.Call("MATCH q=0:2:8");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE((*v)["ok"].as_bool()) << v->Dump();
  v = client.Call("MATCH dataset=loads q=0:2:8");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE((*v)["ok"].as_bool()) << v->Dump();
}

TEST_F(ServerTest, StreamingExtendSessionOverTheWire) {
  // The tail-a-live-feed loop (DESIGN.md §12): prepare once, stream EXTEND
  // frames as points arrive, watch DRIFT, query the fresh tail — all on one
  // connection.
  OnexClient client = Connect();
  ASSERT_TRUE((*client.Call("GEN live sine num=5 len=16 seed=9"))["ok"]
                  .as_bool());
  ASSERT_TRUE((*client.Call("PREPARE live st=0.2 maxlen=10"))["ok"]
                  .as_bool());
  ASSERT_TRUE((*client.Call("USE live"))["ok"].as_bool());

  std::size_t expected_len = 16;
  for (int tick = 0; tick < 3; ++tick) {
    Result<json::Value> v =
        client.Call("EXTEND series=2 points=0.42,0.44,0.40");
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE((*v)["ok"].as_bool()) << v->Dump();
    expected_len += 3;
    EXPECT_DOUBLE_EQ((*v)["length"].as_number(),
                     static_cast<double>(expected_len));
    EXPECT_GT((*v)["new_members"].as_number(), 0.0);
  }

  Result<json::Value> drift = client.Call("DRIFT");
  ASSERT_TRUE(drift.ok());
  ASSERT_TRUE((*drift)["ok"].as_bool()) << drift->Dump();
  EXPECT_TRUE((*drift)["prepared"].as_bool());
  EXPECT_FALSE((*drift)["classes"].as_array().empty());

  // The newest tail is searchable exactly.
  Result<json::Value> m = client.Call("MATCH q=2:17:8 exhaustive=1");
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)["ok"].as_bool()) << m->Dump();
  EXPECT_NEAR((*m)["match"]["normalized_dtw"].as_number(), 0.0, 1e-9);

  // And STATS reflects the grown collection plus maintenance counters.
  Result<json::Value> stats = client.Call("STATS");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE((*stats)["ok"].as_bool());
  EXPECT_DOUBLE_EQ((*stats)["max_length"].as_number(), 25.0);
  EXPECT_TRUE((*stats)["last_max_drift"].is_number());
}

TEST_F(ServerTest, ExtendRacesRepreparationWithoutLostWrites) {
  // EXTEND-vs-PREPARE over the wire: one connection streams tails while
  // another re-prepares the same dataset. Every acknowledged EXTEND must
  // survive (the conditional-install loop retries on lost races), and the
  // final collection length must equal the seed plus every appended point.
  OnexClient setup = Connect();
  ASSERT_TRUE((*setup.Call("GEN live sine num=4 len=14 seed=4"))["ok"]
                  .as_bool());
  ASSERT_TRUE((*setup.Call("PREPARE live st=0.2 maxlen=8"))["ok"].as_bool());

  constexpr int kTicks = 10;
  std::atomic<int> extend_failures{0};
  std::thread extender([this, &extend_failures] {
    Result<OnexClient> client =
        OnexClient::Connect("127.0.0.1", server_->port());
    if (!client.ok()) {
      extend_failures.fetch_add(kTicks);
      return;
    }
    for (int i = 0; i < kTicks; ++i) {
      Result<json::Value> v =
          client->Call("EXTEND live series=0 points=0.5,0.6");
      if (!v.ok() || !(*v)["ok"].as_bool()) extend_failures.fetch_add(1);
    }
  });
  std::thread preparer([this] {
    Result<OnexClient> client =
        OnexClient::Connect("127.0.0.1", server_->port());
    if (!client.ok()) return;
    for (int i = 0; i < 4; ++i) {
      // Alternate thresholds so each PREPARE really rebuilds.
      (void)client->Call(i % 2 == 0 ? "PREPARE live st=0.25 maxlen=8"
                                    : "PREPARE live st=0.2 maxlen=8");
    }
  });
  extender.join();
  preparer.join();

  EXPECT_EQ(extend_failures.load(), 0);
  Result<json::Value> stats = setup.Call("STATS live");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE((*stats)["ok"].as_bool()) << stats->Dump();
  // Series 0 started at 14 and gained 2 points per acknowledged tick.
  EXPECT_DOUBLE_EQ((*stats)["max_length"].as_number(),
                   static_cast<double>(14 + 2 * kTicks));
  // The surviving base covers the grown space consistently.
  Result<json::Value> match = setup.Call("MATCH live q=0:26:8 exhaustive=1");
  ASSERT_TRUE(match.ok());
  EXPECT_TRUE((*match)["ok"].as_bool()) << match->Dump();
}

TEST_F(ServerTest, UseStateIsPerConnection) {
  OnexClient first = Connect();
  ASSERT_TRUE((*first.Call("GEN a sine num=4 len=16"))["ok"].as_bool());
  ASSERT_TRUE((*first.Call("PREPARE a st=0.2 maxlen=8"))["ok"].as_bool());
  ASSERT_TRUE((*first.Call("USE a"))["ok"].as_bool());
  ASSERT_TRUE((*first.Call("MATCH q=0:2:8"))["ok"].as_bool());

  // A second connection shares the engine but not the session default.
  OnexClient second = Connect();
  Result<json::Value> v = second.Call("MATCH q=0:2:8");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE((*v)["ok"].as_bool());
  EXPECT_EQ((*v)["code"].as_string(), "InvalidArgument");
  // But it can name the dataset explicitly.
  v = second.Call("MATCH a q=0:2:8");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE((*v)["ok"].as_bool()) << v->Dump();
}

TEST_F(ServerTest, QuitClosesTheConnection) {
  OnexClient client = Connect();
  Result<json::Value> v = client.Call("QUIT");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE((*v)["bye"].as_bool());
  // Further calls fail: the server hung up.
  Result<json::Value> after = client.Call("PING");
  EXPECT_FALSE(after.ok());
}

TEST_F(ServerTest, StopUnblocksConnectedClients) {
  OnexClient client = Connect();
  ASSERT_TRUE(client.Call("PING").ok());
  server_->Stop();
  // The stopped server must not accept new connections.
  Result<OnexClient> late = OnexClient::Connect("127.0.0.1", server_->port());
  if (late.ok()) {
    EXPECT_FALSE(late->Call("PING").ok());
  }
}

TEST_F(ServerTest, DoubleStartFails) {
  EXPECT_EQ(server_->Start(0).code(), StatusCode::kFailedPrecondition);
}

TEST(ServerLifecycleTest, StopWithoutStartIsSafe) {
  Engine engine;
  ReactorServer server(&engine);
  server.Stop();  // no-op
  SUCCEED();
}

TEST(ServerLifecycleTest, RestartAfterStop) {
  Engine engine;
  ReactorServer server(&engine);
  ASSERT_TRUE(server.Start(0).ok());
  const std::uint16_t old_port = server.port();
  server.Stop();
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_TRUE(server.running());
  (void)old_port;
  Result<OnexClient> client = OnexClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Call("PING").ok());
  server.Stop();
}

TEST(LineReaderTest, UnterminatedFloodHitsTheCapNotMemory) {
  // A peer streaming bytes with no newline must get an error once the
  // per-line cap is hit — the buffer must not grow without bound
  // (protocol.h's anti-allocation contract).
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket writer(fds[0]);
  Socket receiver(fds[1]);
  LineReader reader(&receiver, /*max_line_bytes=*/64u << 10);

  std::thread feeder([&writer] {
    const std::string chunk(64u << 10, 'A');
    (void)writer.SendAll(chunk);  // reader consumes this past the cap
    (void)writer.SendAll(chunk);  // parks in the kernel buffer
  });
  const Result<std::string> line = reader.ReadLine();
  EXPECT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), StatusCode::kIoError);
  feeder.join();
}

TEST(LineReaderTest, LineWithinTheCapStillParses) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket writer(fds[0]);
  Socket receiver(fds[1]);
  LineReader reader(&receiver, /*max_line_bytes=*/64u << 10);
  const std::string payload(32u << 10, 'B');
  ASSERT_TRUE(writer.SendAll(payload + "\n").ok());
  const Result<std::string> line = reader.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(*line, payload);
}

/// End-to-end restart (DESIGN.md §13): drive a full session against a
/// durable server, stop it, start a NEW engine on the same data dir,
/// reconnect, and get byte-identical query answers — the paper's
/// interactive loop surviving the server.
TEST(ServerRestartTest, DurableServerAnswersIdenticallyAfterRestart) {
  const std::string dir = ::testing::TempDir() + "/onex_server_restart";
  std::filesystem::remove_all(dir);
  DurabilityOptions durability;
  durability.dir = dir;
  durability.fsync = false;

  const std::vector<std::string> battery = {
      "MATCH demo q=0:2:8",
      "KNN demo q=1:0:6 k=3",
      "KNN demo q=2:3:8 k=2 exhaustive=1",
      "STATS demo",
      "DRIFT demo",
      "CATALOG demo points=6",
  };
  auto run_battery = [&battery](OnexClient& client) {
    std::vector<std::string> out;
    for (const std::string& line : battery) {
      Result<json::Value> v = client.Call(line);
      EXPECT_TRUE(v.ok()) << line;
      if (!v.ok()) continue;
      EXPECT_TRUE((*v)["ok"].as_bool()) << line << ": " << v->Dump();
      // Scrub wall-clock and process-lifetime telemetry before comparing:
      // elapsed_ms measures this call, "checkpoints" counts checkpoints
      // performed by this process. Everything else must match exactly.
      std::string filtered = std::move(v)->Dump();
      for (const char* key : {"\"elapsed_ms\":", "\"checkpoints\":"}) {
        std::string next;
        std::size_t pos = 0;
        while (pos < filtered.size()) {
          const std::size_t hit = filtered.find(key, pos);
          if (hit == std::string::npos) {
            next += filtered.substr(pos);
            break;
          }
          next += filtered.substr(pos, hit - pos);
          std::size_t end = filtered.find_first_of(",}", hit);
          if (end != std::string::npos && filtered[end] == ',') ++end;
          pos = end == std::string::npos ? filtered.size() : end;
        }
        filtered = std::move(next);
      }
      out.push_back(std::move(filtered));
    }
    return out;
  };

  std::vector<std::string> before;
  {
    Engine engine;
    ASSERT_TRUE(engine.EnableDurability(durability).ok());
    ReactorServer server(&engine);
    ASSERT_TRUE(server.Start(0).ok());
    Result<OnexClient> client =
        OnexClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    for (const char* line : {
             "GEN demo sine num=6 len=18 seed=5",
             "PREPARE demo st=0.2 maxlen=10",
             "EXTEND demo series=0 points=0.5,0.6,0.7",
             "APPEND demo v=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8",
             "CHECKPOINT demo",
             "EXTEND demo series=1 points=0.15,0.25",
         }) {
      Result<json::Value> v = client->Call(line);
      ASSERT_TRUE(v.ok()) << line;
      ASSERT_TRUE((*v)["ok"].as_bool()) << line << ": " << v->Dump();
    }
    before = run_battery(*client);
    // STATS over the wire reports durability.
    Result<json::Value> stats = client->Call("STATS demo");
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE((*stats)["durable"].as_bool());
    server.Stop();
  }

  // A NEW engine on the same data dir: recovery, then identical answers.
  {
    Engine engine;
    ASSERT_TRUE(engine.EnableDurability(durability).ok());
    ReactorServer server(&engine);
    ASSERT_TRUE(server.Start(0).ok());
    Result<OnexClient> client =
        OnexClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    const std::vector<std::string> after = run_battery(*client);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i], after[i]) << "battery line: " << battery[i];
    }
    server.Stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(ClientTest, ConnectToClosedPortFails) {
  // Port 1 on loopback is essentially never listening.
  Result<OnexClient> client = OnexClient::Connect("127.0.0.1", 1);
  EXPECT_FALSE(client.ok());
}

TEST(ClientTest, BadAddressFails) {
  Result<Socket> sock = ConnectTcp("not-an-ip", 80);
  EXPECT_FALSE(sock.ok());
  EXPECT_EQ(sock.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace onex::net
