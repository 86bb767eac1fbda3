/// ReactorServer: the epoll serving path end-to-end over real sockets —
/// text-session parity with the in-process executor, BIN
/// negotiation and text/binary response equivalence, pipelined out-of-order
/// completion by request id, deadline-expired queries, slow-reader
/// backpressure disconnects, mid-request disconnects, and METRICS sanity.
/// Runs under ASan and TSan in CI.
#include "onex/net/reactor.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/json/json.h"
#include "onex/net/client.h"
#include "onex/net/frame.h"
#include "onex/net/metrics.h"
#include "onex/net/socket.h"

namespace onex::net {
namespace {

/// Strips fields that legitimately differ between two executions of the
/// same command (wall-clock timings). Everything else must be identical.
void ScrubVolatile(json::Value* v) {
  if (v->is_object()) {
    v->mutable_object().erase("elapsed_ms");
    v->mutable_object().erase("build_seconds");
    v->mutable_object().erase("uptime_s");
    for (auto& entry : v->mutable_object()) ScrubVolatile(&entry.second);
  } else if (v->is_array()) {
    for (auto& entry : v->mutable_array()) ScrubVolatile(&entry);
  }
}

std::string Scrubbed(json::Value v) {
  ScrubVolatile(&v);
  return v.Dump();
}

/// The session script both parity tests replay: every protocol area with a
/// deterministic response (seeded GEN, exhaustive and cascade MATCH, KNN,
/// BATCH, errors, catalog/overview reports).
std::vector<std::string> SessionScript() {
  return {
      "PING",
      "GEN demo sine num=6 len=24 seed=5",
      "PREPARE demo st=0.2 maxlen=12",
      "USE demo",
      "STATS",
      "MATCH q=0:2:8",
      "MATCH q=0:2:8 exhaustive=1",
      "KNN q=1:0:10 k=3",
      "BATCH q=0:0:8;1:2:8 k=2",
      "OVERVIEW top=4",
      "CATALOG points=6",
      "SEASONAL series=0 length=8",
      "ANOMALY top=4 minpts=2",
      "CHANGEPOINT series=0 hazard=0.05 maxrun=32 last=16",
      "MOTIF top=3 discords=2",
      "FORECAST series=1 horizon=4 k=2",
      "FORECAST series=1 horizon=3 method=seasonal period=6",
      "ANOMALY eps=nan",
      "FORECAST series=0 horizon=99999999",
      "NOT_A_COMMAND foo",
      "MATCH q=999:0:8",
      "LIST",
      "DATASETS",
  };
}

class ReactorTest : public ::testing::Test {
 protected:
  void StartServer(ReactorOptions options = {}) {
    server_ = std::make_unique<ReactorServer>(&engine_, options);
    ASSERT_TRUE(server_->Start(0).ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  OnexClient Connect() {
    Result<OnexClient> client =
        OnexClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  Engine engine_;
  std::unique_ptr<ReactorServer> server_;
};

/// The oracle is what a text session is by definition: each line parsed
/// and executed in process, in order, over one Session.
TEST_F(ReactorTest, TextSessionMatchesInProcessExecutorByteForByte) {
  StartServer();
  Engine oracle_engine;
  Session oracle_session;

  OnexClient reactor_client = Connect();
  for (const std::string& line : SessionScript()) {
    Result<json::Value> a = reactor_client.Call(line);
    ASSERT_TRUE(a.ok()) << line << ": " << a.status();
    Result<Command> cmd = ParseCommandLine(line);
    ASSERT_TRUE(cmd.ok()) << line;
    const json::Value b =
        ExecuteCommand(&oracle_engine, &oracle_session, *cmd);
    EXPECT_EQ(Scrubbed(*a), Scrubbed(b)) << line;
  }
}

TEST_F(ReactorTest, BinaryResponsesAreByteIdenticalToText) {
  StartServer();
  // Separate engines: the script contains mutators (GEN), which would
  // collide if both dialects replayed it against shared state.
  Engine bin_engine;
  ReactorServer bin_server(&bin_engine);
  ASSERT_TRUE(bin_server.Start(0).ok());

  OnexClient text_client = Connect();
  Result<OnexClient> bin_connected =
      OnexClient::Connect("127.0.0.1", bin_server.port());
  ASSERT_TRUE(bin_connected.ok());
  OnexClient bin_client = std::move(bin_connected).value();
  ASSERT_TRUE(bin_client.UpgradeBinary().ok());
  ASSERT_TRUE(bin_client.binary());

  for (const std::string& line : SessionScript()) {
    Result<json::Value> t = text_client.Call(line);
    Result<json::Value> b = bin_client.Call(line);
    ASSERT_TRUE(t.ok()) << line << ": " << t.status();
    ASSERT_TRUE(b.ok()) << line << ": " << b.status();
    // The JSON body is identical across dialects; the frame only adds the
    // raw value section around it.
    EXPECT_EQ(Scrubbed(*t), Scrubbed(*b)) << line;
  }
  bin_server.Stop();
}

TEST_F(ReactorTest, BinaryMatchCarriesValuesSlicedByMatchLength) {
  StartServer();
  OnexClient client = Connect();
  ASSERT_TRUE(client.Call("GEN demo sine num=4 len=24 seed=3").ok());
  ASSERT_TRUE(client.Call("PREPARE demo st=0.2 maxlen=12").ok());
  ASSERT_TRUE(client.UpgradeBinary().ok());

  WireRequest knn;
  knn.command = "KNN demo q=0:0:10 k=3";
  Result<WireResponse> r = client.CallWire(knn);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->body["ok"].as_bool()) << r->body.Dump();
  const auto& matches = r->body["matches"].as_array();
  ASSERT_FALSE(matches.empty());
  std::size_t expected_values = 0;
  for (const auto& m : matches) {
    expected_values += static_cast<std::size_t>(m["length"].as_number());
  }
  // The frame's value section concatenates each match's normalized values
  // in match order; the per-match "length" fields slice it apart.
  EXPECT_EQ(r->values.size(), expected_values);
}

TEST_F(ReactorTest, PipelinedRequestsMatchByRequestId) {
  StartServer();
  OnexClient client = Connect();
  ASSERT_TRUE(client.Call("GEN demo sine num=8 len=24 seed=9").ok());
  ASSERT_TRUE(client.Call("PREPARE demo st=0.2 maxlen=12").ok());
  ASSERT_TRUE(client.UpgradeBinary().ok());

  // 64 queries, each against a distinct series: if responses were matched
  // to the wrong request the series field would betray it instantly.
  std::vector<WireRequest> requests(64);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].command =
        "MATCH demo q=" + std::to_string(i % 8) + ":0:10 exhaustive=1";
  }
  Result<std::vector<WireResponse>> replies = client.SendMany(requests, 16);
  ASSERT_TRUE(replies.ok()) << replies.status();
  ASSERT_EQ(replies->size(), requests.size());
  for (std::size_t i = 0; i < replies->size(); ++i) {
    const json::Value& body = (*replies)[i].body;
    ASSERT_TRUE(body["ok"].as_bool()) << body.Dump();
    // Exhaustive self-match: the best match for series k's prefix is in
    // series k at offset 0.
    EXPECT_EQ(static_cast<std::size_t>(body["match"]["series"].as_number()),
              i % 8)
        << i;
  }
}

TEST_F(ReactorTest, MutatorsActAsPipelineBarriers) {
  StartServer();
  OnexClient client = Connect();
  ASSERT_TRUE(client.UpgradeBinary().ok());
  // PREPARE (mutator) pipelined ahead of the MATCHes that need its base:
  // the barrier guarantees they see the prepared dataset.
  std::vector<WireRequest> requests;
  requests.push_back({"GEN demo sine num=6 len=24 seed=5", {}});
  requests.push_back({"PREPARE demo st=0.2 maxlen=12", {}});
  for (int i = 0; i < 8; ++i) {
    requests.push_back({"MATCH demo q=0:2:8", {}});
  }
  Result<std::vector<WireResponse>> replies = client.SendMany(requests);
  ASSERT_TRUE(replies.ok()) << replies.status();
  for (std::size_t i = 0; i < replies->size(); ++i) {
    EXPECT_TRUE((*replies)[i].body["ok"].as_bool())
        << i << ": " << (*replies)[i].body.Dump();
  }
  // Read-only requests in one pipelined run execute in any order, so the
  // query count is only observable after the run drains: every MATCH
  // answered means every MATCH executed against the prepared dataset.
  WireRequest stats;
  stats.command = "STATS demo";
  Result<WireResponse> s = client.CallWire(stats);
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->body["queries"].as_number(), 8.0) << s->body.Dump();
}

TEST_F(ReactorTest, BinaryAppendAndExtendPayloadsMatchTextOptions) {
  StartServer();
  OnexClient text_client = Connect();
  OnexClient bin_client = Connect();
  ASSERT_TRUE(bin_client.UpgradeBinary().ok());

  // Two identical datasets, one mutated through ASCII options, the other
  // through raw frame payloads. Their states must end up identical.
  for (const char* name : {"ta", "tb"}) {
    Result<json::Value> gen = text_client.Call(
        std::string("GEN ") + name + " sine num=4 len=24 seed=7");
    ASSERT_TRUE(gen.ok() && (*gen)["ok"].as_bool());
    ASSERT_TRUE(text_client.Call(std::string("PREPARE ") + name +
                                 " st=0.2 maxlen=12")
                    .ok());
  }

  Result<json::Value> a =
      text_client.Call("APPEND ta series=x v=0.1,0.2,0.3,0.4,0.5,0.6");
  ASSERT_TRUE(a.ok() && (*a)["ok"].as_bool()) << a->Dump();
  WireRequest append;
  append.command = "APPEND tb series=x";
  append.values = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  Result<WireResponse> b = bin_client.CallWire(append);
  ASSERT_TRUE(b.ok() && b->body["ok"].as_bool()) << b->body.Dump();
  json::Value av = *a, bv = b->body;
  av.mutable_object().erase("dataset");
  bv.mutable_object().erase("dataset");
  EXPECT_EQ(Scrubbed(av), Scrubbed(bv));

  Result<json::Value> ea =
      text_client.Call("EXTEND ta series=0 points=0.25,0.5,0.75");
  ASSERT_TRUE(ea.ok() && (*ea)["ok"].as_bool()) << ea->Dump();
  WireRequest extend;
  extend.command = "EXTEND tb series=0";
  extend.values = {0.25, 0.5, 0.75};
  Result<WireResponse> eb = bin_client.CallWire(extend);
  ASSERT_TRUE(eb.ok() && eb->body["ok"].as_bool()) << eb->body.Dump();
  json::Value eav = *ea, ebv = eb->body;
  eav.mutable_object().erase("dataset");
  ebv.mutable_object().erase("dataset");
  EXPECT_EQ(Scrubbed(eav), Scrubbed(ebv));

  Result<json::Value> sa = text_client.Call("STATS ta");
  Result<json::Value> sb = text_client.Call("STATS tb");
  ASSERT_TRUE(sa.ok() && sb.ok());
  ScrubVolatile(&*sa);
  ScrubVolatile(&*sb);
  sa->mutable_object().erase("dataset");
  sb->mutable_object().erase("dataset");
  EXPECT_EQ(sa->Dump(), sb->Dump());
}

TEST_F(ReactorTest, DeadlineExpiredQueryAnswersDeadlineExceeded) {
  StartServer();
  OnexClient client = Connect();
  ASSERT_TRUE(client.Call("GEN demo walk num=20 len=60 seed=11").ok());
  ASSERT_TRUE(client.UpgradeBinary().ok());

  // The deadline counts from *arrival*. Pipelining the query behind a
  // multi-millisecond PREPARE barrier guarantees its 1 ms budget is spent
  // in the queue, so the first cascade stage boundary cancels it —
  // deterministically, regardless of host speed.
  std::vector<WireRequest> requests;
  requests.push_back({"PREPARE demo st=0.15 minlen=4 maxlen=32", {}});
  requests.push_back({"MATCH demo q=0:0:24 deadline_ms=1", {}});
  requests.push_back({"MATCH demo q=0:0:24", {}});  // no deadline: must work
  Result<std::vector<WireResponse>> replies = client.SendMany(requests);
  ASSERT_TRUE(replies.ok()) << replies.status();
  ASSERT_TRUE((*replies)[0].body["ok"].as_bool());
  const json::Value& expired = (*replies)[1].body;
  EXPECT_FALSE(expired["ok"].as_bool()) << expired.Dump();
  EXPECT_EQ(expired["code"].as_string(), "DeadlineExceeded")
      << expired.Dump();
  EXPECT_TRUE((*replies)[2].body["ok"].as_bool())
      << (*replies)[2].body.Dump();
  EXPECT_GE(server_->metrics().deadline_expired(), 1u);

  // An expired deadline is a per-request error, not a session error.
  Result<json::Value> ping = client.Call("PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE((*ping)["ok"].as_bool());
}

TEST_F(ReactorTest, NegativeDeadlineIsInvalidArgument) {
  StartServer();
  OnexClient client = Connect();
  ASSERT_TRUE(client.Call("GEN demo sine num=4 len=24 seed=3").ok());
  ASSERT_TRUE(client.Call("PREPARE demo st=0.2 maxlen=12").ok());
  Result<json::Value> v = client.Call("MATCH demo q=0:0:8 deadline_ms=-5");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE((*v)["ok"].as_bool());
  EXPECT_EQ((*v)["code"].as_string(), "InvalidArgument");
}

TEST_F(ReactorTest, SlowReaderIsDisconnectedAfterGrace) {
  ReactorOptions options;
  options.outbox_high_bytes = 16 << 10;  // trip backpressure fast
  options.outbox_hard_bytes = 64 << 20;
  options.slow_reader_grace_ms = 300;
  StartServer(options);

  {
    OnexClient setup = Connect();
    Result<json::Value> gen = setup.Call("GEN big walk num=200 len=200");
    ASSERT_TRUE(gen.ok() && (*gen)["ok"].as_bool());
  }

  // A raw socket that pipelines hundreds of catalog dumps (~100 KB each)
  // and never reads a byte. Once kernel buffers fill, the outbox jams
  // above the watermark, write progress stops, and the grace expires.
  Result<Socket> raw = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  std::string burst;
  for (int i = 0; i < 400; ++i) burst += "CATALOG big\n";
  ASSERT_TRUE(raw->SendAll(burst).ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server_->metrics().slow_reader_disconnects() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server_->metrics().slow_reader_disconnects(), 1u);

  // The server sheds the stalled peer and keeps serving everyone else.
  OnexClient healthy = Connect();
  Result<json::Value> ping = healthy.Call("PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE((*ping)["ok"].as_bool());
}

TEST_F(ReactorTest, MidRequestDisconnectCancelsAndSurvives) {
  StartServer();
  {
    OnexClient setup = Connect();
    ASSERT_TRUE(setup.Call("GEN demo walk num=20 len=100 seed=2").ok());
    Result<json::Value> prep = setup.Call("PREPARE demo st=0.15 maxlen=40");
    ASSERT_TRUE(prep.ok() && (*prep)["ok"].as_bool());
  }
  // Fire a pipeline of heavy queries and vanish before any response.
  {
    Result<Socket> raw = ConnectTcp("127.0.0.1", server_->port());
    ASSERT_TRUE(raw.ok());
    std::string burst;
    for (int i = 0; i < 50; ++i) {
      burst += "KNN demo q=0:0:40 k=5 exhaustive=1\n";
    }
    ASSERT_TRUE(raw->SendAll(burst).ok());
    raw->Close();  // mid-request disconnect
  }
  // The reactor observes the disconnect; in-flight queries cancel at the
  // next cascade boundary and the server keeps answering.
  OnexClient client = Connect();
  Result<json::Value> v = client.Call("MATCH demo q=0:0:16");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE((*v)["ok"].as_bool()) << v->Dump();
}

TEST_F(ReactorTest, QuitEndsTheSessionAfterTheByeResponse) {
  StartServer();
  OnexClient client = Connect();
  Result<json::Value> bye = client.Call("QUIT");
  ASSERT_TRUE(bye.ok());
  EXPECT_TRUE((*bye)["ok"].as_bool());
  EXPECT_TRUE((*bye)["bye"].as_bool());
  Result<json::Value> after = client.Call("PING");
  EXPECT_FALSE(after.ok());  // connection gone
}

TEST_F(ReactorTest, ThousandIdleConnectionsAndMetricsSanity) {
  StartServer();
  std::vector<Socket> idle;
  idle.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    Result<Socket> s = ConnectTcp("127.0.0.1", server_->port());
    ASSERT_TRUE(s.ok()) << "connection " << i << ": " << s.status();
    idle.push_back(std::move(*s));
  }
  // Idle connections cost fds, not threads; the serving path stays live.
  OnexClient client = Connect();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->metrics().connections_live() < 1001 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // A request before METRICS: the snapshot is taken before the METRICS
  // request itself is recorded, so a fresh server would report zero.
  Result<json::Value> warm = client.Call("PING");
  ASSERT_TRUE(warm.ok() && (*warm)["ok"].as_bool());
  Result<json::Value> m = client.Call("METRICS");
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)["ok"].as_bool());
  EXPECT_GE((*m)["connections"]["live"].as_number(), 1001.0);
  EXPECT_GE((*m)["connections"]["peak"].as_number(), 1001.0);
  EXPECT_GE((*m)["requests"].as_number(), 1.0);
  EXPECT_TRUE((*m)["verbs"]["METRICS"].is_object() ||
              (*m)["verbs"]["PING"].is_object());

  Result<json::Value> ping = client.Call("PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE((*ping)["ok"].as_bool());
}

TEST_F(ReactorTest, MetricsCountVerbsAndLatencies) {
  StartServer();
  OnexClient client = Connect();
  for (int i = 0; i < 10; ++i) {
    Result<json::Value> v = client.Call("PING");
    ASSERT_TRUE(v.ok() && (*v)["ok"].as_bool());
  }
  Result<json::Value> m = client.Call("METRICS");
  ASSERT_TRUE(m.ok());
  const json::Value& ping_stats = (*m)["verbs"]["PING"];
  ASSERT_TRUE(ping_stats.is_object()) << m->Dump();
  EXPECT_EQ(ping_stats["count"].as_number(), 10.0);
  EXPECT_GE(ping_stats["p99_ms"].as_number(),
            ping_stats["p50_ms"].as_number());
  EXPECT_GE((*m)["bytes_in"].as_number(), 10.0 * 5);
  EXPECT_GE((*m)["bytes_out"].as_number(), 10.0 * 10);
}

/// Regression (nearest-rank percentiles): one slow request among many fast
/// ones must surface in the tail. The old floor(p * (count-1)) walk
/// truncated the rank, so p99 of {10 x 2us, 1 x 100ms} reported the 2us
/// bucket and a latency spike was invisible in METRICS.
TEST(ServerMetricsTest, TailPercentilesUseNearestRank) {
  ServerMetrics metrics;
  const std::size_t ping = VerbSlot(FindVerb("PING"));
  for (int i = 0; i < 10; ++i) {
    metrics.RecordRequest(ping, 0.002, /*deadline_expired=*/false);
  }
  metrics.RecordRequest(ping, 100.0, /*deadline_expired=*/false);

  const json::Value m = metrics.ToJson();
  const json::Value& stats = m["verbs"]["PING"];
  ASSERT_TRUE(stats.is_object()) << m.Dump();
  EXPECT_EQ(stats["count"].as_number(), 11.0);
  // p50 stays in the fast bucket; p99 must land in the 100ms bucket
  // (rank ceil(0.99 * 11) = 11, the slowest sample).
  EXPECT_LT(stats["p50_ms"].as_number(), 1.0);
  EXPECT_GT(stats["p99_ms"].as_number(), 50.0);
  // p95: rank ceil(0.95 * 11) = 11 as well — also the slow sample.
  EXPECT_GT(stats["p95_ms"].as_number(), 50.0);

  // With the tail fattened to 2 of 12, p50 still reports the fast bucket.
  metrics.RecordRequest(ping, 100.0, false);
  const json::Value m2 = metrics.ToJson();
  EXPECT_LT(m2["verbs"]["PING"]["p50_ms"].as_number(), 1.0);
}

/// Regression (zero-traffic percentile walk): before any request completes,
/// METRICS must report requests=0 and an empty verbs object — never a
/// first-bucket-midpoint percentile conjured from an all-zero histogram.
TEST(ServerMetricsTest, NoTrafficReportsNoPercentiles) {
  ServerMetrics metrics;
  const json::Value m = metrics.ToJson();
  EXPECT_EQ(m["requests"].as_number(), 0.0);
  ASSERT_TRUE(m["verbs"].is_object());
  EXPECT_TRUE(m["verbs"].as_object().empty()) << m.Dump();
}

TEST_F(ReactorTest, MetricsBeforeAnyTrafficAreAllZero) {
  StartServer();
  OnexClient client = Connect();
  // The very first request on the server: the snapshot is taken before the
  // METRICS request itself is recorded, so everything reads zero.
  Result<json::Value> m = client.Call("METRICS");
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)["ok"].as_bool());
  EXPECT_EQ((*m)["requests"].as_number(), 0.0);
  EXPECT_EQ((*m)["deadline_expired"].as_number(), 0.0);
  ASSERT_TRUE((*m)["verbs"].is_object());
  EXPECT_TRUE((*m)["verbs"].as_object().empty()) << m->Dump();
}

TEST_F(ReactorTest, StopWithInFlightWorkDrainsCleanly) {
  StartServer();
  OnexClient client = Connect();
  ASSERT_TRUE(client.Call("GEN demo walk num=20 len=100 seed=4").ok());
  // Queue a slow barrier plus queries behind it, then stop mid-flight.
  std::vector<WireRequest> requests;
  requests.push_back({"PREPARE demo st=0.15 maxlen=40", {}});
  for (int i = 0; i < 20; ++i) {
    requests.push_back({"KNN demo q=0:0:40 k=5 exhaustive=1", {}});
  }
  std::string burst;  // fire-and-forget: bypass SendMany's response reads
  for (const WireRequest& r : requests) {
    Frame f;
    f.type = FrameType::kRequest;
    f.request_id = 1;
    f.text = r.command;
    burst += EncodeFrame(f);
  }
  Result<Socket> raw = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  // The BIN line flips the parse boundary; the frames ride the same write.
  ASSERT_TRUE(raw->SendAll("BIN\n" + burst).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Stop();  // must drain executor tasks before returning
  SUCCEED();
}

TEST_F(ReactorTest, TextPipelineStaysInOrderWithoutIds) {
  StartServer();
  OnexClient client = Connect();
  ASSERT_TRUE(client.Call("GEN demo sine num=4 len=24 seed=6").ok());
  ASSERT_TRUE(client.Call("PREPARE demo st=0.2 maxlen=12").ok());
  // Text dialect: SendMany pipelines the writes but responses must come
  // back strictly positional.
  std::vector<WireRequest> requests;
  for (int i = 0; i < 32; ++i) {
    requests.push_back(
        {"MATCH demo q=" + std::to_string(i % 4) + ":0:10 exhaustive=1", {}});
  }
  Result<std::vector<WireResponse>> replies = client.SendMany(requests, 8);
  ASSERT_TRUE(replies.ok()) << replies.status();
  for (std::size_t i = 0; i < replies->size(); ++i) {
    const json::Value& body = (*replies)[i].body;
    ASSERT_TRUE(body["ok"].as_bool()) << body.Dump();
    EXPECT_EQ(static_cast<std::size_t>(body["match"]["series"].as_number()),
              i % 4)
        << i;
  }
}

}  // namespace
}  // namespace onex::net
