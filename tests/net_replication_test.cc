/// WAL shipping (DESIGN.md §16): the AppendAt/ApplyReplicated contract that
/// makes a replica bit-identical to its primary, the REPLAPPLY batch codec's
/// corruption rejection, end-to-end hub streaming (catch-up from the WAL
/// file plus live tail) into a real reactor server, and the SendManyTracked
/// per-request completion map a coordinator uses to survive a mid-stream
/// transport death. Runs under ASan and TSan in CI.
#include "onex/net/replication.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "onex/engine/engine.h"
#include "onex/engine/wal.h"
#include "onex/json/json.h"
#include "onex/net/client.h"
#include "onex/net/protocol.h"
#include "onex/net/reactor.h"
#include "onex/net/socket.h"

namespace onex::net {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string WalPath(const std::string& dir, const std::string& dataset) {
  return dir + "/" + SlotDirName(dataset) + "/wal";
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

json::Value Exec(Engine* engine, Session* session, const std::string& line) {
  Result<Command> cmd = ParseCommandLine(line);
  EXPECT_TRUE(cmd.ok()) << line;
  return ExecuteCommand(engine, session, *cmd);
}

/// One journaled mutation history: what every replication test replays.
const std::vector<std::string>& PrimaryScript() {
  static const std::vector<std::string> script = {
      "GEN s sine num=5 len=32 seed=11",
      "PREPARE s st=0.2 maxlen=16",
      "APPEND s series=x v=0.1,0.2,0.35,0.5,0.4,0.3,0.2,0.1",
      "EXTEND s series=0 points=0.25,0.5,0.75",
  };
  return script;
}

TEST(WalAppendAtTest, PreservesPrimarySeqAndRejectsGaps) {
  const std::string dir = ::testing::TempDir() + "/onex_appendat";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/wal";
  Result<WalWriter> writer = WalWriter::Create(path, "s", /*sync=*/false);
  ASSERT_TRUE(writer.ok()) << writer.status();

  WalRecord r1 = WalRegroupRecord({4});
  r1.seq = 1;
  WalRecord r2 = WalRegroupRecord({6});
  r2.seq = 2;
  EXPECT_TRUE(writer->AppendAt(r1).ok());
  EXPECT_TRUE(writer->AppendAt(r2).ok());
  EXPECT_EQ(writer->next_seq(), 3u);

  // A gap means the stream skipped acknowledged history: refuse, do not
  // paper over.
  WalRecord gap = WalRegroupRecord({4});
  gap.seq = 4;
  const Status s = writer->AppendAt(gap);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  // A replayed duplicate is equally a caller bug at this layer (the
  // duplicate filter lives in ApplyReplicated, above the writer).
  WalRecord dup = WalRegroupRecord({4});
  dup.seq = 2;
  EXPECT_FALSE(writer->AppendAt(dup).ok());

  // The rejects left no partial line behind: the file scans clean with
  // exactly the two accepted records.
  Result<WalScan> scan = ScanWalFile(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->records.size(), 2u);
  EXPECT_FALSE(scan->torn_tail);
  std::filesystem::remove_all(dir);
}

TEST(ReplBatchCodecTest, RoundTripsTheExactWalLines) {
  WalRecord a = WalRegroupRecord({4});
  WalRecord b = WalRegroupRecord({6});
  WalRecord c = WalRegroupRecord({8, 16});
  a.seq = 7;
  b.seq = 8;
  c.seq = 9;
  const std::vector<std::string> lines = {
      EncodeWalRecord(a), EncodeWalRecord(b), EncodeWalRecord(c)};

  const std::string text = EncodeReplApplyText("s", 7, lines);
  const std::size_t newline = text.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const std::string command_line = text.substr(0, newline);
  const std::string blob = text.substr(newline + 1);

  Result<Command> cmd = ParseCommandLine(command_line);
  ASSERT_TRUE(cmd.ok()) << cmd.status();
  EXPECT_EQ(cmd->verb, "REPLAPPLY");
  EXPECT_EQ(blob, lines[0] + lines[1] + lines[2]);

  Result<std::vector<WalRecord>> decoded =
      DecodeWalBatchBlob(blob, Fnv1a64(blob), 7, 3);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].seq, 7u);
  EXPECT_EQ((*decoded)[0].type, WalRecordType::kRegroup);
  EXPECT_EQ((*decoded)[0].lengths, (std::vector<std::size_t>{4}));
  EXPECT_EQ((*decoded)[2].seq, 9u);
  EXPECT_EQ((*decoded)[2].lengths, (std::vector<std::size_t>{8, 16}));
}

TEST(ReplBatchCodecTest, RejectsEveryCorruptionWithoutReturningRecords) {
  WalRecord a = WalRegroupRecord({4});
  WalRecord b = WalRegroupRecord({6});
  a.seq = 3;
  b.seq = 4;
  const std::string la = EncodeWalRecord(a);
  const std::string lb = EncodeWalRecord(b);
  const std::string blob = la + lb;
  const std::uint64_t crc = Fnv1a64(blob);

  // The control: the untouched batch decodes.
  ASSERT_TRUE(DecodeWalBatchBlob(blob, crc, 3, 2).ok());

  // Batch checksum mismatch.
  EXPECT_FALSE(DecodeWalBatchBlob(blob, crc ^ 1, 3, 2).ok());
  // A flipped byte inside a record (batch crc recomputed, so the per-record
  // checksum is what catches it).
  std::string flipped = blob;
  flipped[5] ^= 0x20;
  EXPECT_FALSE(DecodeWalBatchBlob(flipped, Fnv1a64(flipped), 3, 2).ok());
  // Truncation, with the crc honestly recomputed over the truncated bytes.
  const std::string torn = blob.substr(0, la.size() + lb.size() / 2);
  EXPECT_FALSE(DecodeWalBatchBlob(torn, Fnv1a64(torn), 3, 2).ok());
  // Count disagrees with the lines present.
  EXPECT_FALSE(DecodeWalBatchBlob(blob, crc, 3, 1).ok());
  EXPECT_FALSE(DecodeWalBatchBlob(blob, crc, 3, 3).ok());
  // Reordered lines: valid records, valid crc, broken contiguity.
  const std::string swapped = lb + la;
  EXPECT_FALSE(DecodeWalBatchBlob(swapped, Fnv1a64(swapped), 3, 2).ok());
  // Duplicated line: seq does not advance.
  const std::string doubled = la + la;
  EXPECT_FALSE(DecodeWalBatchBlob(doubled, Fnv1a64(doubled), 3, 2).ok());
  // First-seq disagrees with the first record.
  EXPECT_FALSE(DecodeWalBatchBlob(blob, crc, 4, 2).ok());
}

TEST(ApplyReplicatedTest, ReplicaIsBitIdenticalToPrimaryAtEveryAckedSeq) {
  const std::string dir_p = ::testing::TempDir() + "/onex_repl_primary";
  const std::string dir_r = ::testing::TempDir() + "/onex_repl_replica";
  std::filesystem::remove_all(dir_p);
  std::filesystem::remove_all(dir_r);

  Engine primary;
  Session psession;
  DurabilityOptions popt;
  popt.dir = dir_p;
  popt.fsync = false;
  ASSERT_TRUE(primary.EnableDurability(popt).ok());

  // Capture the sink feed: the exact records and bytes a hub would ship.
  std::vector<std::pair<std::string, WalRecord>> shipped;
  primary.registry().SetWalSink(
      [&shipped](const std::string& dataset, const WalRecord& record,
                 const std::string& encoded) {
        (void)encoded;
        shipped.emplace_back(dataset, record);
      });
  for (const std::string& line : PrimaryScript()) {
    const json::Value v = Exec(&primary, &psession, line);
    ASSERT_TRUE(v["ok"].as_bool()) << line << ": " << v.Dump();
  }
  primary.registry().SetWalSink(nullptr);
  ASSERT_EQ(shipped.size(), PrimaryScript().size());

  Engine replica;
  Session rsession;
  DurabilityOptions ropt;
  ropt.dir = dir_r;
  ropt.fsync = false;
  ASSERT_TRUE(replica.EnableDurability(ropt).ok());
  for (const auto& [dataset, record] : shipped) {
    ASSERT_TRUE(replica.registry().ApplyReplicated(dataset, record).ok())
        << "seq " << record.seq;
  }

  // Byte-identical journals: the replica's WAL is the primary's WAL.
  EXPECT_EQ(ReadFile(WalPath(dir_p, "s")), ReadFile(WalPath(dir_r, "s")));
  Result<SlotDurability> pd = primary.registry().Durability("s");
  Result<SlotDurability> rd = replica.registry().Durability("s");
  ASSERT_TRUE(pd.ok() && rd.ok());
  EXPECT_EQ(pd->last_seq, rd->last_seq);

  // Same answers, down to the last %.17g digit.
  for (const std::string& query :
       {std::string("MATCH s q=0:2:12"), std::string("KNN s q=1:0:10 k=3"),
        std::string("BATCH s q=0:0:8;2:4:12 k=2"),
        std::string("CATALOG s points=6")}) {
    EXPECT_EQ(Scrubbed(Exec(&primary, &psession, query)),
              Scrubbed(Exec(&replica, &rsession, query)))
        << query;
  }

  // Duplicate delivery (at or below the floor) is OK and installs nothing.
  const std::string before = ReadFile(WalPath(dir_r, "s"));
  ASSERT_TRUE(
      replica.registry().ApplyReplicated("s", shipped.back().second).ok());
  EXPECT_EQ(ReadFile(WalPath(dir_r, "s")), before);
  // A gap is a resubscribe signal, never a silent skip.
  WalRecord future = WalRegroupRecord({4});
  future.seq = rd->last_seq + 2;
  const Status gap = replica.registry().ApplyReplicated("s", future);
  EXPECT_FALSE(gap.ok());
  EXPECT_EQ(gap.code(), StatusCode::kFailedPrecondition);

  std::filesystem::remove_all(dir_p);
  std::filesystem::remove_all(dir_r);
}

/// A replica's sequence numbers belong to its primary. Budget pressure on
/// the replica must not consume one: a local record or checkpoint marker at
/// the seq the primary's next write ships at would make that write look
/// like a duplicate delivery and drop it. A slot that has applied a
/// replicated record therefore stays resident.
TEST(ApplyReplicatedTest, ReplicaBudgetNeverSwallowsAShippedWrite) {
  const std::string dir_p = ::testing::TempDir() + "/onex_repl_budget_p";
  const std::string dir_r = ::testing::TempDir() + "/onex_repl_budget_r";
  std::filesystem::remove_all(dir_p);
  std::filesystem::remove_all(dir_r);

  Engine primary;
  Engine replica;
  DurabilityOptions popt;
  popt.dir = dir_p;
  popt.fsync = false;
  DurabilityOptions ropt = popt;
  ropt.dir = dir_r;
  ASSERT_TRUE(primary.EnableDurability(popt).ok());
  ASSERT_TRUE(replica.EnableDurability(ropt).ok());
  std::vector<Status> applied;
  primary.registry().SetWalSink(
      [&replica, &applied](const std::string& dataset, const WalRecord& record,
                           const std::string& encoded) {
        (void)encoded;
        applied.push_back(replica.registry().ApplyReplicated(dataset, record));
      });

  Session psession;
  for (const std::string& line :
       {std::string("GEN D sine num=3 len=24 seed=5"),
        std::string("PREPARE D st=0.2 maxlen=12")}) {
    const json::Value v = Exec(&primary, &psession, line);
    ASSERT_TRUE(v["ok"].as_bool()) << line << ": " << v.Dump();
  }
  replica.registry().SetPreparedBudget(1);
  ASSERT_TRUE(primary.ExtendSeries("D", 0, {0.25, 0.5, 0.75}).ok());
  primary.registry().SetWalSink(nullptr);
  for (const Status& s : applied) EXPECT_TRUE(s.ok()) << s;

  Result<std::shared_ptr<const PreparedDataset>> p = primary.registry().Get("D");
  Result<std::shared_ptr<const PreparedDataset>> r = replica.registry().Get("D");
  ASSERT_TRUE(p.ok() && r.ok());
  const Dataset& praw = *(*p)->raw;
  const Dataset& rraw = *(*r)->raw;
  ASSERT_EQ(praw.size(), rraw.size());
  EXPECT_EQ(praw[0].length(), 27u);
  for (std::size_t s = 0; s < praw.size(); ++s) {
    EXPECT_EQ(praw[s].values(), rraw[s].values()) << "series " << s;
  }
  Result<SlotDurability> pd = primary.registry().Durability("D");
  Result<SlotDurability> rd = replica.registry().Durability("D");
  ASSERT_TRUE(pd.ok() && rd.ok());
  EXPECT_EQ(pd->last_seq, rd->last_seq);
  Result<std::string> tier = replica.registry().Tier("D");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(*tier, "resident");

  std::filesystem::remove_all(dir_p);
  std::filesystem::remove_all(dir_r);
}

TEST(ReplicationHubTest, CatchesUpFromFileThenStreamsLiveTail) {
  const std::string dir_p = ::testing::TempDir() + "/onex_hub_primary";
  const std::string dir_r = ::testing::TempDir() + "/onex_hub_replica";
  std::filesystem::remove_all(dir_p);
  std::filesystem::remove_all(dir_r);

  // Replica: a durable engine behind a real reactor server — REPLHELLO and
  // REPLAPPLY arrive over the wire and run inline on the reactor thread.
  Engine replica;
  DurabilityOptions ropt;
  ropt.dir = dir_r;
  ropt.fsync = false;
  ASSERT_TRUE(replica.EnableDurability(ropt).ok());
  ReactorServer server(&replica);
  ASSERT_TRUE(server.Start(0).ok());

  Engine primary;
  Session psession;
  DurabilityOptions popt;
  popt.dir = dir_p;
  popt.fsync = false;
  ASSERT_TRUE(primary.EnableDurability(popt).ok());
  // History journaled BEFORE the hub exists: the link must fetch it from
  // the WAL file (catch-up), not from its live queue.
  for (const std::string& line : PrimaryScript()) {
    const json::Value v = Exec(&primary, &psession, line);
    ASSERT_TRUE(v["ok"].as_bool()) << line << ": " << v.Dump();
  }

  ReplicationHub::Options hopt;
  hopt.peers = {"127.0.0.1:" + std::to_string(server.port())};
  ReplicationHub hub(&primary, hopt);
  hub.Start();

  // The live append both subscribes the dataset and rides as the tail.
  const json::Value live =
      Exec(&primary, &psession, "EXTEND s series=1 points=0.6,0.7");
  ASSERT_TRUE(live["ok"].as_bool()) << live.Dump();
  Result<SlotDurability> pd = primary.registry().Durability("s");
  ASSERT_TRUE(pd.ok());
  EXPECT_EQ(hub.AwaitReplication("s", pd->last_seq), 1u);

  // Acked ⇒ bit-identical: journal bytes and answers agree.
  EXPECT_EQ(ReadFile(WalPath(dir_p, "s")), ReadFile(WalPath(dir_r, "s")));
  Session rsession;
  for (const std::string& query :
       {std::string("MATCH s q=0:2:12"), std::string("KNN s q=1:0:10 k=3"),
        std::string("STATS s")}) {
    json::Value a = Exec(&primary, &psession, query);
    json::Value b = Exec(&replica, &rsession, query);
    // Process-local telemetry is not replicated: the replica never served
    // the primary's queries, and drift accounting belongs to the live
    // extend path, not the replicated apply. Everything else must match
    // bit for bit.
    if (query == "STATS s") {
      for (const char* counter : {"queries", "last_max_drift"}) {
        a.mutable_object().erase(counter);
        b.mutable_object().erase(counter);
      }
    }
    EXPECT_EQ(Scrubbed(a), Scrubbed(b)) << query;
  }

  hub.Stop();
  server.Stop();
  std::filesystem::remove_all(dir_p);
  std::filesystem::remove_all(dir_r);
}

/// Answers `answer` responses then drops the connection — the deterministic
/// stand-in for a peer that dies mid-pipeline.
void ServeThenDie(ServerSocket* listener, int answers) {
  Result<Socket> conn = listener->Accept();
  if (!conn.ok()) return;
  LineReader reader(&*conn);
  for (int i = 0; i < answers; ++i) {
    if (!reader.ReadLine().ok()) return;
    if (!conn->SendAll("{\"ok\":true,\"pong\":true}\n").ok()) return;
  }
  conn->Close();
}

TEST(SendManyTrackedTest, MidStreamDeathReportsExactlyTheFinishedRequests) {
  Result<ServerSocket> listener = ServerSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server(ServeThenDie, &*listener, 3);

  Result<OnexClient> client =
      OnexClient::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  std::vector<WireRequest> requests(6);
  for (auto& r : requests) r.command = "PING";
  const SendManyOutcome out = client->SendManyTracked(requests, 6);
  server.join();

  // Three responses landed, then the transport died: the outcome keeps the
  // three and names them — a coordinator retries only the other three.
  EXPECT_FALSE(out.status.ok());
  ASSERT_EQ(out.completed.size(), requests.size());
  ASSERT_EQ(out.responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(out.completed[i], i < 3) << i;
    if (out.completed[i]) {
      EXPECT_TRUE(out.responses[i].body["ok"].as_bool()) << i;
    }
  }
}

TEST(SendManyTrackedTest, FullSuccessIsOkWithEveryRequestCompleted) {
  Result<ServerSocket> listener = ServerSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server(ServeThenDie, &*listener, 4);

  Result<OnexClient> client =
      OnexClient::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  std::vector<WireRequest> requests(4);
  for (auto& r : requests) r.command = "PING";
  const SendManyOutcome out = client->SendManyTracked(requests, 2);
  server.join();

  EXPECT_TRUE(out.status.ok()) << out.status;
  ASSERT_EQ(out.completed.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(out.completed[i]) << i;
    EXPECT_TRUE(out.responses[i].body["ok"].as_bool()) << i;
  }
}

}  // namespace
}  // namespace onex::net
