/// WAL shipping (DESIGN.md §16): the ApplyReplicated contract that makes a
/// replica bit-identical to its primary (gaps refused, duplicates skipped,
/// a replica's own checkpoint refused), the REPLAPPLY batch codec's
/// corruption rejection, end-to-end hub streaming (catch-up from the WAL
/// file plus live tail) into a real reactor server, a dead peer's link
/// retired with its node, and the SendManyTracked per-request completion
/// map a coordinator uses to survive a mid-stream transport death. Runs
/// under ASan and TSan in CI.
#include "onex/net/replication.h"

#include <chrono>
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
#include "onex/net/cluster.h"
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

/// Durable engine on a fresh directory, fsync off (tests only).
void EnableFreshDurability(Engine* engine, const std::string& dir) {
  std::filesystem::remove_all(dir);
  DurabilityOptions options;
  options.dir = dir;
  options.fsync = false;
  ASSERT_TRUE(engine->EnableDurability(options).ok());
}

/// Runs `lines` on a durable primary and returns what its WAL sink saw:
/// the exact records a hub would ship, in order.
std::vector<std::pair<std::string, WalRecord>> ShipScript(
    Engine* primary, const std::vector<std::string>& lines) {
  std::vector<std::pair<std::string, WalRecord>> shipped;
  primary->registry().SetWalSink(
      [&shipped](const std::string& dataset, const WalRecord& record,
                 const std::string&) { shipped.emplace_back(dataset, record); });
  Session session;
  for (const std::string& line : lines) {
    const json::Value v = Exec(primary, &session, line);
    EXPECT_TRUE(v["ok"].as_bool()) << line << ": " << v.Dump();
  }
  primary->registry().SetWalSink(nullptr);
  return shipped;
}

/// The registry numbers a replica's records too: a shipped record must
/// carry exactly the replica's next seq. A gap is refused and a duplicate
/// is skipped, both without writing a byte, so the log scans clean with
/// just the accepted records, each at the primary's seq.
TEST(ApplyReplicatedTest, RefusesGapsAndSkipsDuplicatesWithoutWriting) {
  const std::string dir_p = ::testing::TempDir() + "/onex_repl_gap_p";
  const std::string dir_r = ::testing::TempDir() + "/onex_repl_gap_r";
  Engine primary;
  EnableFreshDurability(&primary, dir_p);
  const auto shipped = ShipScript(&primary, PrimaryScript());
  ASSERT_EQ(shipped.size(), 4u);
  Engine replica;
  EnableFreshDurability(&replica, dir_r);
  DatasetRegistry& registry = replica.registry();

  // A birth must be the log's first record: a load at seq 2 is a gap.
  WalRecord late_birth = shipped[0].second;
  late_birth.seq = 2;
  Status s = registry.ApplyReplicated("t", late_birth);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
  EXPECT_FALSE(std::filesystem::exists(dir_r + "/t"));

  ASSERT_TRUE(registry.ApplyReplicated("s", shipped[0].second).ok());
  ASSERT_TRUE(registry.ApplyReplicated("s", shipped[1].second).ok());
  const std::string accepted = ReadFile(WalPath(dir_r, "s"));

  // Seq 4 after 2: the stream skipped acknowledged history. Refuse, do not
  // paper over.
  s = registry.ApplyReplicated("s", shipped[3].second);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
  // Redelivered records at or below the floor are acknowledged and skipped.
  EXPECT_TRUE(registry.ApplyReplicated("s", shipped[0].second).ok());
  EXPECT_TRUE(registry.ApplyReplicated("s", shipped[1].second).ok());
  EXPECT_EQ(ReadFile(WalPath(dir_r, "s")), accepted);

  Result<WalScan> scan = ScanWalFile(WalPath(dir_r, "s"));
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_FALSE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0].seq, 1u);
  EXPECT_EQ(scan->records[1].seq, 2u);
  EXPECT_EQ(registry.Describe("s")->wal_seq, 2u);

  // The stream resumes where it left off, and the logs agree byte for byte.
  ASSERT_TRUE(registry.ApplyReplicated("s", shipped[2].second).ok());
  ASSERT_TRUE(registry.ApplyReplicated("s", shipped[3].second).ok());
  EXPECT_EQ(ReadFile(WalPath(dir_p, "s")), ReadFile(WalPath(dir_r, "s")));
  std::filesystem::remove_all(dir_p);
  std::filesystem::remove_all(dir_r);
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
  Result<DatasetSlotInfo> pd = primary.registry().Describe("s");
  Result<DatasetSlotInfo> rd = replica.registry().Describe("s");
  ASSERT_TRUE(pd.ok() && rd.ok());
  EXPECT_EQ(pd->wal_seq, rd->wal_seq);

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
  future.seq = rd->wal_seq + 2;
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
  Result<DatasetSlotInfo> pd = primary.registry().Describe("D");
  Result<DatasetSlotInfo> rd = replica.registry().Describe("D");
  ASSERT_TRUE(pd.ok() && rd.ok());
  EXPECT_EQ(pd->wal_seq, rd->wal_seq);
  Result<std::string> tier = replica.registry().Tier("D");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(*tier, "resident");

  std::filesystem::remove_all(dir_p);
  std::filesystem::remove_all(dir_r);
}

/// A replica's seqs belong to its primary, and a checkpoint marker takes
/// one. So a replica refuses to checkpoint between shipped records: were
/// its marker to take the seq the primary ships next, that write would be
/// skipped as a duplicate delivery and the replica would silently diverge.
TEST(ApplyReplicatedTest, ReplicaRefusesToCheckpointAndStaysAligned) {
  const std::string dir_p = ::testing::TempDir() + "/onex_repl_ckpt_p";
  const std::string dir_r = ::testing::TempDir() + "/onex_repl_ckpt_r";
  Engine primary;
  Engine replica;
  EnableFreshDurability(&primary, dir_p);
  EnableFreshDurability(&replica, dir_r);
  std::vector<Status> applied;
  primary.registry().SetWalSink(
      [&replica, &applied](const std::string& dataset, const WalRecord& record,
                           const std::string&) {
        applied.push_back(replica.registry().ApplyReplicated(dataset, record));
      });

  Session psession;
  const auto write = [&](const std::string& line) {
    const json::Value v = Exec(&primary, &psession, line);
    ASSERT_TRUE(v["ok"].as_bool()) << line << ": " << v.Dump();
  };
  const auto replica_checkpoint_is_refused = [&] {
    const Result<CheckpointInfo> ckpt = replica.registry().Checkpoint("D");
    ASSERT_FALSE(ckpt.ok());
    EXPECT_EQ(ckpt.status().code(), StatusCode::kFailedPrecondition)
        << ckpt.status();
  };
  write("GEN D sine num=3 len=24 seed=5");
  write("PREPARE D st=0.2 maxlen=12");
  write("EXTEND D series=0 points=0.25,0.5");
  replica_checkpoint_is_refused();
  write("EXTEND D series=0 points=0.75,1.0");
  write("APPEND D series=late v=0.4,0.3,0.2,0.1,0.0,0.1,0.2,0.3");
  replica_checkpoint_is_refused();
  write("EXTEND D series=1 points=0.1,0.2,0.3");
  primary.registry().SetWalSink(nullptr);
  ASSERT_EQ(applied.size(), 6u);
  for (const Status& s : applied) EXPECT_TRUE(s.ok()) << s;

  const Dataset& praw = *(*primary.registry().Get("D"))->raw;
  const Dataset& rraw = *(*replica.registry().Get("D"))->raw;
  ASSERT_EQ(praw.size(), rraw.size());
  EXPECT_EQ(praw[0].length(), 28u);
  for (std::size_t s = 0; s < praw.size(); ++s) {
    EXPECT_EQ(praw[s].values(), rraw[s].values()) << "series " << s;
  }
  const std::vector<std::string> queries = {
      "MATCH D q=0:2:10", "KNN D q=1:0:8 k=3", "CATALOG D points=6"};
  const auto expect_same_answers = [&](Engine* subject, const char* what) {
    Session session;
    for (const std::string& query : queries) {
      EXPECT_EQ(Scrubbed(Exec(&primary, &psession, query)),
                Scrubbed(Exec(subject, &session, query)))
          << what << ": " << query;
    }
  };
  expect_same_answers(&replica, "replica");

  // The same record stream at the same seqs: the logs are byte-identical.
  EXPECT_EQ(ReadFile(WalPath(dir_p, "D")), ReadFile(WalPath(dir_r, "D")));
  Result<DatasetSlotInfo> pd = primary.registry().Describe("D");
  Result<DatasetSlotInfo> rd = replica.registry().Describe("D");
  ASSERT_TRUE(pd.ok() && rd.ok());
  EXPECT_EQ(pd->wal_seq, 6u);
  EXPECT_EQ(rd->wal_seq, pd->wal_seq);
  EXPECT_EQ(rd->checkpoints, 0u);

  // The replica replays its own log to the same state.
  Engine recovered;
  DurabilityOptions ropt;
  ropt.dir = dir_r;
  ropt.fsync = false;
  ASSERT_TRUE(recovered.EnableDurability(ropt).ok());
  EXPECT_EQ(recovered.registry().Describe("D")->wal_seq, 6u);
  expect_same_answers(&recovered, "recovered replica");

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
  Result<DatasetSlotInfo> pd = primary.registry().Describe("s");
  ASSERT_TRUE(pd.ok());
  EXPECT_EQ(hub.AwaitReplication("s", pd->wal_seq), 1u);

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

/// A node declared dead for routing is dead for replication too. A peer
/// killed before it ever listened leaves a hub link that never connected;
/// the first write after CLUSTER marks the node dead must not wait out the
/// ack timeout on that link.
TEST(ClusterNodeTest, DeadPeerDoesNotStallTheNextWrite) {
  const std::string dir = ::testing::TempDir() + "/onex_dead_peer";
  Engine engine;
  EnableFreshDurability(&engine, dir);
  std::uint16_t dead_port = 0;
  {
    Result<ServerSocket> listener = ServerSocket::Listen(0);
    ASSERT_TRUE(listener.ok()) << listener.status();
    dead_port = listener->port();
  }  // closed: nothing listens there any more
  ClusterNode::Options options;
  options.nodes = {"127.0.0.1:1", "127.0.0.1:" + std::to_string(dead_port)};
  options.self = 0;
  options.ack_timeout = std::chrono::milliseconds(3000);
  ClusterNode node(&engine, options);
  ASSERT_TRUE(node.Start().ok());
  Session session;
  ExecContext ctx;
  ctx.cluster = &node;
  const auto run = [&](const std::string& line) {
    return ExecuteCommand(&engine, &session, *ParseCommandLine(line), ctx);
  };

  const json::Value status = run("CLUSTER");
  ASSERT_TRUE(status["ok"].as_bool()) << status.Dump();
  EXPECT_FALSE(status["nodes"].as_array()[1]["alive"].as_bool())
      << status.Dump();
  EXPECT_FALSE(status["replication"].as_array()[0]["alive"].as_bool())
      << status.Dump();

  const auto start = std::chrono::steady_clock::now();
  const json::Value gen = run("GEN demo sine num=4 len=32 seed=7");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(gen["ok"].as_bool()) << gen.Dump();
  EXPECT_LT(elapsed, options.ack_timeout / 3);
  node.Stop();
  std::filesystem::remove_all(dir);
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
