/// The verb table (protocol.h VerbSpec): its invariants, the contract each
/// exec class promises (run on a durable engine, where a write shows up as
/// an advanced journal sequence), and the METRICS rows it defines, checked
/// over a real reactor. Runs under ASan and TSan in CI.
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "onex/json/json.h"
#include "onex/net/client.h"
#include "onex/net/cluster.h"
#include "onex/net/protocol.h"
#include "onex/net/reactor.h"
#include "onex/net/replication.h"

namespace onex::net {
namespace {

json::Value RunLine(Engine* engine, Session* session,
                    const std::string& line) {
  const Result<Command> cmd = ParseCommandLine(line);
  EXPECT_TRUE(cmd.ok()) << line;
  return ExecuteCommand(engine, session, *cmd);
}

/// Journal position of every durable slot.
std::map<std::string, std::uint64_t> WalSeqs(Engine* engine) {
  std::map<std::string, std::uint64_t> seqs;
  for (const DatasetSlotInfo& row : engine->registry().Describe()) {
    if (row.durable) seqs[row.name] = row.wal_seq;
  }
  return seqs;
}

bool Advanced(const std::map<std::string, std::uint64_t>& before,
              const std::map<std::string, std::uint64_t>& after) {
  for (const auto& [name, seq] : after) {
    const auto it = before.find(name);
    if (seq > (it == before.end() ? 0 : it->second)) return true;
  }
  return false;
}

TEST(VerbTableTest, NamesAreUniqueAndEveryHandlerHasItsOwnSlot) {
  ASSERT_EQ(Verbs().size(), kNumVerbs);
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < Verbs().size(); ++i) {
    const VerbSpec& spec = Verbs()[i];
    EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
    EXPECT_EQ(FindVerb(spec.name), &spec) << spec.name;
    EXPECT_EQ(VerbSlot(&spec), i) << spec.name;
    if (spec.handler != nullptr) {
      EXPECT_LT(VerbSlot(&spec), kNumVerbs) << spec.name;
    }
    // A coordinator cannot route to an owner it cannot name.
    if (spec.route == ClusterRoute::kOwner ||
        spec.route == ClusterRoute::kSelect) {
      EXPECT_NE(spec.dataset, nullptr) << spec.name;
    }
  }
  EXPECT_EQ(FindVerb("FROB"), nullptr);
  EXPECT_EQ(VerbSlot(nullptr), kNumVerbs);
}

TEST(VerbTableTest, ServingLayerVerbsAreUnknownInProcess) {
  Engine engine;
  Session session;
  for (const char* verb : {"BIN", "METRICS", "FROB"}) {
    const json::Value v = RunLine(&engine, &session, verb);
    EXPECT_EQ(v.Dump(), "{\"code\":\"InvalidArgument\",\"error\":\"unknown "
                        "command: '" +
                            std::string(verb) + "'\",\"ok\":false}");
  }
}

/// A durable engine holding a prepared dataset "s" and a raw one "d", and
/// one line per table verb that does its verb's real work on it.
struct ContractRig {
  explicit ContractRig(const std::string& name)
      : dir(::testing::TempDir() + "/" + name) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
      std::ofstream ucr(dir + "/l.ucr");
      ucr << "1 0.1 0.4 0.2 0.8 0.5 0.3\n2 0.9 0.2 0.6 0.1 0.7 0.4\n";
    }

    // A primary's first journaled record, shipped the way a peer receives
    // it.
    std::string repl_line;
    {
      Engine primary;
      Session primary_session;
      std::vector<std::string> shipped;
      EXPECT_TRUE(RunLine(&primary, &primary_session,
                          "PERSIST dir=" + dir + "/primary fsync=0")["ok"]
                      .as_bool());
      primary.registry().SetWalSink(
          [&shipped](const std::string&, const WalRecord&,
                     const std::string& encoded) {
            shipped.push_back(encoded);
          });
      EXPECT_TRUE(RunLine(&primary, &primary_session,
                          "GEN r walk num=3 len=10")["ok"]
                      .as_bool());
      primary.registry().SetWalSink(nullptr);
      EXPECT_EQ(shipped.size(), 1u);
      const std::string text = EncodeReplApplyText("r", 1, shipped);
      const std::size_t nl = text.find('\n');
      repl_line = text.substr(0, nl);
      repl_blob = text.substr(nl + 1);
    }

    for (const std::string& line :
         {"PERSIST dir=" + dir + "/data fsync=0",
          std::string("GEN s sine num=4 len=12 seed=7"),
          std::string("PREPARE s st=0.2 maxlen=8"),
          std::string("GEN d walk num=3 len=10")}) {
      const json::Value v = RunLine(&engine, &session, line);
      EXPECT_TRUE(v["ok"].as_bool()) << line << ": " << v.Dump();
    }
    EXPECT_TRUE(engine.SavePrepared("s", dir + "/s.base").ok());

    corpus = {
        {"PING", "PING"},
        {"LIST", "LIST"},
        {"DATASETS", "DATASETS"},
        {"USE", "USE s"},
        {"BUDGET", "BUDGET bytes=0"},
        {"TIER", "TIER s pin=0"},
        {"GEN", "GEN g walk num=3 len=10"},
        {"LOAD", "LOAD l " + dir + "/l.ucr"},
        {"DROP", "DROP d"},
        {"PREPARE", "PREPARE s st=0.25 maxlen=8"},
        {"APPEND", "APPEND s series=x v=0.1,0.2,0.3,0.4,0.5,0.6"},
        {"EXTEND", "EXTEND s series=0 points=0.2,0.4,0.3"},
        {"DRIFT", "DRIFT s"},
        {"SAVEBASE", "SAVEBASE s " + dir + "/s2.base"},
        {"LOADBASE", "LOADBASE b " + dir + "/s.base"},
        {"PERSIST", "PERSIST"},
        {"CHECKPOINT", "CHECKPOINT s"},
        {"STATS", "STATS s"},
        {"CATALOG", "CATALOG s points=6"},
        {"OVERVIEW", "OVERVIEW s top=5"},
        {"MATCH", "MATCH s q=0:2:8"},
        {"KNN", "KNN s q=0:0:8 k=3"},
        {"BATCH", "BATCH s q=0:0:6;1:2:8 k=2"},
        {"SEASONAL", "SEASONAL s series=0 length=8"},
        {"THRESHOLD", "THRESHOLD s pairs=50"},
        {"ANOMALY", "ANOMALY s top=4 minpts=2"},
        {"CHANGEPOINT", "CHANGEPOINT s series=0 hazard=0.05 maxrun=32"},
        {"MOTIF", "MOTIF s top=3 discords=2"},
        {"FORECAST", "FORECAST s series=0 horizon=4 k=2"},
        {"QUIT", "QUIT"},
        {"REPLHELLO", "REPLHELLO dataset=s"},
        {"REPLAPPLY", repl_line},
        {"REPLSTATUS", "REPLSTATUS"},
        {"CLUSTER", "CLUSTER"},
        {"BIN", "BIN"},
        {"METRICS", "METRICS"},
    };
  }
  ~ContractRig() { std::filesystem::remove_all(dir); }

  /// `spec`'s corpus line, plus REPLAPPLY's shipped batch.
  Command Line(const VerbSpec& spec, const std::string& extra = "") const {
    const auto it = corpus.find(std::string(spec.name));
    EXPECT_NE(it, corpus.end()) << "no corpus line for " << spec.name;
    Result<Command> cmd = ParseCommandLine(it->second + extra);
    EXPECT_TRUE(cmd.ok()) << it->second;
    EXPECT_EQ(cmd->verb, spec.name);
    if (spec.name == "REPLAPPLY") cmd->blob = repl_blob;
    return *cmd;
  }

  std::string dir;
  Engine engine;
  Session session;
  std::map<std::string, std::string> corpus;
  std::string repl_blob;
};

/// Every table verb runs one line against a durable engine. A verb whose
/// line advanced any slot's journal must be a mutator; read-only and inline
/// verbs must leave every journal where it was. The one inline writer is
/// REPLAPPLY, the replica end of WAL shipping: it installs a primary's
/// already-acknowledged records and runs inline so that the ack path never
/// waits on the executor pool (protocol.cc).
TEST(VerbTableTest, OnlyMutatorsAdvanceTheJournal) {
  ContractRig rig("onex_verb_contract");
  std::set<std::string> advancing;
  for (const VerbSpec& spec : Verbs()) {
    const std::string verb(spec.name);
    const Command cmd = rig.Line(spec);
    const auto before = WalSeqs(&rig.engine);
    const json::Value v = ExecuteCommand(&rig.engine, &rig.session, cmd);
    const bool advanced = Advanced(before, WalSeqs(&rig.engine));
    // Every line must do its real work, or the contract holds vacuously.
    EXPECT_EQ(v["ok"].as_bool(), spec.handler != nullptr)
        << verb << ": " << v.Dump();

    if (advanced) advancing.insert(verb);
    if (verb == "REPLAPPLY") continue;
    if (spec.exec != ExecClass::kMutator) {
      EXPECT_FALSE(advanced) << verb << " is not a mutator but advanced "
                             << "the journal";
    }
  }
  // The harness sees writes: journaled mutators and the replica apply.
  for (const char* verb : {"GEN", "LOAD", "APPEND", "EXTEND", "REPLAPPLY"}) {
    EXPECT_EQ(advancing.count(verb), 1u) << verb;
  }
}

/// Each row declares every option its verb accepts. An option it does not
/// declare, whether unknown or a declared name misspelt by one letter, is
/// refused before the handler runs: InvalidArgument naming the option, and
/// no journal moves. The verb's own line then still does its work.
TEST(VerbTableTest, UndeclaredOptionsAreRefusedByName) {
  ContractRig rig("onex_verb_options");
  for (const VerbSpec& spec : Verbs()) {
    if (spec.handler == nullptr) continue;
    std::vector<std::string> bad = {"bogus"};
    for (const OptionSpec& o : spec.options) {
      // One letter dropped; a one-letter name gets one doubled instead.
      std::string typo(o.name);
      if (typo.size() > 1) {
        typo.erase(typo.size() / 2, 1);
      } else {
        typo += typo;
      }
      for (const OptionSpec& other : spec.options) {
        ASSERT_NE(typo, other.name) << spec.name;
      }
      bad.push_back(typo);
    }
    for (const std::string& name : bad) {
      const Command cmd = rig.Line(spec, " " + name + "=1");
      const auto before = WalSeqs(&rig.engine);
      const json::Value v = ExecuteCommand(&rig.engine, &rig.session, cmd);
      EXPECT_EQ(v["code"].as_string(), "InvalidArgument")
          << spec.name << " " << name << ": " << v.Dump();
      EXPECT_NE(v["error"].as_string().find(" " + name + "=1: "),
                std::string::npos)
          << v.Dump();
      EXPECT_EQ(WalSeqs(&rig.engine), before) << spec.name << " " << name;
    }
    const json::Value v =
        ExecuteCommand(&rig.engine, &rig.session, rig.Line(spec));
    EXPECT_TRUE(v["ok"].as_bool()) << spec.name << ": " << v.Dump();
  }
}

/// fwd=1 pins a routed verb to the node that receives it; it cannot unblock
/// a verb the cluster blocks. A blocked CHECKPOINT would rotate the log
/// replicas catch up from, so it must write no checkpoint file.
TEST(VerbTableTest, FwdPinCannotUnblockABlockedVerb) {
  const std::string dir = ::testing::TempDir() + "/onex_fwd_blocked";
  std::filesystem::remove_all(dir);
  Engine engine;
  DurabilityOptions durability;
  durability.dir = dir;
  durability.fsync = false;
  ASSERT_TRUE(engine.EnableDurability(durability).ok());
  ClusterNode::Options options;
  options.nodes = {"127.0.0.1:1"};
  ClusterNode node(&engine, options);
  ASSERT_TRUE(node.Start().ok());
  Session session;
  ExecContext ctx;
  ctx.cluster = &node;
  const auto run = [&](const std::string& line) {
    return ExecuteCommand(&engine, &session, *ParseCommandLine(line), ctx);
  };
  for (const char* line :
       {"GEN demo sine num=4 len=32 seed=7", "PREPARE demo st=0.2 maxlen=16",
        "LIST fwd=1", "STATS demo fwd=1"}) {
    EXPECT_TRUE(run(line)["ok"].as_bool()) << line;
  }
  for (const char* line :
       {"CHECKPOINT demo", "CHECKPOINT demo fwd=1", "BUDGET bytes=1 fwd=1",
        "TIER demo demote=1 fwd=1", "DROP demo fwd=1"}) {
    const json::Value v = run(line);
    EXPECT_EQ(v["code"].as_string(), "FailedPrecondition")
        << line << ": " << v.Dump();
  }
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    EXPECT_NE(entry.path().filename().string().rfind("ckpt-", 0), 0u)
        << entry.path();
  }
  EXPECT_EQ(engine.registry().prepared_budget(), 0u);
  EXPECT_EQ(*engine.registry().Tier("demo"), "resident");
  node.Stop();
  std::filesystem::remove_all(dir);
}

/// Regression: CLUSTER and REPLSTATUS used to land in METRICS' "OTHER" row
/// because the metrics verb list was kept apart from the dispatcher's.
TEST(VerbTableTest, MetricsGivesEveryTableVerbItsOwnRow) {
  Engine engine;
  ReactorServer server(&engine);
  ASSERT_TRUE(server.Start(0).ok());
  Result<OnexClient> client = OnexClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  for (const char* line : {"CLUSTER", "REPLSTATUS", "FROB"}) {
    ASSERT_TRUE(client->Call(line).ok()) << line;
  }
  Result<json::Value> m = client->Call("METRICS");
  ASSERT_TRUE(m.ok()) << m.status();
  const json::Value& verbs = (*m)["verbs"];
  EXPECT_EQ(verbs["CLUSTER"]["count"].as_number(), 1.0) << m->Dump();
  EXPECT_EQ(verbs["REPLSTATUS"]["count"].as_number(), 1.0) << m->Dump();
  EXPECT_EQ(verbs["OTHER"]["count"].as_number(), 1.0) << m->Dump();
  server.Stop();
}

}  // namespace
}  // namespace onex::net
