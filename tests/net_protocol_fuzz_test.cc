/// Protocol fuzz/property layer: seeded-random mutated, truncated and
/// oversized frames through the parser and executor. The contract under
/// test — every input yields a clean error Status or a well-formed
/// response; never a crash, a hang, or an allocation proportional to a
/// number someone typed into a frame. Run under ASan in CI.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/common/string_utils.h"
#include "onex/engine/wal.h"
#include "onex/json/json.h"
#include "onex/net/protocol.h"
#include "onex/net/replication.h"

namespace onex::net {
namespace {

/// Valid session lines the mutator perturbs: every verb in the table except
/// kNotFuzzed (CorpusCoversEveryTableVerb checks).
const std::vector<std::string>& Corpus() {
  static const std::vector<std::string> corpus = {
      "PING",
      "LIST",
      "DATASETS",
      "USE s",
      "BUDGET bytes=100000",
      "TIER s",
      "TIER s pin=1",
      "TIER s pin=0 demote=1",
      "TIER dataset=s demote=1",
      "GEN s sine num=4 len=12 seed=7",
      "GEN w walk num=3 len=10",
      "PREPARE s st=0.2 maxlen=8",
      "PREPARE dataset=s st=0.25 minlen=4 maxlen=8 policy=running-mean",
      "APPEND s series=x v=0.1,0.2,0.3,0.4,0.5,0.6",
      "EXTEND s series=0 points=0.2,0.4,0.3",
      "EXTEND dataset=s series=x points=0.1,0.9",
      "DRIFT s",
      "DRIFT s threshold=0.25",
      "STATS s",
      "CATALOG s points=6",
      "OVERVIEW s top=5",
      "MATCH s q=0:2:8 exhaustive=1",
      "MATCH dataset=s q=1:0:6",
      "MATCH s q=0:2:8 deadline_ms=50",
      "KNN s q=0:0:8 k=3",
      "KNN s q=0:0:8 k=2 deadline_ms=0",
      "BATCH s q=0:0:6;1:2:8 k=2",
      "BATCH s q=0:0:6;1:2:8 k=2 deadline_ms=1000",
      "SEASONAL s series=0 length=8",
      "THRESHOLD s pairs=50",
      "ANOMALY s top=4 minpts=2",
      "ANOMALY s length=8 eps=0.5 deadline_ms=50",
      "ANOMALY dataset=s top=3",
      "CHANGEPOINT s series=0 hazard=0.05 maxrun=32",
      "CHANGEPOINT s series=0 last=8 probs=1 threshold=0.4",
      "MOTIF s top=3 discords=2",
      "MOTIF dataset=s length=8",
      "FORECAST s series=0 horizon=4 k=2",
      "FORECAST s series=1 horizon=3 method=seasonal period=6",
      // Safe on a non-durable engine: FailedPrecondition, never a file
      // write. PERSIST dir=... lives only in the durability fuzz below,
      // where the engine is already rooted and re-rooting is rejected.
      "CHECKPOINT s",
      "DROP w",
      "QUIT",
      "CLUSTER",
      // Served by the reactor; in process they are unknown commands.
      "BIN",
      "METRICS",
  };
  return corpus;
}

/// Verbs the session corpus leaves out. The file-touching verbs (LOAD,
/// SAVEBASE, LOADBASE, PERSIST) must not let mutated frames write to the
/// filesystem; PERSIST has its own fuzz below on an engine already rooted.
/// The replication verbs have theirs too, because REPLAPPLY needs a real
/// shipped batch to reach past its checksum.
const std::set<std::string> kNotFuzzed = {
    "LOAD",      "SAVEBASE",  "LOADBASE",  "PERSIST",
    "REPLHELLO", "REPLAPPLY", "REPLSTATUS",
};

/// Values at and just past the edges of an option's declared kind and
/// range, each with whether the row accepts it: min-1, min, max, max+1
/// where the bound is finite, the largest integer where it is not, and the
/// spellings a flag or choice refuses.
std::vector<std::pair<std::string, bool>> BoundaryValues(const OptionSpec& o) {
  std::vector<std::pair<std::string, bool>> values;
  switch (o.kind) {
    case OptKind::kText:
      return {{"", true}, {"x", true}, {"0", true}};
    case OptKind::kFlag:
      return {{"-1", false}, {"0", true}, {"1", true}, {"2", false}};
    case OptKind::kChoice:
      // Choices match in any letter case.
      for (std::string c : SplitKeepEmpty(o.choices, '|')) {
        const unsigned char first = static_cast<unsigned char>(c[0]);
        c[0] = static_cast<char>(std::toupper(first));
        values.emplace_back(c, true);
      }
      values.emplace_back("none", false);
      return values;
    case OptKind::kInt:
    case OptKind::kReal:
      for (const double bound : {o.min, o.max}) {
        if (!std::isfinite(bound)) continue;
        for (const double v : {bound - 1, bound, bound + 1}) {
          values.emplace_back(o.kind == OptKind::kInt ? StrFormat("%.0f", v)
                                                       : StrFormat("%g", v),
                              v >= o.min && v <= o.max);
        }
      }
      if (!std::isfinite(o.max)) {
        values.emplace_back("9223372036854775807", true);
      }
      values.emplace_back("nan", false);
      return values;
  }
  return values;
}

/// Appends an option drawn from a verb table row: mostly the line's own
/// verb's, sometimes another verb's, valued at a boundary of its range.
std::string AppendRowOption(Rng* rng, const std::string& line) {
  const Result<Command> cmd = ParseCommandLine(line);
  const VerbSpec* spec = cmd.ok() ? FindVerb(cmd->verb) : nullptr;
  if (spec == nullptr || spec->options.empty() || rng->Bernoulli(0.2)) {
    spec = &Verbs()[rng->UniformIndex(Verbs().size())];
  }
  if (spec->options.empty()) return line + " fwd=1";
  const OptionSpec& o = spec->options[rng->UniformIndex(spec->options.size())];
  const auto values = BoundaryValues(o);
  return line + " " + std::string(o.name) + "=" +
         values[rng->UniformIndex(values.size())].first;
}

std::string MutateLine(Rng* rng, std::string line) {
  const int kind = static_cast<int>(rng->UniformIndex(8));
  switch (kind) {
    case 0: {  // truncate
      if (!line.empty()) line.resize(rng->UniformIndex(line.size() + 1));
      break;
    }
    case 1: {  // flip a byte to anything, including NUL and non-ASCII
      if (!line.empty()) {
        line[rng->UniformIndex(line.size())] =
            static_cast<char>(rng->UniformInt(0, 255));
      }
      break;
    }
    case 2: {  // insert random bytes
      const std::size_t n = rng->UniformIndex(8) + 1;
      for (std::size_t i = 0; i < n; ++i) {
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(
                                       rng->UniformIndex(line.size() + 1)),
                    static_cast<char>(rng->UniformInt(0, 255)));
      }
      break;
    }
    case 3: {  // duplicate the tail (oversized / repeated-token frames)
      line += ' ';
      line += line.substr(rng->UniformIndex(line.size()));
      break;
    }
    case 4: {  // inject an absurd number into the first k=v option
      const std::size_t eq = line.find('=');
      if (eq != std::string::npos) {
        static const char* kNumbers[] = {
            "99999999999999999999", "-9223372036854775808", "1e308",
            "9223372036854775807",  "0x7fffffff",           "nan",
            "inf",                  "-1",                   "1e-308"};
        line = line.substr(0, eq + 1) +
               kNumbers[rng->UniformIndex(std::size(kNumbers))];
      }
      break;
    }
    case 5: {  // swap delimiters: spaces <-> ':' <-> '=' <-> ';'
      static const char kDelims[] = {' ', ':', '=', ';', ',', '\t'};
      for (char& c : line) {
        if ((c == ' ' || c == ':' || c == '=' || c == ';' || c == ',') &&
            rng->Bernoulli(0.3)) {
          c = kDelims[rng->UniformIndex(std::size(kDelims))];
        }
      }
      break;
    }
    case 6: {  // an option some row declares, at a range boundary
      line = AppendRowOption(rng, line);
      break;
    }
    default: {  // splice two corpus lines
      const std::string& other =
          Corpus()[rng->UniformIndex(Corpus().size())];
      line = line.substr(0, rng->UniformIndex(line.size() + 1)) +
             other.substr(rng->UniformIndex(other.size() + 1));
      break;
    }
  }
  return line;
}

/// Every response must be a single-line JSON object with an "ok" bool.
void CheckResponse(const json::Value& v, const std::string& input) {
  ASSERT_TRUE(v.is_object()) << "non-object response for: " << input;
  ASSERT_TRUE(v["ok"].is_bool()) << "missing ok field for: " << input;
  const std::string wire = FormatResponse(v);
  EXPECT_EQ(std::count(wire.begin(), wire.end(), '\n'), 1)
      << "multi-line response for: " << input;
}

TEST(ProtocolFuzzTest, CorpusCoversEveryTableVerb) {
  std::set<std::string> covered;
  for (const std::string& line : Corpus()) {
    const Result<Command> cmd = ParseCommandLine(line);
    ASSERT_TRUE(cmd.ok()) << line;
    covered.insert(cmd->verb);
  }
  for (const VerbSpec& spec : Verbs()) {
    const std::string verb(spec.name);
    EXPECT_NE(covered.count(verb) + kNotFuzzed.count(verb), 0u)
        << verb << " is neither in the fuzz corpus nor excluded from it";
    EXPECT_FALSE(covered.count(verb) != 0 && kNotFuzzed.count(verb) != 0)
        << verb << " is both fuzzed and excluded";
  }
}

TEST(ProtocolFuzzTest, RandomByteLinesNeverCrashParser) {
  Rng rng(0xF00D);
  for (int iter = 0; iter < 6000; ++iter) {
    const std::size_t len = rng.UniformIndex(256);
    std::string line;
    line.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      line.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    const Result<Command> cmd = ParseCommandLine(line);
    if (cmd.ok()) {
      EXPECT_FALSE(cmd->verb.empty());
    } else {
      EXPECT_FALSE(cmd.status().message().empty());
    }
  }
}

TEST(ProtocolFuzzTest, OversizedFramesParseInBoundedTimeAndMemory) {
  Rng rng(0xBEEF);
  // A megabyte of one token, a megabyte of tokens, a megabyte of '='.
  std::vector<std::string> frames;
  frames.push_back(std::string(1 << 20, 'A'));
  {
    std::string many;
    for (int i = 0; i < 150000; ++i) many += "x ";
    frames.push_back(std::move(many));
  }
  frames.push_back("MATCH s q=" + std::string(1 << 20, ':'));
  frames.push_back(std::string(1 << 20, '='));
  frames.push_back("KNN " + std::string(1 << 18, ' ') + " q=0:0:8");
  for (const std::string& frame : frames) {
    const Result<Command> cmd = ParseCommandLine(frame);
    (void)cmd;  // either outcome is fine; the property is no crash/hang
  }
}

TEST(ProtocolFuzzTest, MutatedSessionFramesNeverCrashExecutor) {
  Engine engine;
  Session session;
  // Seed state so dataset-touching mutations exercise real code paths.
  auto bootstrap = [&] {
    for (const char* line :
         {"GEN s sine num=4 len=12 seed=7", "PREPARE s st=0.2 maxlen=8"}) {
      const Result<Command> cmd = ParseCommandLine(line);
      ASSERT_TRUE(cmd.ok());
      const json::Value v = ExecuteCommand(&engine, &session, *cmd);
      ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
    }
  };
  bootstrap();

  Rng rng(0xC0FFEE);
  constexpr int kIterations = 10000;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string line = Corpus()[rng.UniformIndex(Corpus().size())];
    const std::size_t rounds = 1 + rng.UniformIndex(3);
    for (std::size_t r = 0; r < rounds; ++r) line = MutateLine(&rng, line);

    const Result<Command> cmd = ParseCommandLine(line);
    if (!cmd.ok()) continue;
    const json::Value v = ExecuteCommand(&engine, &session, *cmd);
    CheckResponse(v, line);

    // Mutated GEN/DROP lines accumulate or destroy datasets; periodically
    // reset so the corpus dataset exists and memory stays bounded.
    if (iter % 500 == 499) {
      for (const std::string& name : engine.ListDatasets()) {
        ASSERT_TRUE(engine.DropDataset(name).ok());
      }
      session.dataset.clear();
      bootstrap();
    }
  }

  // The session survived 10k hostile frames: it must still answer cleanly.
  const json::Value ping =
      ExecuteCommand(&engine, &session, *ParseCommandLine("PING"));
  EXPECT_TRUE(ping["ok"].as_bool());
  const json::Value match = ExecuteCommand(
      &engine, &session, *ParseCommandLine("MATCH s q=0:2:8"));
  EXPECT_TRUE(match["ok"].as_bool()) << match.Dump();
}

/// Every option of every fuzzed verb's row, alone on the verb's corpus
/// line, at each boundary of its declared range: a value inside the range
/// gets past the row (whatever the verb then answers), one outside is
/// refused by name, and every answer is one line.
TEST(ProtocolFuzzTest, RowOptionBoundariesAnswerCleanly) {
  Engine engine;
  Session session;
  const auto run = [&](const std::string& line) {
    const json::Value v =
        ExecuteCommand(&engine, &session, *ParseCommandLine(line));
    CheckResponse(v, line);
    return v;
  };
  const auto reset = [&] {
    for (const std::string& name : engine.ListDatasets()) {
      ASSERT_TRUE(engine.DropDataset(name).ok());
    }
    session.dataset.clear();
    for (const char* line : {"GEN s sine num=4 len=12 seed=7",
                             "PREPARE s st=0.2 maxlen=8",
                             "GEN w walk num=3 len=10"}) {
      ASSERT_TRUE(run(line)["ok"].as_bool()) << line;
    }
  };
  for (const std::string& base : Corpus()) {
    const VerbSpec* spec = FindVerb(ParseCommandLine(base)->verb);
    if (spec == nullptr) continue;
    for (const OptionSpec& o : spec->options) {
      for (const auto& [value, accepted] : BoundaryValues(o)) {
        reset();
        const std::string option = std::string(o.name) + "=" + value;
        const json::Value v = run(base + " " + option);
        const bool refused =
            !v["ok"].as_bool() &&
            v["error"].as_string().find(" " + option + ": ") !=
                std::string::npos;
        EXPECT_EQ(refused, !accepted) << base << " " << option << v.Dump();
        if (refused) {
          EXPECT_EQ(v["code"].as_string(), "InvalidArgument");
        }
      }
    }
  }
}

TEST(ProtocolFuzzTest, NonFiniteBinaryPayloadsAreRejectedNotInstalled) {
  Engine engine;
  Session session;
  for (const char* line :
       {"GEN s sine num=3 len=12 seed=5", "PREPARE s st=0.2 maxlen=8"}) {
    const json::Value v =
        ExecuteCommand(&engine, &session, *ParseCommandLine(line));
    ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  }

  // A binary client ships bulk points as a raw float64 payload, skipping
  // the text tokenizer entirely — so the finite-number check must live in
  // the executor, not the parser. Poison one slot per frame with a
  // NaN/Inf and demand a clean InvalidArgument every time.
  const double kPoison[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  Rng rng(0xFADE);
  for (int iter = 0; iter < 500; ++iter) {
    Command cmd;
    cmd.args.push_back("s");
    if (rng.Bernoulli(0.5)) {
      cmd.verb = "EXTEND";
      cmd.options["series"] = "0";
    } else {
      cmd.verb = "APPEND";
      cmd.options["series"] = "fuzz_" + std::to_string(iter);
    }
    cmd.payload.assign(1 + rng.UniformIndex(16), 0.25);
    cmd.payload[rng.UniformIndex(cmd.payload.size())] =
        kPoison[rng.UniformIndex(std::size(kPoison))];
    const json::Value v = ExecuteCommand(&engine, &session, cmd);
    CheckResponse(v, cmd.verb + " <binary payload>");
    EXPECT_FALSE(v["ok"].as_bool()) << v.Dump();
    EXPECT_EQ(v["code"].as_string(), "InvalidArgument") << v.Dump();
  }

  // Nothing leaked: still 3 series of 12 points, no fuzz_* series.
  const json::Value stats =
      ExecuteCommand(&engine, &session, *ParseCommandLine("STATS s"));
  ASSERT_TRUE(stats["ok"].as_bool()) << stats.Dump();
  EXPECT_EQ(stats["series"].as_number(), 3.0);
  EXPECT_EQ(stats["total_points"].as_number(), 36.0);
}

TEST(ProtocolFuzzTest, DurabilityFramesNeverCrashOrEscapeTheDataDir) {
  const std::string dir = ::testing::TempDir() + "/onex_fuzz_durability";
  std::filesystem::remove_all(dir);
  {
    Engine engine;
    Session session;
    DurabilityOptions durability;
    durability.dir = dir;
    durability.fsync = false;
    ASSERT_TRUE(engine.EnableDurability(durability).ok());
    for (const char* line :
         {"GEN s sine num=4 len=12 seed=7", "PREPARE s st=0.2 maxlen=8"}) {
      const json::Value v =
          ExecuteCommand(&engine, &session, *ParseCommandLine(line));
      ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
    }

    const std::vector<std::string> durability_corpus = {
        "PERSIST",
        "PERSIST dir=/definitely/not/used because=durability-is-rooted",
        "PERSIST dir=elsewhere every=10 fsync=0",
        "PERSIST every=999999999999999",
        "CHECKPOINT s",
        "CHECKPOINT",
        "CHECKPOINT dataset=s",
        "CHECKPOINT missing",
        "STATS s",
        "DATASETS",
        "EXTEND s series=0 points=0.2,0.4",
        // The mapped tier's wire surface: on this durable engine demote=1
        // can genuinely swap the base for its arena and back.
        "TIER s",
        "TIER s demote=1",
        "TIER s pin=1",
        "TIER s pin=0",
    };
    Rng rng(0xD00D);
    for (int iter = 0; iter < 3000; ++iter) {
      std::string line =
          durability_corpus[rng.UniformIndex(durability_corpus.size())];
      const std::size_t rounds = rng.UniformIndex(3);
      for (std::size_t r = 0; r < rounds; ++r) line = MutateLine(&rng, line);
      const Result<Command> cmd = ParseCommandLine(line);
      if (!cmd.ok()) continue;
      const json::Value v = ExecuteCommand(&engine, &session, *cmd);
      CheckResponse(v, line);
      // No hostile frame may re-root the journal.
      ASSERT_EQ(engine.registry().data_dir(), dir) << line;
    }

    // The cap: a background-checkpoint threshold past the limit is an
    // InvalidArgument even though durability is already on.
    const json::Value capped = ExecuteCommand(
        &engine, &session,
        *ParseCommandLine("PERSIST dir=x every=999999999999999"));
    EXPECT_FALSE(capped["ok"].as_bool());
    EXPECT_EQ(capped["code"].as_string(), "InvalidArgument");
    // A straight CHECKPOINT still works after the bombardment.
    const json::Value ckpt =
        ExecuteCommand(&engine, &session, *ParseCommandLine("CHECKPOINT s"));
    EXPECT_TRUE(ckpt["ok"].as_bool()) << ckpt.Dump();
  }
  // Whatever the hostile frames did, the journal they left is recoverable.
  Engine recovered;
  DurabilityOptions durability;
  durability.dir = dir;
  durability.fsync = false;
  ASSERT_TRUE(recovered.EnableDurability(durability).ok());
  EXPECT_TRUE(recovered.Get("s").ok());
  std::filesystem::remove_all(dir);
}

TEST(ProtocolFuzzTest, SizeDrivingOptionsAreCapped) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN s sine num=4 len=12"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine, &session,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=8"))["ok"]
          .as_bool());
  // Each of these would, uncapped, command an allocation proportional to
  // the number in the frame.
  std::string flood = "BATCH s k=100000 q=0:0:8";
  for (int i = 0; i < 2000; ++i) flood += ";0:0:8";
  // 100001 points: one past the EXTEND cap.
  std::string extend_flood = "EXTEND s series=0 points=0";
  for (int i = 0; i < 100000; ++i) extend_flood += ",0";
  for (const std::string& line : {
           std::string("GEN huge walk num=1000000000 len=1000000000"),
           std::string("GEN huge walk num=2000000 len=2000000"),
           std::string("CATALOG s points=999999999"),
           std::string("KNN s q=0:0:8 k=999999999"),
           std::string("BATCH s q=0:0:8 k=999999999"),
           std::string("THRESHOLD s pairs=999999999"),
           std::string("ANOMALY s top=999999999"),
           std::string("ANOMALY s minpts=999999999"),
           std::string("CHANGEPOINT s series=0 maxrun=999999999"),
           std::string("MOTIF s top=999999999"),
           std::string("MOTIF s discords=999999999"),
           std::string("FORECAST s series=0 horizon=999999999"),
           std::string("FORECAST s series=0 k=999999999"),
           flood,  // spec-count flood: 2001 queries x max k
           extend_flood,
       }) {
    const json::Value v =
        ExecuteCommand(&engine, &session, *ParseCommandLine(line));
    EXPECT_FALSE(v["ok"].as_bool()) << line;
    EXPECT_EQ(v["code"].as_string(), "InvalidArgument") << line;
  }
}

TEST(ProtocolFuzzTest, ShippedWalFramesNeverInstallCorruptRecords) {
  const std::string dir_p = ::testing::TempDir() + "/onex_fuzz_repl_primary";
  const std::string dir_r = ::testing::TempDir() + "/onex_fuzz_repl_replica";
  std::filesystem::remove_all(dir_p);
  std::filesystem::remove_all(dir_r);

  // A primary's genuine history, captured off its WAL sink: the only bytes
  // a replica may ever install, no matter what arrives on the wire.
  Engine primary;
  Session psession;
  DurabilityOptions popt;
  popt.dir = dir_p;
  popt.fsync = false;
  ASSERT_TRUE(primary.EnableDurability(popt).ok());
  std::vector<std::pair<WalRecord, std::string>> genuine;  // record, line
  primary.registry().SetWalSink([&genuine](const std::string&,
                                           const WalRecord& record,
                                           const std::string& encoded) {
    genuine.emplace_back(record, encoded);
  });
  for (const char* line :
       {"GEN s sine num=4 len=24 seed=9", "PREPARE s st=0.2 maxlen=12",
        "APPEND s series=x v=0.1,0.3,0.5,0.4,0.2,0.1",
        "EXTEND s series=0 points=0.2,0.6"}) {
    const json::Value v =
        ExecuteCommand(&primary, &psession, *ParseCommandLine(line));
    ASSERT_TRUE(v["ok"].as_bool()) << line << ": " << v.Dump();
  }
  primary.registry().SetWalSink(nullptr);
  ASSERT_EQ(genuine.size(), 4u);

  // The replica mirrors the history up to seq 2; records 3 and 4 are the
  // held-out tail the hostile frames pretend to ship.
  Engine replica;
  Session rsession;
  DurabilityOptions ropt;
  ropt.dir = dir_r;
  ropt.fsync = false;
  ASSERT_TRUE(replica.EnableDurability(ropt).ok());
  ASSERT_TRUE(replica.registry().ApplyReplicated("s", genuine[0].first).ok());
  ASSERT_TRUE(replica.registry().ApplyReplicated("s", genuine[1].first).ok());
  const std::string l1 = genuine[0].second;
  const std::string l3 = genuine[2].second;
  const std::string l4 = genuine[3].second;
  const std::string wal_path =
      dir_r + "/" + SlotDirName("s") + "/wal";
  const std::string base = [&] {
    std::ifstream in(wal_path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  ASSERT_FALSE(base.empty());

  // Executes only REPLAPPLY frames: a mutation that splices the line into a
  // different verb entirely (GEN, EXTEND, ...) is ordinary traffic, covered
  // by the session fuzz above — here it would just confuse the
  // journal-prefix invariant with legitimate local writes.
  auto run = [&](const std::string& command_line, const std::string& blob) {
    const Result<Command> cmd = ParseCommandLine(command_line);
    if (!cmd.ok() || cmd->verb != "REPLAPPLY") return json::Value();
    Command with_blob = *cmd;
    with_blob.blob = blob;
    return ExecuteCommand(&replica, &rsession, with_blob);
  };
  auto head = [](const std::string& dataset, std::uint64_t first,
                 std::size_t count, std::uint64_t crc) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "REPLAPPLY dataset=%s first=%llu count=%zu crc=%016llx",
                  dataset.c_str(), static_cast<unsigned long long>(first),
                  count, static_cast<unsigned long long>(crc));
    return std::string(buf);
  };
  // THE invariant: whatever the frame said, the replica's journal is still
  // a prefix of the primary's genuine journal, and no foreign slot exists.
  auto check_installed_only_genuine = [&](const std::string& input) {
    std::ifstream in(wal_path, std::ios::binary);
    const std::string wal(std::istreambuf_iterator<char>(in), {});
    ASSERT_TRUE(wal == base || wal == base + l3 || wal == base + l3 + l4)
        << "non-genuine bytes installed by: " << input;
    ASSERT_EQ(replica.ListDatasets(), std::vector<std::string>{"s"}) << input;
  };

  // Crafted batches with honest checksums: the crc is right, the *shape* is
  // the attack — reordered, duplicated, torn, miscounted, gapped, stale and
  // misaddressed deliveries.
  const struct {
    const char* what;
    std::string header;
    std::string blob;
    bool may_apply;  ///< Duplicate deliveries are OK-and-skipped, not errors.
  } crafted[] = {
      {"reordered", head("s", 3, 2, Fnv1a64(l4 + l3)), l4 + l3, false},
      {"duplicated-line", head("s", 3, 2, Fnv1a64(l3 + l3)), l3 + l3, false},
      {"torn-line", head("s", 3, 1, Fnv1a64(l3.substr(0, l3.size() / 2))),
       l3.substr(0, l3.size() / 2), false},
      {"count-over", head("s", 3, 2, Fnv1a64(l3)), l3, false},
      {"count-under", head("s", 3, 1, Fnv1a64(l3 + l4)), l3 + l4, false},
      {"first-mismatch", head("s", 4, 1, Fnv1a64(l3)), l3, false},
      {"seq-gap", head("s", 4, 1, Fnv1a64(l4)), l4, false},
      {"wrong-dataset", head("zzz", 3, 1, Fnv1a64(l3)), l3, false},
      {"bad-crc", head("s", 3, 1, Fnv1a64(l3) ^ 1), l3, false},
      {"stale-duplicate", head("s", 1, 1, Fnv1a64(l1)), l1, true},
  };
  for (const auto& c : crafted) {
    const json::Value v = run(c.header, c.blob);
    CheckResponse(v, c.what);
    if (!c.may_apply) {
      EXPECT_FALSE(v["ok"].as_bool()) << c.what << ": " << v.Dump();
    }
    check_installed_only_genuine(c.what);
    // Nothing above ships seq 3, so the floor must still be exactly 2.
    const Result<DatasetSlotInfo> d = replica.registry().Describe("s");
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->wal_seq, 2u) << c.what;
  }

  // Random mutation storm over the genuine seq-3 frame. A mutation that
  // happens to leave the frame semantically intact (e.g. an inserted space
  // between tokens) may legitimately install the genuine record — the
  // invariant is never-install-corrupt, not never-install.
  const std::string valid_frame = EncodeReplApplyText("s", 3, {l3});
  Rng rng(0x5EED);
  for (int iter = 0; iter < 2500; ++iter) {
    std::string frame = valid_frame;
    const std::size_t rounds = 1 + rng.UniformIndex(2);
    for (std::size_t r = 0; r < rounds; ++r) frame = MutateLine(&rng, frame);
    if (frame == valid_frame) continue;
    const std::size_t newline = frame.find('\n');
    const std::string command_line =
        newline == std::string::npos ? frame : frame.substr(0, newline);
    const std::string blob =
        newline == std::string::npos ? std::string() : frame.substr(newline + 1);
    const json::Value v = run(command_line, blob);
    if (!v.is_object()) continue;  // parse error: nothing executed
    CheckResponse(v, command_line);
    check_installed_only_genuine(command_line);
  }

  // After the bombardment the genuine tail still applies cleanly and the
  // journal it leaves recovers.
  for (std::size_t i = 2; i < genuine.size(); ++i) {
    const Status s = replica.registry().ApplyReplicated("s", genuine[i].first);
    ASSERT_TRUE(s.ok()) << "seq " << genuine[i].first.seq << ": " << s;
  }
  const json::Value match =
      ExecuteCommand(&replica, &rsession, *ParseCommandLine("MATCH s q=0:2:8"));
  EXPECT_TRUE(match["ok"].as_bool()) << match.Dump();
  Engine recovered;
  ASSERT_TRUE(recovered.EnableDurability(ropt).ok());
  EXPECT_TRUE(recovered.Get("s").ok());
  std::filesystem::remove_all(dir_p);
  std::filesystem::remove_all(dir_r);
}

/// Hostile ONEXARENA files through the LOADBASE verb. The contract: a
/// declared section length or count NEVER drives an allocation (inflated
/// sizes are rejected by bounds checks before any byte is trusted, even
/// when the attacker keeps the whole-file checksum honest), every corrupt
/// file yields a clean error response, and arena mappings never outlive
/// their slot — a demoted dataset can be dropped and its checkpoint file
/// destroyed with nothing dangling (ASan proves the negative).
TEST(ProtocolFuzzTest, HostileArenaFilesThroughLoadbaseNeverCrash) {
  const std::string dir = ::testing::TempDir() + "/onex_fuzz_arena";
  std::filesystem::remove_all(dir);
  Engine engine;
  Session session;
  DurabilityOptions durability;
  durability.dir = dir;
  durability.fsync = false;
  ASSERT_TRUE(engine.EnableDurability(durability).ok());
  for (const char* line :
       {"GEN s sine num=4 len=16 seed=3", "PREPARE s st=0.2 maxlen=8",
        "CHECKPOINT s"}) {
    const json::Value v =
        ExecuteCommand(&engine, &session, *ParseCommandLine(line));
    ASSERT_TRUE(v["ok"].as_bool()) << line << ": " << v.Dump();
  }
  // The checkpoint the engine just wrote is a genuine arena blob.
  std::string genuine;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/" + SlotDirName("s"))) {
    if (entry.path().filename().string().rfind("ckpt-", 0) != 0) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    genuine.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(genuine.size(), 64u);

  const std::string hostile_path = dir + "/hostile.arena";
  auto loadbase = [&](const std::string& bytes) {
    {
      std::ofstream out(hostile_path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    const json::Value v = ExecuteCommand(
        &engine, &session,
        *ParseCommandLine("LOADBASE h " + hostile_path));
    CheckResponse(v, "LOADBASE (" + std::to_string(bytes.size()) + " bytes)");
    if (v["ok"].as_bool()) {
      EXPECT_TRUE(engine.DropDataset("h").ok());  // keep the name reusable
    }
    return v;
  };
  // Sanity: the untouched arena loads and answers.
  {
    std::ofstream out(hostile_path, std::ios::binary | std::ios::trunc);
    out << genuine;
  }
  const json::Value loaded = ExecuteCommand(
      &engine, &session, *ParseCommandLine("LOADBASE h " + hostile_path));
  ASSERT_TRUE(loaded["ok"].as_bool()) << loaded.Dump();
  const json::Value match = ExecuteCommand(
      &engine, &session, *ParseCommandLine("MATCH h q=0:2:8"));
  EXPECT_TRUE(match["ok"].as_bool()) << match.Dump();
  ASSERT_TRUE(engine.DropDataset("h").ok());

  auto put32 = [](std::string* b, std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      (*b)[at + static_cast<std::size_t>(i)] =
          static_cast<char>((v >> (8 * i)) & 0xff);
    }
  };
  auto put64 = [](std::string* b, std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      (*b)[at + static_cast<std::size_t>(i)] =
          static_cast<char>((v >> (8 * i)) & 0xff);
    }
  };
  // Keeping the whole-file FNV honest lets a patch reach the structural
  // validators instead of dying at the checksum — the adversarial case.
  auto refnv = [&put64](std::string* b) {
    put64(b, 32, Fnv1a64(std::string_view(*b).substr(64)));
  };

  // Crafted attacks on the framing itself. Each must be a structured error
  // (under ASan, an allocation driven by the planted number would abort).
  {
    std::string b = genuine;  // file_size claims 2^62 bytes
    put64(&b, 16, std::uint64_t{1} << 62);
    EXPECT_FALSE(loadbase(b)["ok"].as_bool()) << "huge file_size";
  }
  {
    std::string b = genuine;  // section table of 4 billion entries
    put32(&b, 24, 0xffffffffu);
    refnv(&b);
    EXPECT_FALSE(loadbase(b)["ok"].as_bool()) << "huge section_count";
  }
  {
    std::string b = genuine;  // first section claims 2^60 bytes
    put64(&b, 64 + 16, std::uint64_t{1} << 60);
    refnv(&b);
    EXPECT_FALSE(loadbase(b)["ok"].as_bool()) << "huge section size";
  }
  {
    std::string b = genuine;  // offset + size wraps past 2^64
    put64(&b, 64 + 8, 0xffffffffffffffc0ull);
    put64(&b, 64 + 16, std::uint64_t{0x80});
    refnv(&b);
    EXPECT_FALSE(loadbase(b)["ok"].as_bool()) << "offset overflow";
  }
  {
    std::string b = genuine;  // duplicate section identity
    b.replace(64 + 32, 8, b, 64, 8);  // desc1 kind/index := desc0's
    refnv(&b);
    EXPECT_FALSE(loadbase(b)["ok"].as_bool()) << "duplicate section";
  }

  // Random storm: flips (half with an honest re-checksum so they pierce the
  // FNV layer), truncations, and garbage tails.
  Rng rng(0xA12E7A);
  for (int iter = 0; iter < 300; ++iter) {
    std::string b = genuine;
    switch (rng.UniformIndex(3)) {
      case 0: {
        const std::size_t flips = 1 + rng.UniformIndex(3);
        for (std::size_t f = 0; f < flips; ++f) {
          b[rng.UniformIndex(b.size())] =
              static_cast<char>(rng.UniformInt(0, 255));
        }
        if (rng.Bernoulli(0.5)) refnv(&b);
        break;
      }
      case 1:
        b.resize(rng.UniformIndex(b.size()));
        break;
      default:
        b += std::string(1 + rng.UniformIndex(200),
                         static_cast<char>(rng.UniformInt(0, 255)));
        break;
    }
    loadbase(b);  // any well-formed outcome; the property is no crash/OOM
  }

  // Mapping lifetime over the wire: demote s onto its arena, drop it, and
  // destroy the file it was mapped from. Nothing may dangle.
  const json::Value demoted = ExecuteCommand(
      &engine, &session, *ParseCommandLine("TIER s demote=1"));
  ASSERT_TRUE(demoted["ok"].as_bool()) << demoted.Dump();
  EXPECT_EQ(demoted["tier"].as_string(), "mapped");
  const json::Value dropped =
      ExecuteCommand(&engine, &session, *ParseCommandLine("DROP s"));
  ASSERT_TRUE(dropped["ok"].as_bool()) << dropped.Dump();
  std::filesystem::remove_all(dir + "/" + SlotDirName("s"));
  const json::Value regen = ExecuteCommand(
      &engine, &session, *ParseCommandLine("GEN s sine num=2 len=10 seed=1"));
  EXPECT_TRUE(regen["ok"].as_bool()) << regen.Dump();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace onex::net
