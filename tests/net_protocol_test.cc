#include "onex/net/protocol.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/hash.h"
#include "onex/common/string_utils.h"
#include "onex/distance/kernels.h"
#include "onex/net/frame.h"

namespace onex::net {
namespace {

constexpr const char* kResponseGolden =
#include "net_response_golden.inc"
    ;

TEST(ParseCommandTest, VerbIsUppercased) {
  Result<Command> cmd = ParseCommandLine("ping");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->verb, "PING");
  EXPECT_TRUE(cmd->args.empty());
  EXPECT_TRUE(cmd->options.empty());
}

TEST(ParseCommandTest, PositionalAndKeyValueArguments) {
  Result<Command> cmd =
      ParseCommandLine("PREPARE mydata st=0.15 minlen=6 norm=zscore");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->args, (std::vector<std::string>{"mydata"}));
  EXPECT_EQ(cmd->options.at("st"), "0.15");
  EXPECT_EQ(cmd->options.at("minlen"), "6");
  EXPECT_EQ(cmd->options.at("norm"), "zscore");
}

TEST(ParseCommandTest, LeadingEqualsIsPositional) {
  Result<Command> cmd = ParseCommandLine("CMD =weird");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->args, (std::vector<std::string>{"=weird"}));
}

TEST(ParseCommandTest, EmptyLineIsParseError) {
  EXPECT_FALSE(ParseCommandLine("").ok());
  EXPECT_FALSE(ParseCommandLine("   \t ").ok());
}

TEST(ProtocolTest, PingPong) {
  Engine engine;
  const json::Value v =
      ExecuteCommand(&engine, *ParseCommandLine("PING"));
  EXPECT_TRUE(v["ok"].as_bool());
  EXPECT_TRUE(v["pong"].as_bool());
}

TEST(ProtocolTest, UnknownVerb) {
  Engine engine;
  const json::Value v =
      ExecuteCommand(&engine, *ParseCommandLine("FROBNICATE x"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "InvalidArgument");
}

TEST(ProtocolTest, GenPrepareStatsFlow) {
  Engine engine;
  json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine("GEN walks walk num=5 len=16 seed=3"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();

  v = ExecuteCommand(&engine, *ParseCommandLine("LIST"));
  ASSERT_TRUE(v["ok"].as_bool());
  ASSERT_EQ(v["datasets"].as_array().size(), 1u);
  EXPECT_EQ(v["datasets"][0].as_string(), "walks");

  v = ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE walks st=0.2 maxlen=8"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_GT(v["groups"].as_number(), 0.0);
  EXPECT_GT(v["subsequences"].as_number(), v["groups"].as_number() - 1);

  v = ExecuteCommand(&engine, *ParseCommandLine("STATS walks"));
  ASSERT_TRUE(v["ok"].as_bool());
  EXPECT_TRUE(v["prepared"].as_bool());
  EXPECT_DOUBLE_EQ(v["series"].as_number(), 5.0);
  EXPECT_DOUBLE_EQ(v["st"].as_number(), 0.2);
}

TEST(ProtocolTest, GenValidatesArguments) {
  Engine engine;
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine("GEN x"))["ok"]
                   .as_bool());
  EXPECT_FALSE(
      ExecuteCommand(&engine, *ParseCommandLine("GEN x nosuchkind"))["ok"]
          .as_bool());
  EXPECT_FALSE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("GEN x walk num=0"))["ok"]
          .as_bool());
  EXPECT_FALSE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("GEN x walk num=abc"))["ok"]
          .as_bool());
}

TEST(ProtocolTest, MatchQueryFlow) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=6 len=18"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine, *ParseCommandLine(
                                  "PREPARE s st=0.2 maxlen=10"))["ok"]
          .as_bool());
  const json::Value v =
      ExecuteCommand(&engine, *ParseCommandLine("MATCH s q=0:2:8 exhaustive=1"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  const json::Value& m = v["match"];
  EXPECT_NEAR(m["normalized_dtw"].as_number(), 0.0, 1e-9);
  EXPECT_FALSE(m["series_name"].as_string().empty());
  EXPECT_FALSE(m["path"].as_array().empty());
}

TEST(ProtocolTest, MatchValidatesQuerySyntax) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=4 len=16"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=8"))["ok"]
          .as_bool());
  EXPECT_FALSE(
      ExecuteCommand(&engine, *ParseCommandLine("MATCH s"))["ok"].as_bool());
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine(
                                           "MATCH s q=0:2"))["ok"]
                   .as_bool());
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine(
                                           "MATCH s q=a:b:c"))["ok"]
                   .as_bool());
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine(
                                           "MATCH s q=-1:0:5"))["ok"]
                   .as_bool());
}

TEST(ProtocolTest, KnnReturnsRequestedCount) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=8 len=20"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=10"))["ok"]
          .as_bool());
  const json::Value v =
      ExecuteCommand(&engine, *ParseCommandLine("KNN s q=0:0:8 k=4"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_EQ(v["matches"].as_array().size(), 4u);
}

// MATCH/KNN/BATCH responses carry the per-query cascade attribution and
// STATS the engine-wide cumulative counters plus the active kernel table
// (DESIGN.md §14).
TEST(ProtocolTest, QueryResponsesCarryCascadeStats) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=8 len=20"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=10"))["ok"]
          .as_bool());

  const auto check_stats = [](const json::Value& s) {
    ASSERT_TRUE(s.is_object());
    // Attribution invariants: every lower-bound prune is credited to
    // exactly one cascade stage, and dtw_evals counts every DP that ran.
    EXPECT_DOUBLE_EQ(
        s["pruned_kim"].as_number() + s["pruned_keogh"].as_number(),
        s["groups_pruned_lb"].as_number() + s["members_pruned_lb"].as_number());
    EXPECT_DOUBLE_EQ(s["dtw_evals"].as_number(),
                     s["rep_dtw_evaluations"].as_number() +
                         s["member_dtw_evaluations"].as_number());
    EXPECT_GE(s["dtw_evals"].as_number(), 1.0);
    EXPECT_GT(s["groups_total"].as_number(), 0.0);
  };

  json::Value v = ExecuteCommand(&engine, *ParseCommandLine("MATCH s q=0:2:8"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  check_stats(v["stats"]);

  v = ExecuteCommand(&engine, *ParseCommandLine("KNN s q=0:0:8 k=3"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  check_stats(v["stats"]);

  v = ExecuteCommand(&engine, *ParseCommandLine("BATCH s q=0:0:8;1:2:8 k=2"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  ASSERT_EQ(v["results"].as_array().size(), 2u);
  for (const json::Value& entry : v["results"].as_array()) {
    check_stats(entry["stats"]);
  }

  // 4 queries so far (MATCH + KNN + 2 BATCH entries); STATS accumulates
  // them engine-wide and names the kernel table answering them.
  v = ExecuteCommand(&engine, *ParseCommandLine("STATS s"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_DOUBLE_EQ(v["queries"].as_number(), 4.0);
  EXPECT_GE(v["dtw_evals"].as_number(), 4.0);
  EXPECT_GE(v["pruned_kim"].as_number() + v["pruned_keogh"].as_number(), 0.0);
  EXPECT_FALSE(v["kernel"].as_string().empty());
}

TEST(ProtocolTest, SeasonalFlow) {
  Engine engine;
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine(
                         "GEN e electricity num=1 len=240"))["ok"]
          .as_bool());
  ASSERT_TRUE(ExecuteCommand(
                  &engine,
                  *ParseCommandLine(
                      "PREPARE e st=0.12 minlen=24 maxlen=24"))["ok"]
                  .as_bool());
  const json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine("SEASONAL e series=0 length=24"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  ASSERT_FALSE(v["patterns"].as_array().empty());
  const json::Value& top = v["patterns"][0];
  EXPECT_GE(top["occurrences"].as_number(), 2.0);
}

TEST(ProtocolTest, OverviewAndThreshold) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=6 len=18"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=10"))["ok"]
          .as_bool());
  json::Value v =
      ExecuteCommand(&engine, *ParseCommandLine("OVERVIEW s top=5"));
  ASSERT_TRUE(v["ok"].as_bool());
  EXPECT_LE(v["overview"]["cells"].as_array().size(), 5u);

  v = ExecuteCommand(&engine, *ParseCommandLine("THRESHOLD s pairs=200"));
  ASSERT_TRUE(v["ok"].as_bool());
  EXPECT_FALSE(v["recommendations"].as_array().empty());
}

TEST(ProtocolTest, DropAndErrors) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s walk num=3 len=12"))["ok"]
                  .as_bool());
  EXPECT_TRUE(
      ExecuteCommand(&engine, *ParseCommandLine("DROP s"))["ok"].as_bool());
  const json::Value v = ExecuteCommand(&engine, *ParseCommandLine("DROP s"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "NotFound");
  // Operations on missing datasets surface NotFound, not crashes.
  EXPECT_EQ(ExecuteCommand(&engine,
                           *ParseCommandLine("MATCH s q=0:0:4"))["code"]
                .as_string(),
            "NotFound");
}

TEST(ProtocolTest, LoadMissingFileFails) {
  Engine engine;
  const json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine("LOAD x /no/such/file.tsv"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "IoError");
}

TEST(ProtocolTest, ResponsesAreSingleLineJson) {
  Engine engine;
  const std::string wire =
      FormatResponse(ExecuteCommand(&engine, *ParseCommandLine("PING")));
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(wire.back(), '\n');
  EXPECT_EQ(std::count(wire.begin(), wire.end(), '\n'), 1);
  EXPECT_TRUE(json::Parse(wire.substr(0, wire.size() - 1)).ok());
}

TEST(ProtocolTest, QuitAcknowledges) {
  Engine engine;
  const json::Value v = ExecuteCommand(&engine, *ParseCommandLine("QUIT"));
  EXPECT_TRUE(v["ok"].as_bool());
  EXPECT_TRUE(v["bye"].as_bool());
}


TEST(ProtocolTest, CatalogFlow) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=5 len=20"))["ok"]
                  .as_bool());
  const json::Value v =
      ExecuteCommand(&engine, *ParseCommandLine("CATALOG s points=6"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  ASSERT_EQ(v["series"].as_array().size(), 5u);
  EXPECT_EQ(v["series"][0]["preview"].as_array().size(), 6u);
  EXPECT_FALSE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("CATALOG s points=0"))["ok"]
          .as_bool());
}

TEST(ProtocolTest, AppendFlow) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=4 len=12"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=8"))["ok"]
          .as_bool());
  const json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine(
                   "APPEND s series=novel v=0.1,0.2,0.4,0.3,0.2,0.1,0.0,0.1,"
                   "0.3,0.5,0.4,0.2"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_DOUBLE_EQ(v["series"].as_number(), 5.0);
  EXPECT_GT(v["groups"].as_number(), 0.0);
}

TEST(ProtocolTest, AppendValidatesValues) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=4 len=12"))["ok"]
                  .as_bool());
  EXPECT_FALSE(
      ExecuteCommand(&engine, *ParseCommandLine("APPEND s"))["ok"].as_bool());
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine(
                                           "APPEND s v=1,abc"))["ok"]
                   .as_bool());
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine(
                                           "APPEND s v=1"))["ok"]
                   .as_bool());
}

TEST(ProtocolTest, ExtendFlow) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=4 len=12"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=8"))["ok"]
          .as_bool());
  const json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine("EXTEND s series=1 points=0.4,0.5,0.3"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_DOUBLE_EQ(v["series"].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v["length"].as_number(), 15.0);
  EXPECT_DOUBLE_EQ(v["points_appended"].as_number(), 3.0);
  EXPECT_GT(v["new_members"].as_number(), 0.0);
  EXPECT_FALSE(v["drift"].as_array().empty());
  EXPECT_GE(v["max_drift"].as_number(), 0.0);

  // The grown tail is immediately searchable over the same session.
  const json::Value m = ExecuteCommand(
      &engine, *ParseCommandLine("MATCH s q=1:7:8 exhaustive=1"));
  ASSERT_TRUE(m["ok"].as_bool()) << m.Dump();
  EXPECT_NEAR(m["match"]["normalized_dtw"].as_number(), 0.0, 1e-9);
}

TEST(ProtocolTest, ExtendResolvesSeriesByName) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=3 len=12"))["ok"]
                  .as_bool());
  // GEN sine names series sine_family_<i>; resolve the second one by name.
  const json::Value v = ExecuteCommand(
      &engine,
      *ParseCommandLine("EXTEND s series=sine_family_1 points=0.1,0.2"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_DOUBLE_EQ(v["series"].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v["length"].as_number(), 14.0);
}

TEST(ProtocolTest, ExtendValidatesArguments) {
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=3 len=12"))["ok"]
                  .as_bool());
  for (const char* line : {
           "EXTEND s",                              // missing series + points
           "EXTEND s series=0",                     // missing points
           "EXTEND s points=1,2",                   // missing series
           "EXTEND s series=0 points=1,abc",        // malformed number
           "EXTEND s series=-1 points=1,2",         // negative index
           "EXTEND s series=99 points=1,2",         // out of range
           "EXTEND s series=nosuch points=1,2",     // unknown name
           "EXTEND nosuchset series=0 points=1,2",  // unknown dataset
       }) {
    const json::Value v = ExecuteCommand(&engine, *ParseCommandLine(line));
    EXPECT_FALSE(v["ok"].as_bool()) << line;
  }
}

TEST(ProtocolTest, DriftReportsAndSetsThreshold) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN s sine num=4 len=12"))["ok"]
                  .as_bool());

  // Unprepared: the report carries counters but no per-class scan.
  json::Value v = ExecuteCommand(&engine, &session, *ParseCommandLine("DRIFT s"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_FALSE(v["prepared"].as_bool());
  EXPECT_DOUBLE_EQ(v["threshold"].as_number(), 0.0);

  ASSERT_TRUE(
      ExecuteCommand(&engine, &session,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=8"))["ok"]
          .as_bool());
  // threshold= sets the registry-wide trigger; USE makes DRIFT sessionable.
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("USE s"))["ok"]
                  .as_bool());
  v = ExecuteCommand(&engine, &session,
                     *ParseCommandLine("DRIFT threshold=0.3"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_TRUE(v["prepared"].as_bool());
  EXPECT_DOUBLE_EQ(v["threshold"].as_number(), 0.3);
  EXPECT_DOUBLE_EQ(engine.registry().drift_threshold(), 0.3);
  ASSERT_FALSE(v["classes"].as_array().empty());
  const json::Value& row = v["classes"][0];
  EXPECT_GT(row["members"].as_number(), 0.0);
  EXPECT_GE(row["fraction"].as_number(), 0.0);
  EXPECT_GE(v["max_drift"].as_number(), 0.0);

  // Bad thresholds — and a good threshold aimed at a bad dataset — fail
  // clean and leave the registry-wide trigger untouched.
  for (const char* line :
       {"DRIFT s threshold=-0.1", "DRIFT s threshold=2", "DRIFT s threshold=nan",
        "DRIFT s threshold=abc", "DRIFT nosuch threshold=0.9"}) {
    const json::Value bad = ExecuteCommand(&engine, &session,
                                           *ParseCommandLine(line));
    EXPECT_FALSE(bad["ok"].as_bool()) << line;
  }
  EXPECT_DOUBLE_EQ(engine.registry().drift_threshold(), 0.3);

  // STATS surfaces the maintenance counters.
  v = ExecuteCommand(&engine, &session, *ParseCommandLine("STATS s"));
  ASSERT_TRUE(v["ok"].as_bool());
  EXPECT_TRUE(v["last_max_drift"].is_number());
  EXPECT_FALSE(v["regrouping"].as_bool());
}

TEST(ProtocolTest, AnalyticsVerbsAnswerOverTheWire) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN a sine num=6 len=24 seed=3"))
                  ["ok"]
                      .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine, &session,
                     *ParseCommandLine("PREPARE a st=0.2 maxlen=12"))["ok"]
          .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("USE a"))["ok"]
                  .as_bool());

  json::Value v = ExecuteCommand(&engine, &session,
                                 *ParseCommandLine("ANOMALY top=5 minpts=2"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_GT(v["members_scanned"].as_number(), 0.0);
  ASSERT_FALSE(v["findings"].as_array().empty());
  const json::Value& f = v["findings"][0];
  EXPECT_TRUE(f["score"].is_number());
  EXPECT_TRUE(f["outlier"].is_bool());
  EXPECT_GE(f["length"].as_number(), 4.0);
  ASSERT_FALSE(v["drift"].as_array().empty());
  // Findings arrive sorted by descending score.
  double prev = v["findings"][0]["score"].as_number();
  for (const json::Value& row : v["findings"].as_array()) {
    EXPECT_LE(row["score"].as_number(), prev + 1e-12);
    prev = row["score"].as_number();
  }

  v = ExecuteCommand(
      &engine, &session,
      *ParseCommandLine("CHANGEPOINT series=0 hazard=0.05 maxrun=64 probs=1"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_EQ(v["evaluated"].as_number(), 24.0);
  EXPECT_GE(v["error_bound"].as_number(), 0.0);
  EXPECT_EQ(v["probabilities"].as_array().size(), 24u);
  // By name, against the generated series naming.
  const json::Value by_name = ExecuteCommand(
      &engine, &session,
      *ParseCommandLine("CHANGEPOINT series=sine_family_0 last=8"));
  ASSERT_TRUE(by_name["ok"].as_bool()) << by_name.Dump();
  EXPECT_EQ(by_name["evaluated"].as_number(), 8.0);

  v = ExecuteCommand(&engine, &session,
                     *ParseCommandLine("MOTIF top=3 discords=2"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  ASSERT_FALSE(v["classes"].as_array().empty());
  for (const json::Value& cls : v["classes"].as_array()) {
    EXPECT_GT(cls["length"].as_number(), 0.0);
    ASSERT_LE(cls["densest"].as_array().size(), 3u);
    ASSERT_LE(cls["discords"].as_array().size(), 2u);
    if (cls.as_object().contains("motif")) {
      EXPECT_GE(cls["motif"]["distance"].as_number(), 0.0);
    }
  }

  v = ExecuteCommand(&engine, &session,
                     *ParseCommandLine("FORECAST series=1 horizon=4 k=2"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_EQ(v["values"].as_array().size(), 4u);
  EXPECT_EQ(v["values_norm"].as_array().size(), 4u);
  EXPECT_EQ(v["neighbors"].as_array().size(), 2u);
  EXPECT_EQ(v["tail_length"].as_number(), 12.0);

  v = ExecuteCommand(
      &engine, &session,
      *ParseCommandLine("FORECAST series=0 horizon=3 method=seasonal period=6"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_EQ(v["period"].as_number(), 6.0);
  EXPECT_EQ(v["values"].as_array().size(), 3u);

  // Validation failures stay clean errors, never crashes.
  for (const char* line : {
           "ANOMALY top=0",
           "ANOMALY top=9999999",
           "ANOMALY minpts=0",
           "ANOMALY eps=-1",
           "CHANGEPOINT",               // missing series
           "CHANGEPOINT series=0 hazard=0",
           "CHANGEPOINT series=0 hazard=1.5",
           "CHANGEPOINT series=0 maxrun=1",
           "CHANGEPOINT series=0 maxrun=9999999",
           "CHANGEPOINT series=0 threshold=2",
           "MOTIF top=9999999",
           "MOTIF discords=9999999",
           "FORECAST",                  // missing series
           "FORECAST series=0 horizon=0",
           "FORECAST series=0 horizon=9999999",
           "FORECAST series=0 k=0",
           "FORECAST series=0 method=oracle",
       }) {
    const json::Value bad = ExecuteCommand(&engine, &session,
                                           *ParseCommandLine(line));
    EXPECT_FALSE(bad["ok"].as_bool()) << line;
    EXPECT_EQ(bad["code"].as_string(), "InvalidArgument") << line;
  }
  // Resolution failures carry their own codes but stay clean errors too.
  for (const char* line : {
           "ANOMALY length=13",         // no such length class (NotFound)
           "CHANGEPOINT series=99",     // out of range
           "FORECAST series=0 length=13",
           "ANOMALY dataset=nosuch",
       }) {
    const json::Value bad = ExecuteCommand(&engine, &session,
                                           *ParseCommandLine(line));
    EXPECT_FALSE(bad["ok"].as_bool()) << line;
  }

  // An already-expired deadline (request arrived long ago, deadline_ms
  // counts from arrival) stops each verb with DeadlineExceeded.
  ExecContext stale;
  stale.arrival =
      std::chrono::steady_clock::now() - std::chrono::seconds(10);
  for (const char* line : {
           "ANOMALY deadline_ms=1",
           "CHANGEPOINT series=0 deadline_ms=1",
           "MOTIF deadline_ms=1",
           "FORECAST series=0 deadline_ms=1",
       }) {
    const json::Value bad =
        ExecuteCommand(&engine, &session, *ParseCommandLine(line), stale);
    EXPECT_FALSE(bad["ok"].as_bool()) << line;
    EXPECT_EQ(bad["code"].as_string(), "DeadlineExceeded") << line;
  }
  // And a negative deadline is malformed input, rejected up front.
  const json::Value neg = ExecuteCommand(&engine, &session,
                                         *ParseCommandLine("MOTIF deadline_ms=-1"));
  EXPECT_FALSE(neg["ok"].as_bool());
  EXPECT_EQ(neg["code"].as_string(), "InvalidArgument");
}

/// Regression (wire-input hardening): "nan"/"inf" in any numeric option and
/// NaN/Inf float64s in binary value payloads are rejected at parse time.
/// Pre-fix, EXTEND points=nan and APPEND v=nan were accepted — the poisoned
/// values joined the base and silently broke every later distance
/// comparison (NaN compares false against any cutoff).
TEST(ProtocolTest, NonFiniteNumericWireInputIsRejected) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN s sine num=3 len=12"))["ok"]
                  .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("USE s"))["ok"]
                  .as_bool());

  for (const char* line : {
           "EXTEND series=0 points=1,nan,2",
           "EXTEND series=0 points=inf",
           "EXTEND series=0 points=-inf",
           "EXTEND series=0 points=NaN",
           "APPEND v=0.5,nan",
           "APPEND v=infinity",
           "ANOMALY eps=nan",
           "CHANGEPOINT series=0 hazard=nan",
           "CHANGEPOINT series=0 threshold=inf",
           "DRIFT threshold=nan",
       }) {
    const json::Value bad = ExecuteCommand(&engine, &session,
                                           *ParseCommandLine(line));
    EXPECT_FALSE(bad["ok"].as_bool()) << line;
    EXPECT_EQ(bad["code"].as_string(), "InvalidArgument") << line;
  }

  // Binary dialect: the same contract for raw float64 payloads.
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double poison : {qnan, inf, -inf}) {
    Command extend;
    extend.verb = "EXTEND";
    extend.options["series"] = "0";
    extend.payload = {0.25, poison, 0.5};
    const json::Value bad = ExecuteCommand(&engine, &session, extend);
    EXPECT_FALSE(bad["ok"].as_bool());
    EXPECT_EQ(bad["code"].as_string(), "InvalidArgument");

    Command append;
    append.verb = "APPEND";
    append.payload = {poison};
    const json::Value bad2 = ExecuteCommand(&engine, &session, append);
    EXPECT_FALSE(bad2["ok"].as_bool());
    EXPECT_EQ(bad2["code"].as_string(), "InvalidArgument");
  }

  // Nothing leaked into the dataset: the series kept its original length.
  const json::Value stats =
      ExecuteCommand(&engine, &session, *ParseCommandLine("CATALOG points=1"));
  ASSERT_TRUE(stats["ok"].as_bool());
  for (const json::Value& row : stats["series"].as_array()) {
    EXPECT_EQ(row["length"].as_number(), 12.0);
  }
}

TEST(ProtocolTest, UseSetsSessionDefaultDataset) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN s sine num=6 len=18"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine, &session,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=10"))["ok"]
          .as_bool());

  // Without USE and without a name, dataset-scoped verbs must fail clean.
  json::Value v =
      ExecuteCommand(&engine, &session, *ParseCommandLine("MATCH q=0:2:8"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "InvalidArgument");

  v = ExecuteCommand(&engine, &session, *ParseCommandLine("USE s"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_EQ(v["dataset"].as_string(), "s");

  // Now the bare forms resolve against the session dataset.
  EXPECT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("MATCH q=0:2:8"))["ok"]
                  .as_bool());
  EXPECT_TRUE(
      ExecuteCommand(&engine, &session, *ParseCommandLine("STATS"))["ok"]
          .as_bool());
  EXPECT_TRUE(
      ExecuteCommand(&engine, &session,
                     *ParseCommandLine("KNN q=0:0:8 k=2"))["ok"]
          .as_bool());

  // USE of a missing dataset must not poison the session.
  v = ExecuteCommand(&engine, &session, *ParseCommandLine("USE nope"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("MATCH q=0:2:8"))["ok"]
                  .as_bool());

  // Dropping the session dataset clears the default.
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("DROP name=s"))["ok"]
                  .as_bool());
  v = ExecuteCommand(&engine, &session, *ParseCommandLine("MATCH q=0:2:8"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "InvalidArgument");
}

TEST(ProtocolTest, DatasetOptionOverridesSession) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN a sine num=4 len=16"))["ok"]
                  .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN b walk num=4 len=16"))["ok"]
                  .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("PREPARE dataset=a st=0.2 "
                                               "maxlen=8"))["ok"]
                  .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("USE b"))["ok"]
                  .as_bool());
  // dataset= beats the session default (b is not prepared; a is).
  const json::Value v = ExecuteCommand(
      &engine, &session, *ParseCommandLine("MATCH dataset=a q=0:2:8"));
  EXPECT_TRUE(v["ok"].as_bool()) << v.Dump();
  // The session default still points at b, which must fail as unprepared.
  const json::Value unprepared =
      ExecuteCommand(&engine, &session, *ParseCommandLine("MATCH q=0:2:8"));
  EXPECT_FALSE(unprepared["ok"].as_bool());
  EXPECT_EQ(unprepared["code"].as_string(), "FailedPrecondition");
}

TEST(ProtocolTest, DatasetsReportsSlotDetailAndBudget) {
  Engine engine;
  Session session;
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN a sine num=4 len=16"))["ok"]
                  .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("GEN b walk num=4 len=16"))["ok"]
                  .as_bool());
  ASSERT_TRUE(ExecuteCommand(&engine, &session,
                             *ParseCommandLine("PREPARE a st=0.2 maxlen=8"))
                  ["ok"]
                      .as_bool());
  const json::Value v =
      ExecuteCommand(&engine, &session, *ParseCommandLine("DATASETS"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  ASSERT_EQ(v["datasets"].as_array().size(), 2u);
  EXPECT_GT(v["prepared_bytes"].as_number(), 0.0);
  EXPECT_DOUBLE_EQ(v["budget"].as_number(), 0.0);
  for (const json::Value& row : v["datasets"].as_array()) {
    if (row["name"].as_string() == "a") {
      EXPECT_TRUE(row["prepared"].as_bool());
      EXPECT_GT(row["bytes"].as_number(), 0.0);
    } else {
      EXPECT_FALSE(row["prepared"].as_bool());
      EXPECT_EQ(row["tier"].as_string(), "raw");
      EXPECT_TRUE(row["evicted"].is_null());  // the field is gone
    }
  }
}

TEST(ProtocolTest, BudgetVerbDrivesLruEviction) {
  const std::string dir = ::testing::TempDir() + "/onex_proto_budget";
  std::filesystem::remove_all(dir);
  Engine engine;
  Session session;
  const std::vector<std::string> setup = {
      "PERSIST dir=" + dir + " every=0 fsync=0", "GEN a sine num=4 len=16",
      "PREPARE a st=0.2 maxlen=8", "CHECKPOINT a"};
  for (const std::string& line : setup) {
    ASSERT_TRUE(ExecuteCommand(&engine, &session, *ParseCommandLine(line))["ok"]
                    .as_bool())
        << line;
  }
  json::Value v =
      ExecuteCommand(&engine, &session, *ParseCommandLine("BUDGET"));
  ASSERT_TRUE(v["ok"].as_bool());
  EXPECT_GT(v["prepared_bytes"].as_number(), 0.0);

  // A one-byte budget evicts the resident base to its checkpoint...
  v = ExecuteCommand(&engine, &session, *ParseCommandLine("BUDGET bytes=1"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_DOUBLE_EQ(v["budget"].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v["prepared_bytes"].as_number(), 0.0);
  v = ExecuteCommand(&engine, &session, *ParseCommandLine("TIER a"));
  EXPECT_EQ(v["tier"].as_string(), "mapped") << v.Dump();

  // ...and a query on the evicted dataset is served off the mapping.
  v = ExecuteCommand(&engine, &session, *ParseCommandLine("MATCH a q=0:2:8"));
  EXPECT_TRUE(v["ok"].as_bool()) << v.Dump();

  EXPECT_FALSE(ExecuteCommand(&engine, &session,
                              *ParseCommandLine("BUDGET bytes=-5"))["ok"]
                   .as_bool());
  std::filesystem::remove_all(dir);
}

TEST(ProtocolTest, BudgetWithoutDurabilityIsRefused) {
  // An evicted base serves from its checkpoint; a memory-only engine has
  // none, so a nonzero budget could never be honoured.
  Engine engine;
  Session session;
  for (const char* line : {"GEN a sine num=4 len=16", "GEN b walk num=4 len=16",
                           "PREPARE a st=0.2 maxlen=8",
                           "PREPARE b st=0.2 maxlen=8"}) {
    ASSERT_TRUE(ExecuteCommand(&engine, &session, *ParseCommandLine(line))["ok"]
                    .as_bool())
        << line;
  }
  json::Value v =
      ExecuteCommand(&engine, &session, *ParseCommandLine("BUDGET bytes=1"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "FailedPrecondition") << v.Dump();
  EXPECT_NE(v.Dump().find("checkpoint"), std::string::npos) << v.Dump();

  // The bare report and an explicit "off" still answer.
  v = ExecuteCommand(&engine, &session, *ParseCommandLine("BUDGET bytes=0"));
  EXPECT_TRUE(v["ok"].as_bool()) << v.Dump();
  v = ExecuteCommand(&engine, &session, *ParseCommandLine("BUDGET"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_DOUBLE_EQ(v["budget"].as_number(), 0.0);

  v = ExecuteCommand(&engine, &session, *ParseCommandLine("DATASETS"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  ASSERT_EQ(v["datasets"].as_array().size(), 2u);
  for (const json::Value& row : v["datasets"].as_array()) {
    EXPECT_EQ(row["tier"].as_string(), "resident") << row.Dump();
  }
}

TEST(ProtocolTest, PersistAfterGenIsRefused) {
  // Durability starts at a dataset's birth: once a GEN has created a
  // memory-only dataset, PERSIST dir= answers FailedPrecondition, creates
  // nothing and leaves the engine memory-only and answering.
  const std::string dir = ::testing::TempDir() + "/onex_proto_late_persist";
  std::filesystem::remove_all(dir);
  Engine engine;
  Session session;
  auto run = [&](const std::string& line) {
    return ExecuteCommand(&engine, &session, *ParseCommandLine(line));
  };
  auto answers = [&] {
    const json::Value v = run("KNN a q=0:2:8 k=2");
    EXPECT_TRUE(v["ok"].as_bool()) << v.Dump();
    std::string out;
    for (const json::Value& m : v["matches"].as_array()) {
      out += m["series"].Dump() + ":" + m["start"].Dump() + ":" +
             m["length"].Dump() + ":" + m["dtw"].Dump() + " ";
    }
    return out;
  };
  ASSERT_TRUE(run("GEN a sine num=4 len=16 seed=2")["ok"].as_bool());
  ASSERT_TRUE(run("PREPARE a st=0.2 maxlen=8")["ok"].as_bool());
  const std::string before = answers();
  ASSERT_FALSE(before.empty());

  json::Value v = run("PERSIST dir=" + dir + " fsync=0");
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "FailedPrecondition") << v.Dump();
  EXPECT_FALSE(std::filesystem::exists(dir));

  v = run("PERSIST");
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_FALSE(v["durable"].as_bool());
  v = run("STATS a");
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  EXPECT_TRUE(v["durable"].is_null()) << v.Dump();
  EXPECT_EQ(answers(), before);
}

TEST(ProtocolTest, LoadAcceptsKeyValueForm) {
  Engine engine;
  const json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine("LOAD name=x path=/no/such/file.tsv"));
  EXPECT_FALSE(v["ok"].as_bool());
  EXPECT_EQ(v["code"].as_string(), "IoError");  // name/path were resolved
  // Mixed form: positional name + path= option resolves too.
  EXPECT_EQ(ExecuteCommand(&engine, *ParseCommandLine(
                               "LOAD y path=/no/such/file.tsv"))["code"]
                .as_string(),
            "IoError");
  EXPECT_FALSE(
      ExecuteCommand(&engine, *ParseCommandLine("LOAD name=x"))["ok"]
          .as_bool());
  EXPECT_FALSE(ExecuteCommand(&engine, *ParseCommandLine("LOAD"))["ok"]
                   .as_bool());
}

TEST(ProtocolTest, SaveAndLoadBaseFlow) {
  const std::string path = ::testing::TempDir() + "/onex_proto_base.onex";
  Engine engine;
  ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(
                                          "GEN s sine num=4 len=12"))["ok"]
                  .as_bool());
  ASSERT_TRUE(
      ExecuteCommand(&engine,
                     *ParseCommandLine("PREPARE s st=0.2 maxlen=8"))["ok"]
          .as_bool());
  const json::Value saved = ExecuteCommand(
      &engine, *ParseCommandLine("SAVEBASE s " + path));
  ASSERT_TRUE(saved["ok"].as_bool()) << saved.Dump();

  const json::Value loaded = ExecuteCommand(
      &engine, *ParseCommandLine("LOADBASE restored " + path));
  ASSERT_TRUE(loaded["ok"].as_bool()) << loaded.Dump();
  const json::Value stats =
      ExecuteCommand(&engine, *ParseCommandLine("STATS restored"));
  EXPECT_TRUE(stats["prepared"].as_bool());
  std::remove(path.c_str());
}

/// Zeroes every "elapsed_ms" (wall-clock, the one field that differs run to
/// run) so the rest of the response can be pinned byte for byte.
void ZeroElapsed(json::Value* v) {
  if (v->is_array()) {
    for (json::Value& e : v->mutable_array()) ZeroElapsed(&e);
  } else if (v->is_object()) {
    for (auto& [key, e] : v->mutable_object()) {
      if (key == "elapsed_ms") e = json::Value(0);
      ZeroElapsed(&e);
    }
  }
}

/// One response line with its wall-clock field zeroed.
std::string ResponseLine(Engine* engine, const std::string& line) {
  Session session;
  json::Value v = ExecuteCommand(engine, &session, *ParseCommandLine(line));
  ZeroElapsed(&v);
  return FormatResponse(v);
}

// A query runs on one thread; `threads=` on a query verb is an option the
// verb does not know, ignored like any other, so an old client that still
// sends it gets the same bytes.
TEST(ProtocolTest, QueryVerbsIgnoreThreads) {
  Engine engine;
  for (const char* setup :
       {"GEN w walk num=12 len=64 seed=7", "PREPARE w st=0.2 maxlen=24"}) {
    ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(setup))["ok"]
                    .as_bool())
        << setup;
  }
  for (const std::string line :
       {"MATCH w q=2:5:16 exhaustive=1", "KNN w q=4:10:20 k=3",
        "BATCH w q=1:0:12;5:20:16;9:30:24 k=2"}) {
    const std::string plain = ResponseLine(&engine, line);
    EXPECT_NE(plain.find("\"ok\":true"), std::string::npos) << plain;
    EXPECT_EQ(ResponseLine(&engine, line + " threads=4"), plain) << line;
  }
}

// window= is parsed as a 64-bit integer: a width past INT_MAX is refused
// instead of wrapping (4294967296 used to run lock-step, as window=0), and
// every negative width means unconstrained, however large.
TEST(ProtocolTest, WindowBeyondIntIsRefused) {
  Engine engine;
  for (const char* setup :
       {"GEN w walk num=6 len=24 seed=3", "PREPARE w st=0.2 maxlen=12"}) {
    ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(setup))["ok"]
                    .as_bool())
        << setup;
  }
  for (const std::string verb :
       {"MATCH w q=1:5:12 exhaustive=1", "KNN w q=1:5:12 k=2",
        "BATCH w q=1:5:12;2:0:10"}) {
    for (const char* window : {" window=2147483648", " window=4294967296"}) {
      const json::Value v =
          ExecuteCommand(&engine, *ParseCommandLine(verb + window));
      EXPECT_FALSE(v["ok"].as_bool()) << verb << window;
      EXPECT_EQ(v["code"].as_string(), "InvalidArgument") << v.Dump();
    }
    EXPECT_NE(ResponseLine(&engine, verb + " window=2147483647")
                  .find("\"ok\":true"),
              std::string::npos)
        << verb;
    EXPECT_EQ(ResponseLine(&engine, verb + " window=-4294967296"),
              ResponseLine(&engine, verb + " window=-1"))
        << verb;
  }
}

// A group that ranking pruned by its lower bound and that exhaustive
// refinement then skips by the group-envelope bound is one pruned group,
// counted once: groups_pruned_lb never exceeds groups_total, and the
// cascade attribution identity still holds. The answer is unchanged by
// the counting.
TEST(ProtocolTest, ExhaustiveMatchCountsEachPrunedGroupOnce) {
  Engine engine;
  for (const char* setup :
       {"GEN w walk num=6 len=24 seed=3", "PREPARE w st=0.2 maxlen=12"}) {
    ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(setup))["ok"]
                    .as_bool())
        << setup;
  }
  const json::Value v = ExecuteCommand(
      &engine, *ParseCommandLine("MATCH w q=1:5:12 exhaustive=1"));
  ASSERT_TRUE(v["ok"].as_bool()) << v.Dump();
  const json::Value& s = v["stats"];
  EXPECT_EQ(s["groups_total"].as_number(), 110.0) << s.Dump();
  EXPECT_LE(s["groups_pruned_lb"].as_number(), s["groups_total"].as_number())
      << s.Dump();
  EXPECT_DOUBLE_EQ(
      s["pruned_kim"].as_number() + s["pruned_keogh"].as_number(),
      s["groups_pruned_lb"].as_number() + s["members_pruned_lb"].as_number());
}

/// The exact wire bytes of the read verbs a dashboard serves, on fixed-seed
/// GEN datasets: each response's text line verbatim, and its binary
/// response frame (JSON body plus raw float64 section) as length and
/// FNV-1a. The server and any client-side oracle share json::Value::Dump, so
/// only a recorded transcript catches a change in the bytes themselves. The
/// transcript is pinned under the scalar kernel table. On a mismatch the
/// test writes what it produced to net_response_golden.actual.txt in the
/// working directory; an intended change is re-recorded by copying that file
/// over net_response_golden.inc.
TEST(ProtocolTest, ResponseBytesMatchTheRecordedGolden) {
  const KernelMode before = GetKernelMode();
  SetKernelMode(KernelMode::kScalar);
  Engine engine;
  for (const char* setup :
       {"GEN w walk num=12 len=64 seed=7", "PREPARE w st=0.2 maxlen=24",
        "GEN s sine num=12 len=64 seed=11", "PREPARE s st=0.2 maxlen=24"}) {
    ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(setup))["ok"]
                    .as_bool())
        << setup;
  }
  std::ostringstream got;
  std::uint64_t request_id = 0;
  for (const char* line :
       {"STATS w", "CATALOG w points=16", "OVERVIEW w top=8",
        "FORECAST s series=3 horizon=8", "MATCH w q=2:5:16",
        "KNN s q=4:10:20 k=3", "BATCH s q=1:0:12;5:20:16;9:30:24",
        "ANOMALY w length=16 top=5", "MATCH nosuch q=0:0:8",
        "MATCH w q=\"bad\\ref\""}) {
    const Command cmd = *ParseCommandLine(line);
    Session text_session;
    json::Value text = ExecuteCommand(&engine, &text_session, cmd);
    ZeroElapsed(&text);

    std::vector<double> values;
    ExecContext ctx;
    ctx.out_values = &values;
    Session frame_session;
    json::Value body = ExecuteCommand(&engine, &frame_session, cmd, ctx);
    ZeroElapsed(&body);
    Frame frame;
    frame.type = FrameType::kResponse;
    frame.flags = body["ok"].as_bool() ? 0 : kFrameFlagError;
    frame.request_id = ++request_id;
    frame.text = body.Dump();
    frame.values = std::move(values);
    const std::string bytes = EncodeFrame(frame);

    got << "> " << line << "\n"
        << FormatResponse(text)
        << StrFormat("frame %zu %016llx\n", bytes.size(),
                     static_cast<unsigned long long>(Fnv1a64(bytes)));
  }
  SetKernelMode(before);

  const std::string want = std::string(kResponseGolden).substr(1);
  if (got.str() != want) {
    std::ofstream("net_response_golden.actual.txt")
        << "R\"golden(\n" << got.str() << ")golden\"\n";
  }
  EXPECT_EQ(got.str(), want)
      << "response bytes differ (written to net_response_golden.actual.txt)";
}


/// One command's response body (wall clock zeroed) and the binary values
/// section a frame client would receive with it.
struct WireAnswer {
  json::Value body;
  std::vector<double> values;
};

WireAnswer AnswerWithValues(Engine* engine, const std::string& line) {
  WireAnswer out;
  ExecContext ctx;
  ctx.out_values = &out.values;
  Session session;
  out.body = ExecuteCommand(engine, &session, *ParseCommandLine(line), ctx);
  ZeroElapsed(&out.body);
  return out;
}

/// One match of a single-dataset answer, tagged with its dataset and
/// carrying its own slice of the values section.
struct OracleMatch {
  std::string dataset;
  json::Value match;
  std::vector<double> values;
};

/// The merge order, written out independently of cluster_merge.h.
bool OracleBefore(const OracleMatch& x, const OracleMatch& y) {
  const auto key = [](const OracleMatch& m) {
    return std::make_tuple(m.match["normalized_dtw"].as_number(), m.dataset,
                           m.match["series"].as_number(),
                           m.match["start"].as_number(),
                           m.match["length"].as_number());
  };
  return key(x) < key(y);
}

/// Brute-force twin of one merged entry: the union of the per-dataset
/// entries, sorted, cut to k, with the stats summed field by field in user
/// dataset order.
struct OracleEntry {
  std::vector<OracleMatch> matches;
  json::Value stats = json::Value::MakeObject();
  bool has_stats = false;

  void Absorb(const std::string& dataset, const json::Value& entry,
              const std::vector<double>& values, std::size_t* cursor) {
    for (const json::Value& m : entry["matches"].as_array()) {
      OracleMatch om;
      om.dataset = dataset;
      om.match = m;
      om.match.Set("dataset", dataset);
      const std::size_t len = static_cast<std::size_t>(m["length"].as_number());
      ASSERT_LE(*cursor + len, values.size());
      om.values.assign(values.begin() + static_cast<std::ptrdiff_t>(*cursor),
                       values.begin() +
                           static_cast<std::ptrdiff_t>(*cursor + len));
      *cursor += len;
      matches.push_back(std::move(om));
    }
    if (entry["matches"].as_array().empty()) return;
    has_stats = true;
    for (const auto& [key, value] : entry["stats"].as_object()) {
      stats.Set(key, stats[key].as_number() + value.as_number());
    }
  }

  json::Value Finish(std::size_t k, std::vector<double>* values) {
    std::sort(matches.begin(), matches.end(), OracleBefore);
    if (matches.size() > k) matches.resize(k);
    json::Value arr = json::Value::MakeArray();
    for (const OracleMatch& m : matches) {
      arr.Append(m.match);
      values->insert(values->end(), m.values.begin(), m.values.end());
    }
    json::Value out = json::Value::MakeObject();
    out.Set("matches", std::move(arr));
    if (has_stats) out.Set("stats", stats);
    return out;
  }
};

/// Checks `VERB datasets=<names> <rest>` against the union of each named
/// dataset's own single-dataset answer to `VERB <name> <rest>`.
void ExpectFanOutMatchesOracle(Engine* engine, const std::string& verb,
                               const std::vector<std::string>& names,
                               const std::string& rest, std::size_t k) {
  std::string list;
  for (const std::string& name : names) {
    list += (list.empty() ? "" : ",") + name;
  }
  const std::string line = verb + " datasets=" + list + " " + rest;
  SCOPED_TRACE(line);
  const WireAnswer merged = AnswerWithValues(engine, line);
  ASSERT_TRUE(merged.body["ok"].as_bool()) << merged.body.Dump();

  std::vector<OracleEntry> entries(1);
  for (const std::string& name : names) {
    const WireAnswer single = AnswerWithValues(engine, verb + " " + name + " " + rest);
    ASSERT_TRUE(single.body["ok"].as_bool()) << single.body.Dump();
    std::size_t cursor = 0;
    if (verb == "BATCH") {
      const auto& results = single.body["results"].as_array();
      entries.resize(std::max(entries.size(), results.size()));
      for (std::size_t qi = 0; qi < results.size(); ++qi) {
        entries[qi].Absorb(name, results[qi], single.values, &cursor);
      }
    } else if (verb == "MATCH") {
      json::Value entry = json::Value::MakeObject();
      json::Value one = json::Value::MakeArray();
      one.Append(single.body["match"]);
      entry.Set("matches", std::move(one));
      entry.Set("stats", single.body["stats"]);
      entries[0].Absorb(name, entry, single.values, &cursor);
    } else {
      entries[0].Absorb(name, single.body, single.values, &cursor);
    }
    ASSERT_EQ(cursor, single.values.size()) << "values not sliced by length";
  }

  json::Value want = json::Value::MakeObject();
  want.Set("ok", true);
  std::vector<double> want_values;
  if (verb == "BATCH") {
    json::Value results = json::Value::MakeArray();
    for (OracleEntry& e : entries) results.Append(e.Finish(k, &want_values));
    want.Set("results", std::move(results));
  } else if (verb == "MATCH") {
    json::Value entry = entries[0].Finish(1, &want_values);
    ASSERT_FALSE(entry["matches"].as_array().empty());
    want.Set("match", entry["matches"][0]);
    want.Set("stats", entry["stats"]);
  } else {
    json::Value entry = entries[0].Finish(k, &want_values);
    for (const auto& [key, value] : entry.as_object()) want.Set(key, value);
  }
  EXPECT_EQ(merged.body.Dump(), want.Dump());
  EXPECT_EQ(merged.values, want_values);
}

/// The datasets= fan-out answers exactly what a brute-force merge of the
/// per-dataset answers gives. Datasets `a` and `b` hold the same series, so
/// every match of one ties every match of the other in distance and only
/// the dataset name orders them; the user order of datasets= must not
/// matter.
TEST(ProtocolTest, DatasetsFanOutEqualsBruteForceMerge) {
  Engine engine;
  for (const char* setup :
       {"GEN a walk num=6 len=32 seed=5", "PREPARE a st=0.2 maxlen=12",
        "GEN b walk num=6 len=32 seed=5", "PREPARE b st=0.2 maxlen=12",
        "GEN c sine num=6 len=32 seed=9", "PREPARE c st=0.2 maxlen=12"}) {
    ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(setup))["ok"]
                    .as_bool())
        << setup;
  }
  const std::vector<std::vector<std::string>> orders = {
      {"a", "b", "c"}, {"c", "b", "a"}, {"b", "c", "a"}};
  for (const std::vector<std::string>& names : orders) {
    ExpectFanOutMatchesOracle(&engine, "MATCH", names, "q=1:3:10", 1);
    ExpectFanOutMatchesOracle(&engine, "MATCH", names, "q=4:0:8 window=2", 1);
    ExpectFanOutMatchesOracle(&engine, "KNN", names, "q=1:3:10 k=5", 5);
    ExpectFanOutMatchesOracle(&engine, "KNN", names, "q=2:6:9", 3);
    ExpectFanOutMatchesOracle(&engine, "KNN", names, "q=0:0:12 k=40", 40);
    ExpectFanOutMatchesOracle(&engine, "BATCH", names,
                              "q=0:0:8;2:4:12;5:10:9 k=3", 3);
    ExpectFanOutMatchesOracle(&engine, "BATCH", names, "q=3:1:11", 1);
  }

  // The first failing dataset, in user order, answers for the whole
  // request, with the error its own single-dataset command gives.
  const auto body = [&](const std::string& line) {
    return AnswerWithValues(&engine, line).body.Dump();
  };
  EXPECT_EQ(body("KNN datasets=a,nosuch,c q=1:3:10"),
            body("KNN nosuch q=1:3:10"));
  EXPECT_EQ(body("MATCH datasets=a,b q=1:99:10"), body("MATCH a q=1:99:10"));
  EXPECT_EQ(body("KNN datasets=c,a q=1:3:10 k=0"), body("KNN c q=1:3:10 k=0"));
  EXPECT_EQ(body("BATCH datasets=b,nosuch q=0:0:8 k=2"),
            body("BATCH nosuch q=0:0:8 k=2"));
}


/// The combined BATCH volume (queries x datasets x k) is checked before any
/// dataset runs, on a single node as on a cluster coordinator. A frame over
/// the cap therefore answers the cap even when a q= ref is malformed too;
/// under the cap, the malformed ref answers as it does for one dataset.
TEST(ProtocolTest, DatasetsBatchVolumeCapAnswersBeforeTheShards) {
  Engine engine;
  for (const char* setup :
       {"GEN a walk num=4 len=24 seed=3", "PREPARE a st=0.2 maxlen=10",
        "GEN b walk num=4 len=24 seed=4", "PREPARE b st=0.2 maxlen=10"}) {
    ASSERT_TRUE(ExecuteCommand(&engine, *ParseCommandLine(setup))["ok"]
                    .as_bool())
        << setup;
  }
  const auto run = [&](const std::string& line) {
    return ExecuteCommand(&engine, *ParseCommandLine(line));
  };
  const std::string cap =
      "BATCH result volume (queries x datasets x k) is capped at 100000";
  for (const char* line :
       {"BATCH datasets=a,b q=0:0:8;1:2:8 k=50000",
        "BATCH datasets=a,b q=0:0:8;bad k=50000",
        "BATCH datasets=a,b q=0:0:8;1:2:8 k=50000 window=x"}) {
    const json::Value v = run(line);
    EXPECT_EQ(v["code"].as_string(), "InvalidArgument") << line;
    EXPECT_EQ(v["error"].as_string(), cap) << line;
  }
  EXPECT_EQ(run("BATCH datasets=a,b q=0:0:8;bad k=2").Dump(),
            run("BATCH a q=0:0:8;bad k=2").Dump());
  EXPECT_EQ(run("BATCH datasets=a,b q=0:0:8 k=0").Dump(),
            run("BATCH a q=0:0:8 k=0").Dump());
  EXPECT_TRUE(run("BATCH datasets=a,b q=0:0:8;1:2:8 k=25000")["ok"].as_bool());
}

}  // namespace
}  // namespace onex::net
