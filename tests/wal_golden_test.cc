/// Golden-file properties of the ONEXWAL format (DESIGN.md §13):
/// byte-stable encode/decode round trips, every truncation prefix either
/// rejected or cleanly replayed-to-prefix, random byte flips surfacing as
/// checksum rejection or clean parse errors (never UB or a silently
/// different record), duplicated tails rejected as non-monotone history,
/// decode-side caps — a record body can declare any count it likes, but
/// allocation only ever follows bytes actually present — and a LOADBASE
/// birth's checkpoint marker replaying. Mirrors core_arena_golden_test; run
/// under ASan in CI.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/core/onex_base.h"
#include "onex/engine/dataset_registry.h"
#include "onex/engine/engine.h"
#include "onex/engine/wal.h"
#include "onex/ts/normalization.h"
#include "test_util.h"

namespace onex {
namespace {

std::vector<WalRecord> GoldenRecords() {
  std::vector<WalRecord> records;

  Dataset ds("golden ds \"quoted\"");
  ds.Add(TimeSeries("alpha", {0.25, -1.5, 3.0, 0.1}, "class a"));
  ds.Add(TimeSeries("beta with spaces", {1e-300, 2.5e17, -0.0}, ""));
  records.push_back(WalLoadRecord(ds));

  records.push_back(WalAppendRecord(
      TimeSeries("newcomer", {0.5, 0.25, 0.125}, "label\nwith newline")));

  std::vector<SeriesExtension> ext(2);
  ext[0].series = 0;
  ext[0].points = {1.0, 2.0, 3.0};
  ext[1].series = 2;
  ext[1].points = {-7.25};
  records.push_back(WalExtendRecord(std::move(ext)));

  BaseBuildOptions opt;
  opt.st = 0.17;
  opt.min_length = 4;
  opt.max_length = 12;
  opt.length_step = 2;
  opt.stride = 3;
  opt.centroid_policy = CentroidPolicy::kRunningMean;
  records.push_back(WalPrepareRecord(opt, NormalizationKind::kZScoreSeries));

  records.push_back(WalRegroupRecord({4, 6, 10}));
  records.push_back(WalRegroupRecord({8}));
  std::vector<SeriesExtension> tail(1);
  tail[0].series = 1;
  tail[0].points = {0.5};
  records.push_back(WalExtendRecord(std::move(tail)));
  records.push_back(WalCheckpointRecord(41));

  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].seq = i + 1;
  }
  return records;
}

std::string EncodeLog(const std::string& name,
                      const std::vector<WalRecord>& records) {
  std::string out = EncodeWalHeader(name);
  for (const WalRecord& r : records) out += EncodeWalRecord(r);
  return out;
}

void ExpectRecordsEqual(const WalRecord& a, const WalRecord& b) {
  ASSERT_EQ(a.seq, b.seq);
  ASSERT_EQ(a.type, b.type);
  switch (a.type) {
    case WalRecordType::kLoad: {
      ASSERT_EQ(a.dataset.name(), b.dataset.name());
      ASSERT_EQ(a.dataset.size(), b.dataset.size());
      for (std::size_t s = 0; s < a.dataset.size(); ++s) {
        ASSERT_EQ(a.dataset[s].name(), b.dataset[s].name());
        ASSERT_EQ(a.dataset[s].label(), b.dataset[s].label());
        ASSERT_EQ(a.dataset[s].values(), b.dataset[s].values());
      }
      break;
    }
    case WalRecordType::kAppend:
      ASSERT_EQ(a.series.name(), b.series.name());
      ASSERT_EQ(a.series.label(), b.series.label());
      ASSERT_EQ(a.series.values(), b.series.values());
      break;
    case WalRecordType::kExtend: {
      ASSERT_EQ(a.extensions.size(), b.extensions.size());
      for (std::size_t i = 0; i < a.extensions.size(); ++i) {
        ASSERT_EQ(a.extensions[i].series, b.extensions[i].series);
        ASSERT_EQ(a.extensions[i].points, b.extensions[i].points);
      }
      break;
    }
    case WalRecordType::kPrepare:
      ASSERT_EQ(a.options.st, b.options.st);
      ASSERT_EQ(a.options.min_length, b.options.min_length);
      ASSERT_EQ(a.options.max_length, b.options.max_length);
      ASSERT_EQ(a.options.length_step, b.options.length_step);
      ASSERT_EQ(a.options.stride, b.options.stride);
      ASSERT_EQ(a.options.centroid_policy, b.options.centroid_policy);
      ASSERT_EQ(a.norm, b.norm);
      break;
    case WalRecordType::kRegroup:
      ASSERT_EQ(a.lengths, b.lengths);
      break;
    case WalRecordType::kCheckpoint:
      ASSERT_EQ(a.checkpoint_seq, b.checkpoint_seq);
      break;
  }
}

TEST(WalGolden, HeaderRoundTrip) {
  for (const std::string& name :
       {std::string("plain"), std::string("has space"),
        std::string("quo\"te\\slash"), std::string("new\nline")}) {
    const std::string line = EncodeWalHeader(name);
    ASSERT_EQ(line.back(), '\n');
    Result<std::string> decoded =
        DecodeWalHeader(std::string_view(line).substr(0, line.size() - 1));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(*decoded, name);
  }
  EXPECT_FALSE(DecodeWalHeader("ONEXWAL 2 \"x\"").ok());
  EXPECT_FALSE(DecodeWalHeader("NOTAWAL 1 \"x\"").ok());
  EXPECT_FALSE(DecodeWalHeader("ONEXWAL 1 \"\"").ok());
  EXPECT_FALSE(DecodeWalHeader("ONEXWAL 1 \"x\" junk").ok());
}

TEST(WalGolden, RecordRoundTripIsByteStable) {
  const std::vector<WalRecord> records = GoldenRecords();
  for (const WalRecord& record : records) {
    const std::string line = EncodeWalRecord(record);
    ASSERT_EQ(line.back(), '\n');
    Result<WalRecord> decoded =
        DecodeWalRecord(std::string_view(line).substr(0, line.size() - 1));
    ASSERT_TRUE(decoded.ok()) << decoded.status() << " for line: " << line;
    ExpectRecordsEqual(record, *decoded);
    // Re-encoding the decoded record reproduces the bytes exactly: the
    // format has one spelling per record.
    EXPECT_EQ(EncodeWalRecord(*decoded), line);
  }
  // Independent construction encodes to the same digest (byte stability
  // across runs and processes — nothing timestamped or address-dependent).
  const std::string log1 = EncodeLog("golden", GoldenRecords());
  const std::string log2 = EncodeLog("golden", GoldenRecords());
  EXPECT_EQ(Fnv1a64(log1), Fnv1a64(log2));
  EXPECT_EQ(log1, log2);
}

TEST(WalGolden, ScanCleanLog) {
  const std::vector<WalRecord> records = GoldenRecords();
  const std::string log = EncodeLog("golden", records);
  std::istringstream in(log);
  Result<WalScan> scan = ScanWal(in);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->dataset_name, "golden");
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_FALSE(scan->embryonic);
  EXPECT_EQ(scan->valid_bytes, log.size());
  ASSERT_EQ(scan->records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ExpectRecordsEqual(records[i], scan->records[i]);
  }
}

TEST(WalGolden, EveryTruncationPrefixRejectedOrReplayedToPrefix) {
  const std::vector<WalRecord> records = GoldenRecords();
  const std::string log = EncodeLog("golden", records);
  // Record boundaries: byte offsets where a line (header or record) ends.
  std::vector<std::size_t> boundaries;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i] == '\n') boundaries.push_back(i + 1);
  }
  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    std::istringstream in(log.substr(0, cut));
    Result<WalScan> scan = ScanWal(in);
    ASSERT_TRUE(scan.ok()) << "cut=" << cut << ": " << scan.status();
    // Complete records strictly inside the prefix.
    std::size_t complete = 0;
    for (std::size_t b = 1; b < boundaries.size(); ++b) {
      if (boundaries[b] <= cut) ++complete;
    }
    if (cut < boundaries.front()) {
      EXPECT_TRUE(scan->embryonic) << "cut=" << cut;
      continue;
    }
    ASSERT_EQ(scan->records.size(), complete) << "cut=" << cut;
    for (std::size_t i = 0; i < complete; ++i) {
      ExpectRecordsEqual(records[i], scan->records[i]);
    }
    // A cut on a line boundary is clean; inside a line it is a torn tail,
    // and valid_bytes points at the clean prefix either way.
    const bool on_boundary =
        cut == boundaries.front() + 0 ||
        std::find(boundaries.begin(), boundaries.end(), cut) !=
            boundaries.end();
    EXPECT_EQ(scan->torn_tail, !on_boundary) << "cut=" << cut;
    EXPECT_EQ(scan->valid_bytes, boundaries[complete]) << "cut=" << cut;
  }
}

TEST(WalGolden, RandomByteFlipsNeverYieldDifferentRecords) {
  const std::vector<WalRecord> records = GoldenRecords();
  const std::string log = EncodeLog("golden", records);
  Rng rng(20260728);
  int clean_errors = 0;
  int prefix_recoveries = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = log;
    const std::size_t pos = rng.UniformIndex(mutated.size());
    char flipped = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1 << rng.UniformIndex(8)));
    mutated[pos] = flipped;
    std::istringstream in(mutated);
    Result<WalScan> scan = ScanWal(in);
    if (!scan.ok()) {
      ++clean_errors;
      continue;
    }
    // The scan survived: whatever it returned must be a prefix of the true
    // history (a flip can sever the tail — e.g. hit the final newline —
    // but it must never smuggle in a different record).
    ++prefix_recoveries;
    ASSERT_LE(scan->records.size(), records.size());
    for (std::size_t i = 0; i < scan->records.size(); ++i) {
      ExpectRecordsEqual(records[i], scan->records[i]);
    }
  }
  // The checksum makes clean rejection the overwhelmingly common outcome.
  EXPECT_GT(clean_errors, 300) << "prefix recoveries: " << prefix_recoveries;
}

TEST(WalGolden, DuplicatedTailIsRejected) {
  const std::vector<WalRecord> records = GoldenRecords();
  std::string log = EncodeLog("golden", records);
  const std::size_t last_line_start = log.rfind("r ");
  log += log.substr(last_line_start);  // duplicate the final record
  std::istringstream in(log);
  Result<WalScan> scan = ScanWal(in);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kParseError);
}

TEST(WalGolden, DeclaredCountsNeverDriveAllocation) {
  // A record body claiming 10^18 series with a correct checksum must fail
  // at token exhaustion, not allocate.
  std::string body = "r 1 load \"x\" 1000000000000000000";
  std::string line =
      body + StrFormat(" c=%016llx",
                       static_cast<unsigned long long>(Fnv1a64(body)));
  Result<WalRecord> r = DecodeWalRecord(line);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);

  body = "r 1 extend 1 0 999999999999999999";
  line = body + StrFormat(" c=%016llx",
                          static_cast<unsigned long long>(Fnv1a64(body)));
  r = DecodeWalRecord(line);
  ASSERT_FALSE(r.ok());

  body = "r 1 append \"s\" \"l\" 888888888888 1.0";
  line = body + StrFormat(" c=%016llx",
                          static_cast<unsigned long long>(Fnv1a64(body)));
  r = DecodeWalRecord(line);
  ASSERT_FALSE(r.ok());
}

TEST(WalGolden, RetiredRecordTypesAreRefusedByName) {
  // Tier moves are not journaled: a log holding an evict or rebuild line
  // is refused with an error naming the type, never replayed.
  for (const std::string type : {"evict", "rebuild"}) {
    const std::string body = "r 3 " + type;
    const std::string line =
        body + StrFormat(" c=%016llx",
                         static_cast<unsigned long long>(Fnv1a64(body)));
    Result<WalRecord> r = DecodeWalRecord(line);
    ASSERT_FALSE(r.ok()) << type;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    EXPECT_NE(r.status().message().find("'" + type + "'"), std::string::npos)
        << r.status();

    std::istringstream in(EncodeLog("golden", {GoldenRecords()[0]}) + line +
                          "\n");
    Result<WalScan> scan = ScanWal(in);
    ASSERT_FALSE(scan.ok()) << type;
    EXPECT_EQ(scan.status().code(), StatusCode::kParseError);
    EXPECT_NE(scan.status().message().find("'" + type + "'"),
              std::string::npos)
        << scan.status();
  }
}

TEST(WalGolden, WriterAppendsScanBackIdentically) {
  const std::string dir = ::testing::TempDir() + "/onex_wal_writer_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/wal";

  std::vector<WalRecord> records = GoldenRecords();
  {
    Result<WalWriter> writer = WalWriter::Create(path, "golden", false);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (const WalRecord& r : records) {
      ASSERT_TRUE(writer->Append(r).ok());
    }
    // Creating over an existing wal must fail, not clobber history.
    EXPECT_FALSE(WalWriter::Create(path, "golden", false).ok());
  }
  Result<WalScan> scan = ScanWalFile(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(scan->records[i].seq, i + 1);
    ExpectRecordsEqual(records[i], scan->records[i]);
  }
  std::filesystem::remove_all(dir);
}

/// Checkpoint files: exact round trip and flip resistance.
class WalCheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto raw = std::make_shared<const Dataset>(
        onex::testing::SmallDataset(/*num=*/4, /*len=*/18, /*seed=*/7));
    PreparedDataset ds;
    ds.name = "ckpt";
    ds.raw = raw;
    ds.norm_kind = NormalizationKind::kMinMaxDataset;
    Result<Dataset> normalized =
        Normalize(*raw, ds.norm_kind, &ds.norm_params);
    ASSERT_TRUE(normalized.ok());
    ds.normalized =
        std::make_shared<const Dataset>(*std::move(normalized));
    BaseBuildOptions opt;
    opt.st = 0.25;
    opt.min_length = 4;
    opt.max_length = 9;
    Result<OnexBase> base = OnexBase::Build(ds.normalized, opt);
    ASSERT_TRUE(base.ok());
    ds.base = std::make_shared<const OnexBase>(*std::move(base));
    ds.build_options = opt;
    snapshot_ = std::move(ds);
    path_ = ::testing::TempDir() + "/onex_wal_ckpt_test";
  }

  void TearDown() override { std::remove(path_.c_str()); }

  PreparedDataset snapshot_;
  std::string path_;
};

TEST_F(WalCheckpointFileTest, RoundTripIsExact) {
  ASSERT_TRUE(WriteCheckpointFile(snapshot_, path_, false).ok());
  Result<PreparedDataset> loaded = ReadCheckpointFile(path_, "ckpt");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // Raw values round-trip bit-exactly (stored verbatim, not denormalized).
  ASSERT_EQ(loaded->raw->size(), snapshot_.raw->size());
  for (std::size_t s = 0; s < snapshot_.raw->size(); ++s) {
    EXPECT_EQ((*loaded->raw)[s].values(), (*snapshot_.raw)[s].values());
    EXPECT_EQ((*loaded->raw)[s].name(), (*snapshot_.raw)[s].name());
  }
  for (std::size_t s = 0; s < snapshot_.normalized->size(); ++s) {
    EXPECT_EQ((*loaded->normalized)[s].values(),
              (*snapshot_.normalized)[s].values());
  }
  // Same membership, class for class, group for group.
  const auto& a = snapshot_.base->length_classes();
  const auto& b = loaded->base->length_classes();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    ASSERT_EQ(a[c].length, b[c].length);
    ASSERT_EQ(a[c].groups.size(), b[c].groups.size());
    for (std::size_t g = 0; g < a[c].groups.size(); ++g) {
      const auto ma = a[c].groups[g].members();
      const auto mb = b[c].groups[g].members();
      ASSERT_EQ(ma.size(), mb.size());
      for (std::size_t m = 0; m < ma.size(); ++m) {
        EXPECT_EQ(ma[m].series, mb[m].series);
        EXPECT_EQ(ma[m].start, mb[m].start);
      }
    }
  }
}

/// LOADBASE: the slot is born at its checkpoint, so its marker covers no
/// record (ckpt-0) and takes seq 1. The next write is seq 2, and a recovery
/// from the marker replays to the same state.
TEST_F(WalCheckpointFileTest, LoadBaseBirthMarkerReplays) {
  ASSERT_TRUE(WriteCheckpointFile(snapshot_, path_, false).ok());
  const std::string dir = ::testing::TempDir() + "/onex_wal_loadbase_birth";
  std::filesystem::remove_all(dir);
  DurabilityOptions options;
  options.dir = dir;
  options.fsync = false;
  std::vector<std::vector<double>> before;
  {
    Engine engine;
    ASSERT_TRUE(engine.EnableDurability(options).ok());
    ASSERT_TRUE(engine.LoadPrepared("B", path_).ok());
    Result<WalScan> born = ScanWalFile(dir + "/B/wal");
    ASSERT_TRUE(born.ok()) << born.status();
    ASSERT_EQ(born->records.size(), 1u);
    EXPECT_EQ(born->records[0].type, WalRecordType::kCheckpoint);
    EXPECT_EQ(born->records[0].seq, 1u);
    EXPECT_EQ(born->records[0].checkpoint_seq, 0u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/B/ckpt-0"));

    ASSERT_TRUE(engine.ExtendSeries("B", 1, {0.3, 0.6, 0.9}).ok());
    Result<DatasetSlotInfo> row = engine.registry().Describe("B");
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->wal_seq, 2u);
    EXPECT_EQ(row->wal_dirty, 1u);
    EXPECT_EQ(row->last_checkpoint_seq, 0u);
    for (const TimeSeries& ts : (*engine.Get("B"))->raw->series()) {
      before.push_back(ts.values());
    }
  }
  Engine recovered;
  ASSERT_TRUE(recovered.EnableDurability(options).ok());
  Result<DatasetSlotInfo> row = recovered.registry().Describe("B");
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ(row->wal_seq, 2u);
  EXPECT_EQ(row->wal_dirty, 1u);
  EXPECT_EQ(row->last_checkpoint_seq, 0u);
  std::vector<std::vector<double>> after;
  for (const TimeSeries& ts : (*recovered.Get("B"))->raw->series()) {
    after.push_back(ts.values());
  }
  EXPECT_EQ(after, before);
  std::filesystem::remove_all(dir);
}

TEST_F(WalCheckpointFileTest, FlippedBytesAreRejectedOrExact) {
  ASSERT_TRUE(WriteCheckpointFile(snapshot_, path_, false).ok());
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  Rng rng(99);
  int rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = bytes;
    const std::size_t pos = rng.UniformIndex(mutated.size());
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1 << rng.UniformIndex(8)));
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    Result<PreparedDataset> loaded = ReadCheckpointFile(path_, "ckpt");
    // The whole payload sits under one FNV checksum: any flip is either
    // rejected cleanly or — impossible in practice — yields the identical
    // state. Never UB, never a silently different base.
    if (!loaded.ok()) {
      ++rejected;
    } else {
      for (std::size_t s = 0; s < snapshot_.raw->size(); ++s) {
        ASSERT_EQ((*loaded->raw)[s].values(), (*snapshot_.raw)[s].values());
      }
    }
  }
  EXPECT_GT(rejected, 398);
}

}  // namespace
}  // namespace onex
