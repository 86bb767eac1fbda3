/// Golden-file properties of the ONEXARENA checkpoint format
/// (core/arena_layout.h): byte-stable encoding (same inputs -> same bytes,
/// across independent builds and across an encode/parse/realize/encode round
/// trip), exact value round trips (the realized base serves the very same
/// bits, in place out of the buffer its stores pin), and corruption
/// robustness — every truncation prefix and 400 rounds of random byte flips
/// must surface as clean structured errors or realize into a base that
/// still satisfies its invariants, never UB. ONEXARENA is the one on-disk
/// form of a prepared dataset (checkpoints, SAVEBASE, LOADBASE); runs under
/// ASan in CI.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/core/arena_layout.h"
#include "onex/core/group_store.h"
#include "onex/core/onex_base.h"
#include "onex/ts/dataset.h"
#include "onex/ts/normalization.h"
#include "test_util.h"

namespace onex {
namespace {

BaseBuildOptions GoldenOptions() {
  BaseBuildOptions opt;
  opt.st = 0.25;
  opt.min_length = 4;
  opt.max_length = 10;
  return opt;
}

/// The full prepared picture an arena captures: raw values, frozen
/// normalization, and the base built on the normalized copy.
struct GoldenPrepared {
  Dataset raw;
  NormalizationParams params;
  std::shared_ptr<const Dataset> normalized;
  std::shared_ptr<const OnexBase> base;
};

GoldenPrepared Prepare(Dataset raw) {
  GoldenPrepared g;
  g.raw = std::move(raw);
  Result<Dataset> norm =
      Normalize(g.raw, NormalizationKind::kMinMaxDataset, &g.params);
  EXPECT_TRUE(norm.ok()) << norm.status().ToString();
  g.normalized = std::make_shared<const Dataset>(*std::move(norm));
  Result<OnexBase> base = OnexBase::Build(g.normalized, GoldenOptions());
  EXPECT_TRUE(base.ok()) << base.status().ToString();
  g.base = std::make_shared<const OnexBase>(*std::move(base));
  return g;
}

GoldenPrepared BuildGolden() {
  return Prepare(testing::SmallDataset(/*num=*/5, /*len=*/20, /*seed=*/99));
}

/// Names and labels the meta section must quote: '"', a tab and '\'.
GoldenPrepared BuildQuotedNames() {
  Dataset raw("data \"set\" with\ttabs");
  raw.Add(TimeSeries("series \"x\"", {0.1, 0.2, 0.3, 0.4, 0.5, 0.7},
                     "l\\bel"));
  raw.Add(TimeSeries("tab\there", {0.5, 0.4, 0.3, 0.2, 0.1, 0.0},
                     "\"q\"\t\\"));
  raw.Add(TimeSeries("plain", {0.3, 0.9, 0.1, 0.6, 0.2, 0.8}));
  return Prepare(std::move(raw));
}

std::string Encode(const GoldenPrepared& g) {
  Result<std::string> bytes = EncodeArena(
      g.raw, NormalizationKind::kMinMaxDataset, g.params, *g.base);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return *std::move(bytes);
}

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

/// Parse + realize in one step. The stores serve out of `buffer` and pin
/// it, as they pin a mapping or a checkpoint file read into memory.
Result<RealizedArena> Realize(std::shared_ptr<const std::string> buffer) {
  Result<ArenaView> view = ParseArena(AsBytes(*buffer));
  if (!view.ok()) return view.status();
  return RealizeArena(*view, std::move(buffer));
}

/// Structural invariants any successfully realized base must satisfy no
/// matter what bytes produced it (the fuzz tests' acceptance criterion).
void CheckInvariants(const RealizedArena& r) {
  ASSERT_NE(r.raw, nullptr);
  ASSERT_NE(r.normalized, nullptr);
  ASSERT_NE(r.base, nullptr);
  ASSERT_EQ(r.raw->size(), r.normalized->size());
  for (std::size_t s = 0; s < r.raw->size(); ++s) {
    ASSERT_EQ((*r.raw)[s].length(), (*r.normalized)[s].length());
  }
  std::size_t groups = 0;
  std::size_t members = 0;
  std::size_t prev_length = 0;
  for (const LengthClass& cls : r.base->length_classes()) {
    ASSERT_GT(cls.length, prev_length) << "length classes out of order";
    prev_length = cls.length;
    ASSERT_NE(cls.store, nullptr);
    ASSERT_EQ(cls.store->length(), cls.length);
    ASSERT_EQ(cls.groups.size(), cls.store->num_groups());
    for (std::size_t g = 0; g < cls.store->num_groups(); ++g) {
      ASSERT_EQ(cls.store->centroid(g).size(), cls.length);
      ASSERT_FALSE(cls.store->members(g).empty());
      for (const SubseqRef& ref : cls.store->members(g)) {
        ASSERT_EQ(ref.length, cls.length);
        ASSERT_TRUE(
            r.base->dataset().CheckRange(ref.series, ref.start, ref.length)
                .ok());
      }
    }
    groups += cls.store->num_groups();
    members += cls.store->total_members();
  }
  ASSERT_EQ(r.base->stats().num_groups, groups);
  ASSERT_EQ(r.base->stats().num_subsequences, members);
  ASSERT_GT(r.base->MemoryUsage(), 0u);
}

/// Bitwise comparison of a realized base against the golden one: centroids,
/// envelopes and memberships down to the last ulp.
void ExpectBitIdentical(const OnexBase& got, const OnexBase& want) {
  ASSERT_EQ(got.length_classes().size(), want.length_classes().size());
  for (std::size_t c = 0; c < want.length_classes().size(); ++c) {
    const LengthClass& gc = got.length_classes()[c];
    const LengthClass& wc = want.length_classes()[c];
    ASSERT_EQ(gc.length, wc.length);
    ASSERT_EQ(gc.store->num_groups(), wc.store->num_groups());
    for (std::size_t g = 0; g < wc.store->num_groups(); ++g) {
      const auto gcen = gc.store->centroid(g);
      const auto wcen = wc.store->centroid(g);
      ASSERT_EQ(gcen.size(), wcen.size());
      for (std::size_t i = 0; i < wcen.size(); ++i) {
        EXPECT_EQ(gcen[i], wcen[i]) << "centroid mismatch at class " << c
                                    << " group " << g << " index " << i;
      }
      const EnvelopeView ge = gc.store->envelope(g);
      const EnvelopeView we = wc.store->envelope(g);
      EXPECT_EQ(std::vector<double>(ge.lower.begin(), ge.lower.end()),
                std::vector<double>(we.lower.begin(), we.lower.end()));
      EXPECT_EQ(std::vector<double>(ge.upper.begin(), ge.upper.end()),
                std::vector<double>(we.upper.begin(), we.upper.end()));
      const auto gm = gc.store->members(g);
      const auto wm = wc.store->members(g);
      ASSERT_EQ(gm.size(), wm.size());
      for (std::size_t i = 0; i < wm.size(); ++i) {
        EXPECT_EQ(gm[i].series, wm[i].series);
        EXPECT_EQ(gm[i].start, wm[i].start);
        EXPECT_EQ(gm[i].length, wm[i].length);
      }
    }
  }
}

TEST(ArenaGoldenTest, IndependentBuildsEncodeToIdenticalBytes) {
  const std::string first = Encode(BuildGolden());
  const std::string second = Encode(BuildGolden());
  ASSERT_GT(first.size(), 64u) << "header plus sections";
  EXPECT_EQ(first, second);
  EXPECT_TRUE(LooksLikeArena(first));
}

TEST(ArenaGoldenTest, EncodeParseRealizeReencodeIsByteStable) {
  for (const GoldenPrepared& golden : {BuildGolden(), BuildQuotedNames()}) {
    SCOPED_TRACE(golden.raw.name());
    const std::string bytes = Encode(golden);
    Result<RealizedArena> realized =
        Realize(std::make_shared<const std::string>(bytes));
    ASSERT_TRUE(realized.ok()) << realized.status().ToString();
    CheckInvariants(*realized);
    ExpectBitIdentical(*realized->base, *golden.base);
    // Raw and normalized values round-trip exactly (binary doubles, no
    // text), and so do names and labels, whatever they hold.
    EXPECT_EQ(realized->raw->name(), golden.raw.name());
    for (std::size_t s = 0; s < golden.raw.size(); ++s) {
      EXPECT_EQ((*realized->raw)[s].values(), golden.raw[s].values());
      EXPECT_EQ((*realized->raw)[s].name(), golden.raw[s].name());
      EXPECT_EQ((*realized->raw)[s].label(), golden.raw[s].label());
      EXPECT_EQ((*realized->normalized)[s].values(),
                (*golden.normalized)[s].values());
    }
    // And the realized state encodes back to the very same bytes.
    Result<std::string> resaved =
        EncodeArena(*realized->raw, NormalizationKind::kMinMaxDataset,
                    golden.params, *realized->base);
    ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
    EXPECT_EQ(bytes, *resaved);
  }
}

TEST(ArenaGoldenTest, BorrowedRealizeServesTheBufferAndPinsIt) {
  const GoldenPrepared golden = BuildGolden();
  auto buffer = std::make_shared<std::string>(Encode(golden));
  Result<RealizedArena> realized = Realize(buffer);
  ASSERT_TRUE(realized.ok()) << realized.status().ToString();
  for (const LengthClass& cls : realized->base->length_classes()) {
    // The spans point into the buffer, not at copies.
    const double* centroid_data = cls.store->centroid(0).data();
    const char* begin = buffer->data();
    const char* end = begin + buffer->size();
    EXPECT_GE(reinterpret_cast<const char*>(centroid_data), begin);
    EXPECT_LT(reinterpret_cast<const char*>(centroid_data), end);
  }
  ExpectBitIdentical(*realized->base, *golden.base);
  // Every store holds the pin: dropping our reference must not free the
  // bytes the stores serve (ASan proves the negative).
  std::shared_ptr<const OnexBase> base = realized->base;
  realized = Status::Internal("released");
  buffer.reset();
  double sum = 0.0;
  for (const LengthClass& cls : base->length_classes()) {
    for (const double v : cls.store->centroid(0)) sum += v;
  }
  EXPECT_TRUE(sum == sum);  // touched every borrowed byte; no report = pass
}

TEST(ArenaGoldenTest, EveryTruncationPrefixIsRejected) {
  const std::string golden = Encode(BuildGolden());
  ASSERT_GT(golden.size(), 64u);
  // Every strict prefix — the binary framing (header file_size, section
  // table bounds) must catch all of them before any section is trusted.
  for (std::size_t cut = 0; cut < golden.size(); ++cut) {
    const std::string prefix = golden.substr(0, cut);
    const Result<ArenaView> view = ParseArena(AsBytes(prefix));
    ASSERT_FALSE(view.ok()) << "truncation at byte " << cut << " accepted";
    ASSERT_FALSE(view.status().message().empty());
  }
}

TEST(ArenaGoldenTest, RandomByteFlipsAreRejectedOrInvariantChecked) {
  const std::string golden = Encode(BuildGolden());
  Rng rng(0xDEADBEEF);
  int clean_errors = 0;
  int still_valid = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::string corrupt = golden;
    const std::size_t flips = 1 + rng.UniformIndex(3);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t off = rng.UniformIndex(corrupt.size());
      const char next = static_cast<char>(rng.UniformInt(0, 255));
      if (corrupt[off] == next) {
        corrupt[off] = static_cast<char>(next ^ 0x5a);
      } else {
        corrupt[off] = next;
      }
    }
    Result<RealizedArena> realized =
        Realize(std::make_shared<const std::string>(corrupt));
    if (realized.ok()) {
      CheckInvariants(*realized);
      ++still_valid;
    } else {
      EXPECT_FALSE(realized.status().message().empty());
      ++clean_errors;
    }
  }
  // Every byte after the header is covered by the whole-file FNV and the
  // header is field-validated, so essentially every flip must be caught.
  EXPECT_EQ(still_valid, 0) << still_valid << " corrupted arenas accepted";
  EXPECT_EQ(clean_errors, 400);
}

TEST(ArenaGoldenTest, VersionOneArenaIsRefusedByName) {
  // Version 1 stored 24-byte members; its rows cannot be served as the
  // eight-byte MemberRefs a store reads, so the parser names it.
  std::string bytes = Encode(BuildGolden());
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 8, &v1, sizeof(v1));
  const Result<ArenaView> view = ParseArena(AsBytes(bytes));
  ASSERT_FALSE(view.ok());
  EXPECT_NE(view.status().message().find("unsupported arena version 1"),
            std::string::npos)
      << view.status();
}

TEST(ArenaGoldenTest, ForeignAndGarbageBytesAreRejected) {
  EXPECT_FALSE(LooksLikeArena(std::string_view("ONEXWAL 1 \"a\"\n")));
  EXPECT_FALSE(LooksLikeArena(std::string_view("")));
  {
    const std::string junk = "GARBAGE GARBAGE GARBAGE GARBAGE GARBAGE "
                             "GARBAGE GARBAGE GARBAGE";
    EXPECT_FALSE(ParseArena(AsBytes(junk)).ok());
  }
  {
    // Correct magic, hostile everything else: must be a structured error.
    std::string fake(4096, '\0');
    const char magic[8] = {'O', 'N', 'E', 'X', 'A', 'R', 'N', 'A'};
    fake.replace(0, 8, magic, 8);
    EXPECT_TRUE(LooksLikeArena(fake));
    EXPECT_FALSE(ParseArena(AsBytes(fake)).ok());
  }
}

}  // namespace
}  // namespace onex
