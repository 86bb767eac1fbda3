/// E13 — tiered-storage cold start (DESIGN.md §17): time-to-first-query
/// when a fleet of prepared datasets comes back after a restart.
///
/// Three serving paths, measured at 16/64/256 datasets:
///
///   resident          the base is hot in RAM — the floor every other row
///                     is compared against.
///   cold (mmap)       durable restart: recovery mmaps each clean arena
///                     checkpoint instead of materializing it, and the
///                     first query pages the base in. Reported as both the
///                     per-fleet recovery time and the first-query latency
///                     on a mapped slot.
///   rebuild           the cost the mapped tier avoids, on a memory-only
///                     engine: every checkpoint file is read back into
///                     memory (LoadPrepared), then the target is
///                     re-prepared explicitly (same build options and
///                     normalization) and queried once.
///
/// recover_materialize_ms times LoadPrepared of every file: one read of the
/// file into a heap buffer and a borrow of its columns (the stores pin the
/// buffer), not a column copy.
///
/// The headline claim scripts/bench.sh records into BENCH_tier.json: first
/// query served off the arena is >= 10x faster than re-preparing the base
/// and querying it, because paging in a finished base costs page faults
/// while rebuilding one costs the whole grouping pipeline. The bench also
/// proves the answers identical (bitwise DTW) across all three paths —
/// speed that changed the answer would be a bug, not a result.
///
/// With --json <path>, machine-readable results land in <path>. --smoke
/// shrinks the fleet for CI gating (scripts/check.sh): checkpoint ->
/// restart -> first MATCH served from the arena, answer identical, else
/// exit nonzero.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "onex/common/string_utils.h"
#include "onex/engine/engine.h"
#include "onex/engine/wal.h"
#include "onex/json/json.h"
#include "tests/test_util.h"

namespace {

namespace fs = std::filesystem;

struct ScaleResult {
  std::size_t datasets = 0;
  double build_corpus_ms = 0.0;
  double recover_mapped_ms = 0.0;       ///< Durable restart, mapped.
  double recover_materialize_ms = 0.0;  ///< LoadPrepared (read + borrow).
  double resident_query_ms = 0.0;
  double mapped_first_query_ms = 0.0;
  double rebuild_first_query_ms = 0.0;
  std::size_t mapped_bytes = 0;
  bool mapped_tier_served = false;  ///< Target slot actually tier=mapped.
  bool answers_identical = false;
  double speedup() const {
    return mapped_first_query_ms > 0.0
               ? rebuild_first_query_ms / mapped_first_query_ms
               : 0.0;
  }
};

/// Per-dataset shape. Sized so one dataset's preparation (the grouping
/// pipeline a rebuild repeats) is real work — the serving-fleet
/// regime the tier exists for — while a 256-dataset corpus still builds in
/// tens of seconds.
constexpr std::size_t kSeriesPerDataset = 8;
constexpr std::size_t kSeriesLength = 384;

onex::BaseBuildOptions BuildOptions() {
  onex::BaseBuildOptions opt;
  opt.st = 0.25;
  opt.min_length = 4;
  opt.max_length = 32;
  return opt;
}

std::string DatasetName(std::size_t i) { return onex::StrFormat("d%zu", i); }

onex::QuerySpec TargetQuery() {
  onex::QuerySpec spec;
  spec.series = 0;
  spec.start = 4;
  spec.length = 24;
  return spec;
}

/// %.17g fingerprint of one answer; identical strings == identical bits.
std::string AnswerKey(const onex::MatchResult& m) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%zu.%zu.%zu:%.17g:%.17g",
                m.match.ref.series, m.match.ref.start, m.match.ref.length,
                m.match.dtw, m.match.normalized_dtw);
  return buf;
}

ScaleResult RunScale(std::size_t n, const std::string& root) {
  ScaleResult result;
  result.datasets = n;
  const std::string dir = root + "/fleet_" + std::to_string(n);
  fs::remove_all(dir);
  fs::create_directories(dir);
  onex::DurabilityOptions durability;
  durability.dir = dir;
  durability.checkpoint_every = 0;
  durability.fsync = false;

  // The corpus: n prepared, checkpointed datasets with clean WALs — the
  // state a durable server carries into any restart.
  std::vector<std::string> checkpoint_files;
  result.build_corpus_ms = onex::bench::TimeOnceMs([&] {
    onex::Engine builder;
    if (!builder.EnableDurability(durability).ok()) return;
    for (std::size_t i = 0; i < n; ++i) {
      if (!builder
               .LoadDataset(DatasetName(i),
                            onex::testing::SmallDataset(
                                kSeriesPerDataset, kSeriesLength, 1000 + i))
               .ok() ||
          !builder.Prepare(DatasetName(i), BuildOptions()).ok()) {
        return;
      }
      onex::Result<onex::CheckpointInfo> ckpt =
          builder.registry().Checkpoint(DatasetName(i));
      if (!ckpt.ok()) return;
      checkpoint_files.push_back(ckpt->path);
    }
  });
  const std::string target = DatasetName(n - 1);
  const onex::QuerySpec spec = TargetQuery();

  // ---- cold (mmap): restart + first query off the arena -----------------
  onex::Engine cold;
  result.recover_mapped_ms = onex::bench::TimeOnceMs(
      [&] { (void)cold.EnableDurability(durability); });
  {
    onex::Result<std::string> tier = cold.registry().Tier(target);
    result.mapped_tier_served = tier.ok() && *tier == "mapped";
  }
  result.mapped_bytes = cold.registry().mapped_bytes();
  std::string mapped_answer;
  result.mapped_first_query_ms = onex::bench::TimeOnceMs([&] {
    onex::Result<onex::MatchResult> m = cold.SimilaritySearch(target, spec);
    if (m.ok()) mapped_answer = AnswerKey(*m);
  });

  // ---- materialized load + resident floor + rebuild ---------------------
  onex::Engine legacy;
  result.recover_materialize_ms = onex::bench::TimeOnceMs([&] {
    for (std::size_t i = 0; i < checkpoint_files.size(); ++i) {
      (void)legacy.LoadPrepared(DatasetName(i), checkpoint_files[i]);
    }
  });
  std::string resident_answer;
  {
    onex::Result<onex::MatchResult> warmup =
        legacy.SimilaritySearch(target, spec);
    if (warmup.ok()) resident_answer = AnswerKey(*warmup);
  }
  result.resident_query_ms = onex::bench::MedianMs(
      [&] { (void)legacy.SimilaritySearch(target, spec); });

  // Re-prepare the target from its own build options and normalization,
  // then serve the first query: what a base without a checkpoint to map
  // costs to bring back.
  std::string rebuilt_answer;
  onex::Result<std::shared_ptr<const onex::PreparedDataset>> loaded =
      legacy.Get(target);
  if (loaded.ok()) {
    const onex::BaseBuildOptions options = (*loaded)->build_options;
    const onex::NormalizationKind norm = (*loaded)->norm_kind;
    result.rebuild_first_query_ms = onex::bench::TimeOnceMs([&] {
      if (!legacy.Prepare(target, options, norm).ok()) return;
      onex::Result<onex::MatchResult> m =
          legacy.SimilaritySearch(target, spec);
      if (m.ok()) rebuilt_answer = AnswerKey(*m);
    });
  }

  result.answers_identical = !mapped_answer.empty() &&
                             mapped_answer == resident_answer &&
                             mapped_answer == rebuilt_answer;
  fs::remove_all(dir);
  return result;
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
      "E13 tiered-storage cold start", "thousands of datasets on one node",
      "time-to-first-query after restart: mmap'd arena page-in vs "
      "re-preparation vs resident, at 16/64/256 datasets");
  std::printf("mode: %s\n\n", smoke ? "smoke" : "full");

  const std::vector<std::size_t> scales =
      smoke ? std::vector<std::size_t>{4, 8}
            : std::vector<std::size_t>{16, 64, 256};
  const std::string root = fs::temp_directory_path().string() + "/onex_e13";
  fs::remove_all(root);
  fs::create_directories(root);

  std::vector<ScaleResult> results;
  for (const std::size_t n : scales) {
    std::printf("fleet of %zu datasets...\n", n);
    results.push_back(RunScale(n, root));
  }
  fs::remove_all(root);

  onex::bench::Table table({"datasets", "recover_mmap_ms", "recover_mat_ms",
                            "resident_ms", "mapped_first_ms",
                            "rebuild_first_ms", "speedup", "identical"});
  for (const ScaleResult& r : results) {
    table.AddRow({FmtZu(r.datasets), Fmt("%.1f", r.recover_mapped_ms),
                  Fmt("%.1f", r.recover_materialize_ms),
                  Fmt("%.3f", r.resident_query_ms),
                  Fmt("%.3f", r.mapped_first_query_ms),
                  Fmt("%.1f", r.rebuild_first_query_ms),
                  Fmt("%.1fx", r.speedup()),
                  r.answers_identical ? "yes" : "NO"});
  }
  table.Print();
  std::printf(
      "\nReading the table: recover_mmap is the whole-fleet durable restart "
      "(mmap + checksum walk, no materialization); recover_mat reads every "
      "checkpoint file into memory (LoadPrepared: read + borrow, no column "
      "copy). mapped_first is the "
      "first MATCH on a mapped slot (page-in + query), rebuild_first the "
      "same MATCH after an explicit Prepare (full re-preparation + query). "
      "The identical column is the point of the differential battery: all "
      "three paths must serve the same bits.\n");

  if (!json_path.empty()) {
    onex::json::Value doc = onex::json::Value::MakeObject();
    doc.Set("bench", "e13_coldstart");
    doc.Set("host", onex::bench::HostBlock());
    doc.Set("smoke", smoke);
    onex::json::Value rows = onex::json::Value::MakeArray();
    for (const ScaleResult& r : results) {
      onex::json::Value row = onex::json::Value::MakeObject();
      row.Set("datasets", r.datasets);
      row.Set("build_corpus_ms", r.build_corpus_ms);
      row.Set("recover_mapped_ms", r.recover_mapped_ms);
      row.Set("recover_materialize_ms", r.recover_materialize_ms);
      row.Set("resident_query_ms", r.resident_query_ms);
      row.Set("mapped_first_query_ms", r.mapped_first_query_ms);
      row.Set("rebuild_first_query_ms", r.rebuild_first_query_ms);
      row.Set("mapped_bytes", r.mapped_bytes);
      row.Set("mapped_tier_served", r.mapped_tier_served);
      row.Set("answers_identical", r.answers_identical);
      row.Set("speedup_mapped_vs_rebuild", r.speedup());
      row.Set("target_10x_met", r.speedup() >= 10.0);
      rows.Append(std::move(row));
    }
    doc.Set("scales", std::move(rows));
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << doc.Dump() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Smoke gates CI on correctness, not timing (CI boxes are too noisy to
  // assert a ratio): every fleet must restart into the mapped tier and
  // every path must serve identical answers.
  if (smoke) {
    for (const ScaleResult& r : results) {
      if (!r.mapped_tier_served) {
        std::fprintf(stderr,
                     "FAIL: %zu-dataset restart did not serve from arena\n",
                     r.datasets);
        return 1;
      }
      if (!r.answers_identical) {
        std::fprintf(stderr,
                     "FAIL: %zu-dataset fleet answers diverged across "
                     "tiers\n",
                     r.datasets);
        return 1;
      }
    }
    std::printf("smoke: OK\n");
  }
  return 0;
}
