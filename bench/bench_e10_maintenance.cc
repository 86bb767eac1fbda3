/// E10 — extension experiments beyond the demo paper: operational
/// maintenance of the ONEX base. (a) Parallel construction: length classes
/// are independent, so the offline step scales with cores. (b) Incremental
/// append vs full rebuild: a growing collection (the paper's "data sets
/// updated with new yearly data") should not pay the full preprocessing
/// price per arrival. (c) Base persistence: reload vs rebuild; the reload
/// row parses the arena and borrows its columns in place (the stores pin
/// the buffer), so it times a checksum walk and series copies, not a
/// column copy.
/// (d) Streaming maintenance (DESIGN.md §12): point-append throughput
/// through Engine::ExtendSeries, the drift scan, drift-regroup latency and
/// query latency while a regroup runs in the background. (e) Extend cost
/// against history: ms and groups recomputed per tick after 600 and 2,400
/// ticks of a live feed — a write should pay for the groups it changes,
/// not for the dataset it has grown.
///
/// With --json <path>, machine-readable results land in <path> (the repo's
/// BENCH_maintenance.json trajectory file; see scripts/bench.sh).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "onex/core/arena_layout.h"
#include "onex/core/incremental.h"
#include "onex/core/onex_base.h"
#include "onex/core/query_processor.h"
#include "onex/common/random.h"
#include "onex/engine/engine.h"
#include "onex/gen/generators.h"
#include "onex/json/json.h"
#include "onex/ts/normalization.h"

namespace {

std::shared_ptr<const onex::Dataset> MakeData(std::size_t n,
                                              std::uint64_t seed) {
  onex::gen::SineFamilyOptions opt;
  opt.num_series = n;
  opt.length = 96;
  opt.seed = seed;
  auto norm = onex::Normalize(onex::gen::MakeSineFamilies(opt),
                              onex::NormalizationKind::kMinMaxDataset);
  return std::make_shared<const onex::Dataset>(std::move(norm).value());
}

onex::BaseBuildOptions Opt(std::size_t threads) {
  onex::BaseBuildOptions opt;
  opt.st = 0.15;
  opt.min_length = 8;
  opt.max_length = 64;
  opt.length_step = 4;
  opt.threads = threads;
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using onex::bench::Fmt;
  using onex::bench::FmtZu;

  std::string json_path;
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]) == "--json" && a + 1 < argc) {
      json_path = argv[a + 1];
      ++a;
    }
  }

  onex::bench::Banner(
      "E10 maintenance (extension)", "beyond the demo: operating the base",
      "parallel construction, incremental append, persistence and streaming "
      "point-appends keep the offline step from ever being repeated in full");

  auto data = MakeData(40, 3);
  onex::json::Value record = onex::json::Value::MakeObject();
  record.Set("bench", "e10_maintenance");
  record.Set("host", onex::bench::HostBlock());

  std::printf("\n-- parallel construction (N=40, L=96, 15 length classes) --\n");
  {
    onex::bench::Table table({"threads", "build_ms", "speedup", "groups"});
    double serial_ms = 0.0;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      const auto opt = Opt(threads);
      double ms = 0.0;
      std::size_t groups = 0;
      ms = onex::bench::MedianMs(
          [&] {
            auto base = onex::OnexBase::Build(data, opt);
            groups = base->TotalGroups();
          },
          3);
      if (threads == 1) serial_ms = ms;
      table.AddRow({FmtZu(threads), Fmt("%.1f", ms),
                    Fmt("%.2fx", serial_ms / ms), FmtZu(groups)});
    }
    table.Print();
  }

  std::printf("\n-- incremental append vs full rebuild --\n");
  {
    onex::bench::Table table(
        {"arrivals", "rebuild_ms", "append_ms", "speedup", "groups_delta"});
    auto base = onex::OnexBase::Build(data, Opt(1));
    onex::gen::SineFamilyOptions extra_opt;
    extra_opt.num_series = 8;
    extra_opt.length = 96;
    extra_opt.seed = 777;
    auto extra_norm = onex::Normalize(
        onex::gen::MakeSineFamilies(extra_opt),
        onex::NormalizationKind::kMinMaxDataset);

    for (const std::size_t arrivals : {1u, 4u, 8u}) {
      // Incremental: chain appends.
      onex::OnexBase chained = *base;
      const double append_ms = onex::bench::TimeOnceMs([&] {
        for (std::size_t i = 0; i < arrivals; ++i) {
          chained = std::move(
              onex::AppendSeries(chained, (*extra_norm)[i])).value();
        }
      });
      // Full rebuild over the extended collection.
      onex::Dataset extended(data->name());
      for (const onex::TimeSeries& ts : data->series()) extended.Add(ts);
      for (std::size_t i = 0; i < arrivals; ++i) {
        extended.Add((*extra_norm)[i]);
      }
      auto extended_ptr =
          std::make_shared<const onex::Dataset>(std::move(extended));
      std::size_t rebuilt_groups = 0;
      const double rebuild_ms = onex::bench::TimeOnceMs([&] {
        auto rebuilt = onex::OnexBase::Build(extended_ptr, Opt(1));
        rebuilt_groups = rebuilt->TotalGroups();
      });
      const long long delta =
          static_cast<long long>(chained.TotalGroups()) -
          static_cast<long long>(rebuilt_groups);
      table.AddRow({FmtZu(arrivals), Fmt("%.1f", rebuild_ms),
                    Fmt("%.1f", append_ms), Fmt("%.1fx", rebuild_ms / append_ms),
                    Fmt("%+g", static_cast<double>(delta))});
      if (arrivals == 8) {
        record.Set("append8_ms", append_ms);
        record.Set("rebuild8_ms", rebuild_ms);
        record.Set("append_speedup_8", rebuild_ms / append_ms);
      }
    }
    table.Print();
  }

  std::printf("\n-- persistence: reload vs rebuild --\n");
  {
    onex::bench::Table table({"operation", "ms"});
    auto base = onex::OnexBase::Build(data, Opt(1));
    // The arena is what SAVEBASE writes and LOADBASE reads; `data` is
    // already normalized, so it stands in as its own raw copy.
    auto arena = std::make_shared<std::string>();
    const double save_ms = onex::bench::TimeOnceMs([&] {
      *arena = *onex::EncodeArena(*data, onex::NormalizationKind::kNone, {},
                                  *base);
    });
    const auto bytes = std::as_bytes(std::span<const char>(*arena));
    const double load_ms = onex::bench::MedianMs(
        [&] {
          const onex::ArenaView view = *onex::ParseArena(bytes);
          (void)*onex::RealizeArena(view, arena);
        },
        3);
    const double rebuild_ms = onex::bench::MedianMs(
        [&] { (void)*onex::OnexBase::Build(data, Opt(1)); }, 3);
    table.AddRow({"full rebuild", Fmt("%.1f", rebuild_ms)});
    table.AddRow({"EncodeArena", Fmt("%.1f", save_ms)});
    table.AddRow({"ParseArena + RealizeArena", Fmt("%.1f", load_ms)});
    table.Print();
  }

  std::printf("\n-- streaming maintenance: extend, drift, regroup --\n");
  {
    // The live-feed shape, end to end through the engine: EXTEND-sized
    // writes against a prepared multi-length base, with conditional
    // installs, frozen-parameter tail normalization and drift accounting
    // all included in the measured path.
    onex::gen::SineFamilyOptions gopt;
    gopt.num_series = 40;
    gopt.length = 96;
    gopt.seed = 3;
    onex::Engine engine;
    if (onex::Status s =
            engine.LoadDataset("live", onex::gen::MakeSineFamilies(gopt));
        !s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
      return 1;
    }
    onex::BaseBuildOptions opt = Opt(1);
    if (onex::Status s = engine.Prepare("live", opt); !s.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n", s.ToString().c_str());
      return 1;
    }

    constexpr std::size_t kTicks = 50;
    constexpr std::size_t kPointsPerTick = 4;
    onex::Rng rng(11);
    double last_max_drift = 0.0;
    const double extend_total_ms = onex::bench::TimeOnceMs([&] {
      for (std::size_t tick = 0; tick < kTicks; ++tick) {
        std::vector<double> points;
        points.reserve(kPointsPerTick);
        for (std::size_t p = 0; p < kPointsPerTick; ++p) {
          points.push_back(rng.Uniform(-1.0, 1.0));
        }
        auto summary = engine.ExtendSeries("live", tick % gopt.num_series,
                                           std::move(points));
        if (summary.ok()) last_max_drift = summary->max_drift;
      }
    });
    const double extend_ms = extend_total_ms / kTicks;
    const double points_per_sec =
        static_cast<double>(kTicks * kPointsPerTick) /
        (extend_total_ms / 1000.0);

    auto snapshot_r = engine.registry().GetPrepared("live");
    if (!snapshot_r.ok()) {
      std::fprintf(stderr, "snapshot read failed: %s\n",
                   snapshot_r.status().ToString().c_str());
      return 1;
    }
    const auto& snapshot = *snapshot_r;
    double drift_max = 0.0;
    std::vector<std::size_t> lengths;
    double drift_scan_ms = 0.0;
    drift_scan_ms = onex::bench::MedianMs(
        [&] {
          drift_max = 0.0;
          lengths.clear();
          for (const auto& d : onex::ComputeDrift(*snapshot->base)) {
            drift_max = std::max(drift_max, d.fraction());
            lengths.push_back(d.length);
          }
        },
        3);

    // Drift-regroup latency: schedule → rebuild → conditional install.
    const double regroup_ms = onex::bench::TimeOnceMs([&] {
      auto ticket = engine.registry().RegroupAsync("live", lengths);
      (void)ticket.Wait();
    });

    // Query latency while a regroup runs vs idle.
    onex::QuerySpec spec;
    spec.series = 0;
    spec.start = 8;
    spec.length = 24;
    const double query_idle_ms = onex::bench::MedianMs(
        [&] { (void)engine.SimilaritySearch("live", spec); }, 5);
    auto ticket = engine.registry().RegroupAsync("live", lengths);
    double query_during_ms = 0.0;
    std::size_t sampled = 0;
    while (!ticket.done() && sampled < 64) {
      query_during_ms += onex::bench::TimeOnceMs(
          [&] { (void)engine.SimilaritySearch("live", spec); });
      ++sampled;
    }
    (void)ticket.Wait();
    query_during_ms =
        sampled == 0 ? query_idle_ms
                     : query_during_ms / static_cast<double>(sampled);

    onex::bench::Table table({"metric", "value"});
    table.AddRow({"extend_ms_per_tick (4 pts)", Fmt("%.2f", extend_ms)});
    table.AddRow({"extend_points_per_sec", Fmt("%.0f", points_per_sec)});
    table.AddRow({"drift_scan_ms", Fmt("%.2f", drift_scan_ms)});
    table.AddRow({"drift_max_fraction", Fmt("%.4f", drift_max)});
    table.AddRow({"regroup_ms (all classes)", Fmt("%.1f", regroup_ms)});
    table.AddRow({"query_ms idle", Fmt("%.2f", query_idle_ms)});
    table.AddRow({"query_ms during regroup", Fmt("%.2f", query_during_ms)});
    table.Print();

    record.Set("extend_ms_per_tick", extend_ms);
    record.Set("extend_points_per_sec", points_per_sec);
    record.Set("extend_last_max_drift", last_max_drift);
    record.Set("drift_scan_ms", drift_scan_ms);
    record.Set("drift_max_fraction", drift_max);
    record.Set("regroup_ms", regroup_ms);
    record.Set("query_idle_ms", query_idle_ms);
    record.Set("query_during_regroup_ms", query_during_ms);
    record.Set("query_during_regroup_samples", sampled);
  }

  std::printf("\n-- extend cost against history (walk, 8 pts/tick) --\n");
  {
    // The servebench ingest shape, core only: 16 walk series of 64 points
    // prepared at st=0.2 over lengths 4..16, fed 8-point ticks round-robin.
    // Every value maps through the initial points' frozen min-max, as the
    // engine normalizes an EXTEND tail. A row averages the kWindow ticks
    // that end at its mark.
    constexpr std::size_t kSeries = 16;
    constexpr std::size_t kInitial = 64;
    constexpr std::size_t kPoints = 8;
    constexpr std::size_t kWindow = 100;
    const std::vector<std::size_t> marks = {600, 2400};
    const std::size_t ticks = marks.back();
    const std::size_t total = kInitial + ticks * kPoints / kSeries;
    onex::Rng rng(5);
    std::vector<std::vector<double>> walks(kSeries);
    for (std::vector<double>& walk : walks) {
      double v = 0.0;
      for (std::size_t i = 0; i < total; ++i) {
        v += rng.Gaussian(0.0, 1.0);
        walk.push_back(v);
      }
    }
    double lo = walks[0][0];
    double hi = walks[0][0];
    for (const std::vector<double>& walk : walks) {
      const auto [mn, mx] =
          std::minmax_element(walk.begin(), walk.begin() + kInitial);
      lo = std::min(lo, *mn);
      hi = std::max(hi, *mx);
    }
    onex::Dataset initial("feed");
    for (std::size_t s = 0; s < kSeries; ++s) {
      for (double& x : walks[s]) x = (x - lo) / (hi - lo);
      initial.Add(onex::TimeSeries(
          "w" + std::to_string(s),
          std::vector<double>(walks[s].begin(),
                              walks[s].begin() + kInitial)));
    }
    onex::BaseBuildOptions opt;
    opt.st = 0.2;
    opt.min_length = 4;
    opt.max_length = 16;
    onex::OnexBase base = *onex::OnexBase::Build(
        std::make_shared<const onex::Dataset>(std::move(initial)), opt);

    onex::bench::Table table({"ticks", "extend_ms_per_tick",
                              "groups_recomputed_per_tick", "groups",
                              "members"});
    double window_ms = 0.0;
    std::size_t window_recomputed = 0;
    std::vector<double> ms_at;
    for (std::size_t tick = 1; tick <= ticks; ++tick) {
      const std::size_t s = (tick - 1) % kSeries;
      const std::size_t from = kInitial + (tick - 1) / kSeries * kPoints;
      const std::span<const double> points(walks[s].data() + from, kPoints);
      std::size_t recomputed = 0;
      const double ms = onex::bench::TimeOnceMs([&] {
        auto next = onex::ExtendSeries(base, s, points);
        recomputed = next->groups_recomputed;
        base = std::move(next->base);
      });
      const auto mark = std::lower_bound(marks.begin(), marks.end(), tick);
      if (tick + kWindow > *mark) {
        window_ms += ms;
        window_recomputed += recomputed;
      }
      if (tick != *mark) continue;
      const double per_tick_ms = window_ms / kWindow;
      const double per_tick_groups =
          static_cast<double>(window_recomputed) / kWindow;
      ms_at.push_back(per_tick_ms);
      table.AddRow({FmtZu(tick), Fmt("%.2f", per_tick_ms),
                    Fmt("%.0f", per_tick_groups), FmtZu(base.TotalGroups()),
                    FmtZu(base.TotalMembers())});
      const std::string key = "history_" + std::to_string(tick);
      record.Set(key + "_extend_ms_per_tick", per_tick_ms);
      record.Set(key + "_groups_recomputed_per_tick", per_tick_groups);
      record.Set(key + "_groups", base.TotalGroups());
      window_ms = 0.0;
      window_recomputed = 0;
    }
    table.Print();
    const double ratio = ms_at.back() / ms_at.front();
    std::printf("per-tick cost at %zu ticks / at %zu ticks: %.2fx\n",
                marks.back(), marks.front(), ratio);
    record.Set("history_cost_ratio", ratio);
  }

  std::printf(
      "\nshape check: construction parallelizes across length classes; "
      "appending a few series is far cheaper than rebuilding (group counts "
      "agree within leader-order noise); reloading a saved base costs I/O, "
      "not clustering; streaming extends cost milliseconds per tick while "
      "queries keep answering — including during a background regroup.\n");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << record.Dump() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
