/// Golden transcript of query refinement (DESIGN.md §7): MATCH and KNN
/// answers — ref, group, and the raw, normalized and representative DTW at
/// full precision — over walk, sine and duplicated-series datasets, with
/// in-dataset and perturbed queries, k ∈ {1,3,5}, window ∈ {−1,0,8},
/// exhaustive off/on, plus an explore-shaped transcript over a base with
/// one class per length from 8 to 40, whose queries meet dozens of
/// cross-length classes (or only cross-length ones). Every pruning device
/// in the cascade, the seeded refinement horizon included, is a pure work
/// saver, so any change to them must reproduce this transcript bit for bit.
/// The duplicated-series dataset makes exact distance ties, which pins the
/// in-order tie-breaks of the top-k merge as well.
///
/// The transcript is pinned under the scalar kernel table, whose arithmetic
/// is plain IEEE double at the baseline ISA (identical at every
/// optimization level), and the datasets are built from integer-seeded
/// arithmetic only (no libm), so the recorded values do not depend on the
/// CPU or the platform's math library. On a mismatch the test writes the
/// transcript it produced to <golden>.actual.txt in the working directory,
/// in the same raw-string form as the .inc, so an intended change is
/// re-recorded by copying that file over the .inc.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/string_utils.h"
#include "onex/core/query_processor.h"
#include "onex/distance/kernels.h"
#include "onex/ts/normalization.h"

namespace onex {
namespace {

constexpr const char* kGolden =
#include "core_refine_golden.inc"
    ;

constexpr const char* kMultiLengthGolden =
#include "core_refine_golden_multilength.inc"
    ;

/// splitmix64: a libm-free, platform-independent value stream.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : s_(seed) {}
  double Uniform(double lo, double hi) {
    s_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = s_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return lo + (hi - lo) * (static_cast<double>(z >> 11) * 0x1.0p-53);
  }

 private:
  std::uint64_t s_;
};

std::vector<double> Walk(Mix* mix, std::size_t len) {
  std::vector<double> v(len);
  double x = mix->Uniform(-1.0, 1.0);
  for (double& p : v) {
    x += mix->Uniform(-0.5, 0.5);
    p = x;
  }
  return v;
}

/// Sine by the rotation recurrence s[t+1] = 2c·s[t] − s[t−1] (c = cos of
/// the step), plus a little uniform noise: periodic shape without libm.
std::vector<double> Sine(Mix* mix, std::size_t len, double c) {
  std::vector<double> v(len);
  double prev = mix->Uniform(-1.0, 1.0);
  double cur = prev * c + std::sqrt(1.0 - prev * prev) * std::sqrt(1.0 - c * c);
  for (double& p : v) {
    p = cur + mix->Uniform(-0.05, 0.05);
    const double next = 2.0 * c * cur - prev;
    prev = cur;
    cur = next;
  }
  return v;
}

Dataset MakeRaw(const std::string& kind) {
  Mix mix(kind == "walk" ? 11 : kind == "sine" ? 23 : 37);
  Dataset ds(kind);
  const std::size_t len = 96;
  if (kind == "walk") {
    for (int s = 0; s < 6; ++s) {
      ds.Add(TimeSeries(StrFormat("w%d", s), Walk(&mix, len)));
    }
  } else if (kind == "sine") {
    const double cs[] = {0.98, 0.95, 0.9, 0.98, 0.95, 0.9};
    for (int s = 0; s < 6; ++s) {
      ds.Add(TimeSeries(StrFormat("s%d", s), Sine(&mix, len, cs[s])));
    }
  } else {
    // Three walks, each stored twice: every subsequence has a bit-equal
    // twin, so distances tie exactly and tie-breaks decide the answer.
    for (int s = 0; s < 3; ++s) {
      const std::vector<double> w = Walk(&mix, len);
      ds.Add(TimeSeries(StrFormat("d%da", s), w));
      ds.Add(TimeSeries(StrFormat("d%db", s), w));
    }
  }
  return ds;
}

struct Query {
  std::string name;
  std::vector<double> values;
};

std::vector<Query> MakeQueries(const Dataset& ds, std::uint64_t seed) {
  Mix mix(seed);
  auto slice = [&](std::size_t s, std::size_t start, std::size_t len) {
    const std::span<const double> v = ds[s].Slice(start, len);
    return std::vector<double>(v.begin(), v.end());
  };
  std::vector<Query> qs;
  qs.push_back({"in16", slice(1, 5, 16)});
  qs.push_back({"in12", slice(4, 40, 12)});
  Query p16{"pert16", slice(2, 30, 16)};
  for (double& v : p16.values) v += mix.Uniform(-0.03, 0.03);
  qs.push_back(std::move(p16));
  // Length 14 is no class length: every candidate is cross-length.
  Query p14{"pert14", slice(0, 60, 14)};
  for (double& v : p14.values) v += mix.Uniform(-0.03, 0.03);
  qs.push_back(std::move(p14));
  return qs;
}

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Emit(std::ostringstream* out, const std::string& prefix,
          std::size_t rank, const BestMatch& m) {
  *out << prefix << " #" << rank << " ref=" << m.ref.series << ':'
       << m.ref.start << ':' << m.ref.length << " g=" << m.group_index
       << " dtw=" << Fmt(m.dtw) << " nd=" << Fmt(m.normalized_dtw)
       << " rep=" << Fmt(m.rep_dtw) << '\n';
}

/// The whole transcript.
std::string Transcript() {
  std::ostringstream out;
  for (const std::string kind : {"walk", "sine", "dup"}) {
    Result<Dataset> norm =
        Normalize(MakeRaw(kind), NormalizationKind::kMinMaxDataset);
    EXPECT_TRUE(norm.ok()) << norm.status();
    auto ds = std::make_shared<const Dataset>(std::move(norm).value());
    BaseBuildOptions bopt;
    bopt.st = 0.25;
    bopt.min_length = 8;
    bopt.max_length = 24;
    bopt.length_step = 4;
    Result<OnexBase> base = OnexBase::Build(ds, bopt);
    EXPECT_TRUE(base.ok()) << base.status();
    QueryProcessor qp(&*base);

    for (const Query& q : MakeQueries(*ds, kind.size() * 101)) {
      for (const int window : {kNoWindow, 0, 8}) {
        for (const bool exhaustive : {false, true}) {
          QueryOptions opt;
          opt.window = window;
          opt.exhaustive = exhaustive;
          opt.compute_path = false;
          const std::string head = kind + " " + q.name +
                                   " w=" + std::to_string(window) +
                                   " ex=" + std::to_string(exhaustive);
          Result<BestMatch> match = qp.BestMatchQuery(q.values, opt);
          EXPECT_TRUE(match.ok()) << match.status();
          if (match.ok()) Emit(&out, head + " MATCH", 0, *match);
          for (const std::size_t k : {1u, 3u, 5u}) {
            Result<std::vector<BestMatch>> knn = qp.KnnQuery(q.values, k, opt);
            EXPECT_TRUE(knn.ok()) << knn.status();
            if (!knn.ok()) continue;
            for (std::size_t i = 0; i < knn->size(); ++i) {
              Emit(&out, head + " KNN k=" + std::to_string(k), i, (*knn)[i]);
            }
          }
        }
      }
    }
  }
  return out.str();
}

/// Explore-shaped transcript: length_step 1 from 8 to 40, so a query of a
/// class length meets 32 other-length classes for its own one, and queries
/// of length 6 and 44 meet cross-length classes only. Covers the bounds
/// that hold across lengths, which the transcript above (four classes)
/// barely exercises.
std::string MultiLengthTranscript() {
  std::ostringstream out;
  for (const std::string kind : {"walk", "sine"}) {
    Result<Dataset> norm =
        Normalize(MakeRaw(kind), NormalizationKind::kMinMaxDataset);
    EXPECT_TRUE(norm.ok()) << norm.status();
    auto ds = std::make_shared<const Dataset>(std::move(norm).value());
    BaseBuildOptions bopt;
    bopt.st = 0.2;
    bopt.min_length = 8;
    bopt.max_length = 40;
    bopt.length_step = 1;
    Result<OnexBase> base = OnexBase::Build(ds, bopt);
    EXPECT_TRUE(base.ok()) << base.status();
    QueryProcessor qp(&*base);

    Mix mix(kind.size() * 131);
    auto perturbed = [&](const char* name, std::size_t s, std::size_t start,
                         std::size_t len) {
      const std::span<const double> v = (*ds)[s].Slice(start, len);
      Query q{name, std::vector<double>(v.begin(), v.end())};
      for (double& x : q.values) x += mix.Uniform(-0.03, 0.03);
      return q;
    };
    std::vector<Query> qs;
    const std::span<const double> in = (*ds)[3].Slice(17, 23);
    qs.push_back({"in23", std::vector<double>(in.begin(), in.end())});
    qs.push_back(perturbed("pert31", 1, 50, 31));
    qs.push_back(perturbed("pert44", 5, 9, 44));  // longer than every class
    qs.push_back(perturbed("pert6", 2, 70, 6));   // shorter than every class

    for (const Query& q : qs) {
      for (const int window : {kNoWindow, 8}) {
        for (const bool exhaustive : {false, true}) {
          QueryOptions opt;
          opt.window = window;
          opt.exhaustive = exhaustive;
          opt.compute_path = false;
          const std::string head = kind + " " + q.name +
                                   " w=" + std::to_string(window) +
                                   " ex=" + std::to_string(exhaustive);
          for (const std::size_t k : {1u, 5u}) {
            Result<std::vector<BestMatch>> knn = qp.KnnQuery(q.values, k, opt);
            EXPECT_TRUE(knn.ok()) << knn.status();
            if (!knn.ok()) continue;
            for (std::size_t i = 0; i < knn->size(); ++i) {
              Emit(&out, head + " KNN k=" + std::to_string(k), i, (*knn)[i]);
            }
          }
        }
      }
    }
  }
  return out.str();
}

/// First line where the two transcripts differ, for a readable failure.
std::string FirstDiff(const std::string& want, const std::string& got) {
  std::istringstream a(want), b(got);
  std::string la, lb;
  for (std::size_t line = 1;; ++line) {
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    if (!ha && !hb) return "";
    if (!ha || !hb || la != lb) {
      return "line " + std::to_string(line) + "\n  want: " +
             (ha ? la : "<eof>") + "\n   got: " + (hb ? lb : "<eof>");
    }
  }
}

/// Produces `transcript` under the scalar table and compares it with the
/// recorded `golden`, writing <name>.actual.txt on a mismatch.
void ExpectGolden(std::string (*transcript)(), const char* golden,
                  const std::string& name) {
  const KernelMode before = GetKernelMode();
  SetKernelMode(KernelMode::kScalar);
  const std::string got = transcript();
  SetKernelMode(before);

  const std::string want = std::string(golden).substr(1);  // leading '\n'
  if (got != want) {
    std::ofstream(name + ".actual.txt")
        << "R\"golden(\n" << got << ")golden\"\n";
  }
  EXPECT_TRUE(got == want) << "transcript differs (written to " << name
                           << ".actual.txt) at " << FirstDiff(want, got);
}

TEST(RefineGoldenTest, AnswersMatchTheRecordedTranscript) {
  ExpectGolden(&Transcript, kGolden, "core_refine_golden");
}

TEST(RefineGoldenTest, MultiLengthAnswersMatchTheRecordedTranscript) {
  ExpectGolden(&MultiLengthTranscript, kMultiLengthGolden,
               "core_refine_golden_multilength");
}

}  // namespace
}  // namespace onex
