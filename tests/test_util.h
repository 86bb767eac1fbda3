#ifndef ONEX_TESTS_TEST_UTIL_H_
#define ONEX_TESTS_TEST_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "onex/common/random.h"
#include "onex/ts/dataset.h"
#include "onex/ts/normalization.h"

namespace onex::testing {

/// Random series of length n with values in roughly [-1, 1].
inline std::vector<double> RandomSeries(Rng* rng, std::size_t n,
                                        double scale = 1.0) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng->Uniform(-scale, scale));
  return out;
}

/// Smooth random series (random walk) of length n.
inline std::vector<double> SmoothSeries(Rng* rng, std::size_t n,
                                        double step = 0.1) {
  std::vector<double> out;
  out.reserve(n);
  double v = rng->Gaussian(0.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    v += rng->Gaussian(0.0, step);
    out.push_back(v);
  }
  return out;
}

/// A tiny deterministic dataset of `num` smooth series of length `len`.
inline Dataset SmallDataset(std::size_t num = 6, std::size_t len = 24,
                            std::uint64_t seed = 17) {
  Rng rng(seed);
  Dataset ds("small");
  for (std::size_t s = 0; s < num; ++s) {
    ds.Add(TimeSeries("series_" + std::to_string(s), SmoothSeries(&rng, len)));
  }
  return ds;
}

/// Raw and normalized values plus the normalization parameters, printed at
/// %.17g: two snapshots honour the same frozen-normalization contract iff
/// their transcripts are string-equal.
inline std::string NormalizationTranscript(const Dataset& raw,
                                           const Dataset& normalized,
                                           const NormalizationParams& params) {
  std::string out;
  char buf[64];
  const auto put = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    out += buf;
  };
  for (const Dataset* ds : {&raw, &normalized}) {
    for (const TimeSeries& ts : ds->series()) {
      out += ts.name() + ':';
      for (const double v : ts.values()) put(v);
      out += '\n';
    }
  }
  out += std::to_string(static_cast<int>(params.kind)) + ':';
  put(params.min);
  put(params.max);
  for (const auto& [offset, scale] : params.per_series) {
    put(offset);
    put(scale);
  }
  return out + '\n';
}

}  // namespace onex::testing

#endif  // ONEX_TESTS_TEST_UTIL_H_
