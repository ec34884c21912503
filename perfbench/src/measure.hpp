// Sample statistics of the benchmark beyond the library's
// stats::median: quartiles and the tail percentile rule every *_p99
// metric goes through.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// First and third quartile by the "exclusive" method of Python's
/// statistics.quantiles(v, n=4), so the benchmark's own spread figures
/// match the ones computed over its printed results. A single sample is
/// its own quartiles. Requires a non-empty sample.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> v);

/// A tail percentile that is backed by data: the requested percentile,
/// or, when fewer than kMinBeyond samples lie above it, the next lower
/// whole percentile that has that many (down to the minimum, percentile
/// 0, for samples too small for any). `beyond` is the number of samples
/// strictly above the reported position.
struct TailPick {
  int percentile = 0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile: position k = ceil(p/100 * N) (1-based, at
/// least 1) of the sorted sample; N - k samples lie beyond it. Requires a
/// non-empty sample and 0 <= requested <= 100.
[[nodiscard]] TailPick tail_percentile(std::vector<double> v, int requested);

}  // namespace perfbench
