#include "measure.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("quartiles of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t ld = v.size();
  if (ld == 1) return {v[0], v[0]};
  const std::size_t m = ld + 1;
  auto cut = [&](std::size_t i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    // delta may leave [0, 4] after clamping, exactly as in Python.
    const double delta =
        static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  return {cut(1), cut(3)};
}

TailPick tail_percentile(std::vector<double> v, int requested) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (requested < 0 || requested > 100) {
    throw std::invalid_argument("percentile out of [0, 100]");
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (int p = requested; p >= 0; --p) {
    // k = ceil(p * n / 100) in integer arithmetic, at least 1.
    std::size_t k = (static_cast<std::size_t>(p) * n + 99) / 100;
    k = std::max<std::size_t>(k, 1);
    const std::size_t beyond = n - k;
    if (beyond >= kMinBeyond || p == 0) {
      return {p, v[k - 1], n, beyond};
    }
  }
  return {};  // unreachable: p == 0 always returns
}

}  // namespace perfbench
