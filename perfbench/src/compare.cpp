#include "compare.hpp"

#include <bit>
#include <cstdint>

namespace perfbench {

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::optional<std::string> first_mismatch(
    std::span<const sfs::search::SearchResult> got,
    std::span<const sfs::search::SearchResult> want) {
  if (got.size() != want.size()) {
    return "result count " + std::to_string(got.size()) +
           " != " + std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& a = got[i];
    const auto& b = want[i];
    auto field = [&](const char* name, std::size_t x,
                     std::size_t y) -> std::optional<std::string> {
      if (x == y) return std::nullopt;
      return "result " + std::to_string(i) + ": " + name + " " +
             std::to_string(x) + " != " + std::to_string(y);
    };
    for (auto diff : {field("found", a.found, b.found),
                      field("requests", a.requests, b.requests),
                      field("raw_requests", a.raw_requests, b.raw_requests),
                      field("failed_requests", a.failed_requests,
                            b.failed_requests),
                      field("path_length", a.path_length, b.path_length),
                      field("budget_exhausted", a.budget_exhausted,
                            b.budget_exhausted),
                      field("gave_up", a.gave_up, b.gave_up),
                      field("restarts", a.restarts, b.restarts),
                      field("abandoned", a.abandoned, b.abandoned)}) {
      if (diff) return diff;
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
