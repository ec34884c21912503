// The benchmark's correctness comparator: a pooled result against its
// 1-worker replay (or a stored reference), field for field and bit for bit.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "search/runner.hpp"

namespace perfbench {

/// True iff a and b have the same bit pattern (so NaN == NaN and
/// 0.0 != -0.0, unlike operator==).
[[nodiscard]] bool same_bits(double a, double b) noexcept;

/// nullopt when every SearchResult field matches; otherwise a description
/// of the first mismatch ("result 3: raw_requests 17 != 19").
[[nodiscard]] std::optional<std::string> first_mismatch(
    std::span<const sfs::search::SearchResult> got,
    std::span<const sfs::search::SearchResult> want);

}  // namespace perfbench
