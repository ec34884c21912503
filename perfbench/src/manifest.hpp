// Run manifest: which build, host, pool width, seed and stream plan
// produced a result file. Written at the head of every result and trace
// file, so results from different hosts or builds are never compared
// silently.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace perfbench {

struct Manifest {
  std::string workload;
  std::uint64_t seed = 0;
  std::string git_describe;    // from run.py; "none" outside a git checkout
  std::string source_digest;   // sha256 of the library sources, from run.py
  std::string compiler;
  std::string build_type;
  std::int64_t nproc = 0;
  std::int64_t l2_bytes = -1;   // -1: not readable from sysfs
  std::int64_t llc_bytes = -1;  // -1: not readable from sysfs
  std::int64_t pool_width = 0;
  std::int64_t stream_plan = 0;  // rng::stream_plan_number of the queries
  bool traced = false;
};

/// The host and build half of the manifest (everything except workload,
/// seed, git describe, source digest, pool width, stream plan and trace
/// flag).
[[nodiscard]] Manifest collect_host_manifest();

/// One JSON object; unknown cache sizes are written as null.
[[nodiscard]] std::string to_json(const Manifest& m);

/// Parses a sysfs cache size ("2048K", "105M", "512"); nullopt when
/// malformed.
[[nodiscard]] std::optional<std::int64_t> parse_cache_size(
    const std::string& text);

}  // namespace perfbench
