#include "manifest.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <thread>

#include "sim/json.hpp"

namespace perfbench {
namespace {

std::string read_line(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::string s;
  std::getline(in, s);
  return s;
}

}  // namespace

std::optional<std::int64_t> parse_cache_size(const std::string& text) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || v < 0) return std::nullopt;
  std::int64_t scale = 1;
  if (ptr != end) {
    if (ptr + 1 != end) return std::nullopt;
    switch (*ptr) {
      case 'K': scale = std::int64_t{1} << 10; break;
      case 'M': scale = std::int64_t{1} << 20; break;
      case 'G': scale = std::int64_t{1} << 30; break;
      default: return std::nullopt;
    }
  }
  if (v > (std::int64_t{1} << 40)) return std::nullopt;
  return v * scale;
}

Manifest collect_host_manifest() {
  Manifest m;
  m.compiler = PB_COMPILER;
  m.build_type = PB_BUILD_TYPE;
  m.nproc = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  // cpu0's cache hierarchy: the level-2 cache and the highest level.
  namespace fs = std::filesystem;
  const fs::path dir("/sys/devices/system/cpu/cpu0/cache");
  std::error_code ec;
  int llc_level = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const auto name = entry.path().filename().string();
    if (name.rfind("index", 0) != 0) continue;
    const std::string type = read_line(entry.path() / "type");
    if (type == "Instruction") continue;
    int level = 0;
    const std::string lv = read_line(entry.path() / "level");
    std::from_chars(lv.data(), lv.data() + lv.size(), level);
    const auto size = parse_cache_size(read_line(entry.path() / "size"));
    if (!size) continue;
    if (level == 2) m.l2_bytes = *size;
    if (level > llc_level) {
      llc_level = level;
      m.llc_bytes = *size;
    }
  }
  return m;
}

std::string to_json(const Manifest& m) {
  sfs::sim::JsonObjectWriter w;
  w.str_field("workload", m.workload)
      .int_field("seed", m.seed)
      .str_field("git_describe", m.git_describe)
      .str_field("source_digest", m.source_digest)
      .str_field("compiler", m.compiler)
      .str_field("build_type", m.build_type)
      .int_field("nproc", static_cast<std::uint64_t>(m.nproc));
  auto opt = [&](const char* key, std::int64_t v) {
    if (v < 0) {
      w.null_field(key);
    } else {
      w.int_field(key, static_cast<std::uint64_t>(v));
    }
  };
  opt("l2_bytes", m.l2_bytes);
  opt("llc_bytes", m.llc_bytes);
  w.int_field("pool_width", static_cast<std::uint64_t>(m.pool_width))
      .int_field("stream_plan", static_cast<std::uint64_t>(m.stream_plan))
      .bool_field("traced", m.traced);
  return w.str();
}

}  // namespace perfbench
