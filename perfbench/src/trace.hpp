// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around its calls into
// the library's layers (the library itself carries no tracing). A span is
// named "<layer>.<operation>" (layer = base, gen, graph, search, sim,
// stats, or bench for the benchmark's own loop), has a start, an end, the
// span that was open on the same thread when it began (its parent), and
// the id of the cell, batch or round it belongs to. Spans stay in memory
// and are written once, as Chrome trace-event JSON (loads in Perfetto and
// chrome://tracing), when the run ends.
//
// A disabled Tracer records nothing; Scope still times itself, so the
// untraced and traced runs share one code path.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  const char* name = "";  // static string "<layer>.<op>"
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;      // >= 1
  std::uint64_t parent = 0;  // 0: top level on its thread
  std::uint32_t thread = 0;  // 0 = the first thread that recorded
  std::int64_t unit = -1;    // cell / batch / round id, -1 for none
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// RAII span. Safe to open on any thread, including pool workers.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t unit = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the scope opened.
    [[nodiscard]] double elapsed() const {
      return seconds_between(start_, Clock::now());
    }

   private:
    Tracer& tracer_;
    const char* name_;
    std::int64_t unit_;
    Clock::time_point start_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
  };

  /// Every recorded span, ordered by (thread, start). Call only while no
  /// thread is recording.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Writes {"traceEvents": [...], "otherData": <manifest_json>}.
  void write_chrome_json(const std::string& path,
                         const std::string& manifest_json) const;

 private:
  struct ThreadLog;
  ThreadLog& log_for_this_thread();

  bool enabled_;
  std::uint64_t serial_;  // process-unique, keys the thread-local log cache
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by mu_
  Clock::time_point origin_;
};

/// Self time of every span: its duration minus the part of it that its
/// children on the same thread cover. Returned per layer (the name's
/// prefix before the first '.'), summed over threads.
[[nodiscard]] std::map<std::string, double> layer_self_seconds(
    const std::vector<SpanRecord>& spans);

/// Sum of self times per full span name.
[[nodiscard]] std::map<std::string, double> name_self_seconds(
    const std::vector<SpanRecord>& spans);

/// Seconds of [from, to] during which at least one thread was inside a
/// top-level library span: the union of those spans over every thread.
/// Spans of the benchmark's own "bench" layer and everything nested in
/// them do not count. The rest of the wall is harness time.
[[nodiscard]] double covered_seconds(const std::vector<SpanRecord>& spans,
                                     Clock::time_point from,
                                     Clock::time_point to);

/// The least share of a workload's timed wall that covered_seconds must
/// account for; a traced run below it is a measurement fault.
inline constexpr double kMinCoverage = 0.95;

}  // namespace perfbench
