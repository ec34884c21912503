// The three benchmark workloads and what they hand back to main.
//
// Every workload is a closed loop driven by one client (the calling
// thread, which is also pool worker 0): it issues its next library call
// only after the previous one returned. Inputs are a pure function of the
// seed; timings are not.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "rng/random.hpp"
#include "search/query_engine.hpp"
#include "sim/churn.hpp"
#include "sim/json.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t workers = 1;   // pool width: min(4, nproc)
  std::string golden_path;   // e1 --large reference series (sweep)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // observations behind the value
  std::string detail;       // e.g. "p44 of 18 (p99 has < 10 beyond)"
};

struct Outcome {
  std::vector<Metric> end_to_end;  // from the untraced pass
  std::vector<Metric> per_layer;   // traced runs only
  std::size_t attempted = 0;       // timed operations issued
  std::size_t failed = 0;          // threw, or differed from the reference
  std::vector<std::string> errors;  // one line per failure
  std::int64_t stream_plan = 0;
  std::string details_json = "{}";  // workload-specific extras
};

/// Runs one workload. The end-to-end metrics always come from a pass with
/// tracing off; with opts.trace the workload also makes a pass with
/// `tracer` on (the order of the two chosen by the seed) and derives the
/// per-layer metrics from its spans.
[[nodiscard]] Outcome run_sweep(const RunOptions& opts, Tracer& tracer);
[[nodiscard]] Outcome run_lookup(const RunOptions& opts, Tracer& tracer);
[[nodiscard]] Outcome run_churn(const RunOptions& opts, Tracer& tracer);

// ---------------------------------------------------------------- shared

/// Appends a metric; throws MeasurementFault on a NaN, infinite, zero or
/// negative value of a metric that must be positive (every timing, rate
/// and size), so a broken timer fails the run instead of being reported.
void add_metric(std::vector<Metric>& out, std::string name, double value,
                std::string unit, std::size_t samples, std::string detail = {},
                bool must_be_positive = true);

/// The *_p50 / *_p99 pair of a latency sample (milliseconds), by the tail
/// percentile rule of measure.hpp.
void add_latency_pair(std::vector<Metric>& out, const std::string& stem,
                      const std::vector<double>& seconds);

/// Set-up timing. One set-up lasts milliseconds, so its time carries the
/// scheduler's noise; a setup_s sample is therefore the mean time of a
/// group of `count` set-ups. `set_up()` runs one set-up and returns its own
/// seconds, so work between set-ups (freeing the previous one) is left out.
[[nodiscard]] double setup_group_seconds(
    std::size_t count, const std::function<double()>& set_up);

/// setup_s: the median of the groups' mean set-up times.
void add_setup_metric(std::vector<Metric>& out,
                      const std::vector<double>& group_mean_s,
                      std::size_t per_group);

struct MeasurementFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Peak resident set of this process so far (since its exec), MiB.
[[nodiscard]] double peak_rss_mib();

/// Self seconds of the spans whose name starts with `prefix` and whose
/// start lies in [from, to].
[[nodiscard]] double self_seconds_in(const std::vector<SpanRecord>& spans,
                                     const std::string& prefix,
                                     Clock::time_point from,
                                     Clock::time_point to);

/// The churn workload's model, d1's steady state: rate 0.02, edge failures
/// 0.01, each departure replaced by a 2-edge join.
[[nodiscard]] sfs::sim::ChurnParams churn_params();

/// A power-law configuration overlay of the m5 / p2p_lookup family
/// (gamma 2.3, minimum degree 1): the largest component of an n-vertex
/// graph drawn from `rng`, timed in gen.power_law_configuration and
/// graph.largest_component spans.
struct PowerLawOverlay {
  sfs::graph::Graph graph;
  double gen_s = 0.0;
  double component_s = 0.0;
};
[[nodiscard]] PowerLawOverlay power_law_overlay(std::size_t n,
                                                sfs::rng::Rng& rng,
                                                Tracer& tracer);

/// Layer probe: the per-layer metrics of layers a workload bypasses,
/// measured on a small power-law overlay (the lookup family at n = 20000)
/// outside every timed window, so each workload reports the whole
/// per-layer set. Each field is the same quantity as the workload-native
/// metric of that name.
struct LayerProbe {
  double overlay_gen_s = 0.0;
  double component_s = 0.0;
  double engine_init_s = 0.0;
  double dispatch_us = 0.0;
  double strong_mprobes_per_s_greedy = 0.0;
  double strong_mprobes_per_s_bfs = 0.0;
  double weak_mprobes_per_s = 0.0;
  std::vector<double> inject_ms;
  std::vector<double> repair_ms;
};
[[nodiscard]] LayerProbe run_layer_probe(std::uint64_t seed, Tracer& tracer);

/// base.pool_speedup: the same work on 1 worker and on the pool, after
/// one untimed warm-up at pool width, in `blocks` blocks of four trials in
/// alternating order (seq, pool, pool, seq, or the mirror image for odd
/// seeds); medians of each side. A speedup above the worker count is never
/// reported as a number: the reading is rejected and the whole measurement
/// made again, and a measurement fault is thrown when all of
/// kSpeedupAttempts attempts read above the worker count. The rejected
/// readings are kept in the metric's detail. (On a shared VM, periods in
/// which a lone worker runs slower than one of four come and go over
/// minutes; a fixed set of lookup batches read 4.05 in one minute and 3.45
/// a few minutes later.)
inline constexpr std::size_t kSpeedupAttempts = 3;
struct Speedup {
  double seq_s = 0.0;
  double pool_s = 0.0;
  std::size_t trials = 0;
  std::size_t attempt = 1;
  std::string rejected;  // the superlinear readings of earlier attempts
  [[nodiscard]] double ratio() const { return seq_s / pool_s; }
  [[nodiscard]] std::string detail() const {
    std::string d = "1 worker vs pool, " + std::to_string(trials / 2) +
                    " alternated trials each, medians";
    if (attempt > 1) {
      d += "; attempt " + std::to_string(attempt) +
           ", rejected superlinear readings: " + rejected;
    }
    return d;
  }
};
[[nodiscard]] Speedup measure_speedup(
    const std::function<void(std::size_t threads)>& work, std::uint64_t seed,
    std::size_t workers, std::size_t blocks, Tracer& tracer);

/// base.pool_speedup, base.pool_busy_share (speedup / workers: the share
/// of the pool's worker time doing work) and base.pool_last_cell_s (the
/// slowest single pool job, here a batch) of a batch-serving workload.
void add_pool_metrics(std::vector<Metric>& out, const Speedup& speedup,
                      std::size_t workers, const std::vector<double>& batch_s);

/// stats.bootstrap_s for a batch-serving workload: the time of the
/// 400-replicate bootstrap CI of `samples`' median (seconds), which the
/// benchmark computes with stats::bootstrap_ci and records in `details`
/// as <key>_ci_lo_ms / <key>_ci_hi_ms.
void add_median_ci(std::vector<Metric>& out, const std::vector<double>& samples,
                   const std::string& key, std::uint64_t seed, Tracer& tracer,
                   sfs::sim::JsonObjectWriter& details);

/// sim.churn_inject_ms.{median,max} and sim.churn_repair_ms.{median,max}.
void add_churn_metrics(std::vector<Metric>& out,
                       const std::vector<double>& inject_ms,
                       const std::vector<double>& repair_ms,
                       const std::string& detail);

/// trace.coverage (covered_seconds over the timed wall: the share of it
/// during which some thread was inside a library call; below kMinCoverage
/// is a measurement fault) and
/// trace.overhead_share (traced over untraced cost of the same work,
/// minus 1).
void add_trace_metrics(std::vector<Metric>& out, double covered_s,
                       double timed_s, double untraced_cost,
                       double traced_cost);

/// search.engine_dispatch_us: median microseconds per run_batch call on
/// single-query batches whose start is adjacent to the target, so each
/// query costs one probe and the call is all engine and pool dispatch.
/// `calls` batches on the shared pool, endpoints drawn from `seed`.
[[nodiscard]] double dispatch_probe_us(sfs::search::QueryEngine& engine,
                                       const sfs::graph::Graph& g,
                                       std::uint64_t seed, std::size_t calls,
                                       Tracer& tracer);

/// A one-probe lookup: the lowest-numbered vertex with a neighbour other
/// than itself, to that neighbour. Binding an engine runs one such batch
/// on the pool, so set-up grows the sessions without a search whose cost
/// depends on the seed.
[[nodiscard]] sfs::search::Query adjacent_query(const sfs::graph::Graph& g);

/// `count` lookups between distinct uniformly drawn vertices of `peers`.
[[nodiscard]] std::vector<sfs::search::Query> random_queries(
    const std::vector<sfs::graph::VertexId>& peers, std::size_t count,
    sfs::rng::Rng& rng);

}  // namespace perfbench
