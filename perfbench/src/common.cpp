// Helpers shared by the workloads: metric records, the layer probe and
// query construction.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "gen/config_model.hpp"
#include "graph/algorithms.hpp"
#include "graph/overlay.hpp"
#include "measure.hpp"
#include "sim/churn.hpp"
#include "sim/experiment.hpp"
#include "stats/bootstrap.hpp"
#include "stats/summary.hpp"
#include "workloads.hpp"

namespace perfbench {

void add_metric(std::vector<Metric>& out, std::string name, double value,
                std::string unit, std::size_t samples, std::string detail,
                bool must_be_positive) {
  if (!std::isfinite(value) || (must_be_positive && value <= 0.0)) {
    throw MeasurementFault("metric " + name + " measured " +
                           std::to_string(value) +
                           ": a null, NaN or zero timing is a harness fault");
  }
  out.push_back({std::move(name), value, std::move(unit), samples,
                 std::move(detail)});
}

void add_latency_pair(std::vector<Metric>& out, const std::string& stem,
                      const std::vector<double>& seconds) {
  if (seconds.empty()) {
    throw MeasurementFault(stem + ": no latency samples");
  }
  const Quartiles q = quartiles(seconds);
  add_metric(out, stem + "_p50_ms", sfs::stats::median(seconds) * 1e3, "ms",
             seconds.size(),
             "median; quartiles " + std::to_string(q.q1 * 1e3) + " / " +
                 std::to_string(q.q3 * 1e3) + " ms");
  const TailPick tail = tail_percentile(seconds, 99);
  std::string detail = "p";
  detail += std::to_string(tail.percentile) + " of " +
            std::to_string(tail.samples) + ", " +
            std::to_string(tail.beyond) + " beyond";
  if (tail.percentile != 99) detail += " (p99 has fewer than 10 beyond)";
  add_metric(out, stem + "_p99_ms", tail.value * 1e3, "ms", tail.samples,
             detail);
}

double setup_group_seconds(std::size_t count,
                           const std::function<double()>& set_up) {
  double total = 0.0;
  for (std::size_t i = 0; i < count; ++i) total += set_up();
  return total / static_cast<double>(count);
}

void add_setup_metric(std::vector<Metric>& out,
                      const std::vector<double>& group_mean_s,
                      std::size_t per_group) {
  const auto [lo, hi] =
      std::minmax_element(group_mean_s.begin(), group_mean_s.end());
  add_metric(out, "setup_s", sfs::stats::median(group_mean_s), "s",
             group_mean_s.size() * per_group,
             "median of " + std::to_string(group_mean_s.size()) +
                 " groups' mean time of " + std::to_string(per_group) +
                 " set-ups; groups from " + std::to_string(*lo * 1e3) +
                 " to " + std::to_string(*hi * 1e3) + " ms");
}

double peak_rss_mib() {
  // VmHWM belongs to this process's address space, which exec replaced.
  // getrusage's ru_maxrss survives exec, so a process started from a
  // larger one (run.py's Python) would report its parent's peak instead.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double self_seconds_in(const std::vector<SpanRecord>& spans,
                       const std::string& prefix, Clock::time_point from,
                       Clock::time_point to) {
  std::vector<SpanRecord> inside;
  for (const auto& s : spans) {
    if (s.start >= from && s.start <= to) inside.push_back(s);
  }
  double total = 0.0;
  for (const auto& [name, secs] : name_self_seconds(inside)) {
    if (name.rfind(prefix, 0) == 0) total += secs;
  }
  return total;
}

sfs::sim::ChurnParams churn_params() {
  sfs::sim::ChurnParams p;
  p.rate = 0.02;
  p.replace = true;
  p.edge_failure_rate = 0.01;
  p.join_edges = 2;
  return p;
}

PowerLawOverlay power_law_overlay(std::size_t n, sfs::rng::Rng& rng,
                                  Tracer& tracer) {
  PowerLawOverlay out;
  sfs::graph::Graph full;
  {
    Tracer::Scope span(tracer, "gen.power_law_configuration");
    full = sfs::gen::power_law_configuration_graph(
        n, sfs::gen::PowerLawSequenceParams{2.3, 1, 0},
        sfs::gen::ConfigModelOptions{false}, rng);
    out.gen_s = span.elapsed();
  }
  {
    Tracer::Scope span(tracer, "graph.largest_component");
    out.graph = sfs::graph::largest_component(full).graph;
    out.component_s = span.elapsed();
  }
  return out;
}

std::vector<sfs::search::Query> random_queries(
    const std::vector<sfs::graph::VertexId>& peers, std::size_t count,
    sfs::rng::Rng& rng) {
  std::vector<sfs::search::Query> out(count);
  for (auto& q : out) {
    q.target = peers[rng.uniform_index(peers.size())];
    do {
      q.start = peers[rng.uniform_index(peers.size())];
    } while (q.start == q.target);
  }
  return out;
}

sfs::search::Query adjacent_query(const sfs::graph::Graph& g) {
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    const auto vid = static_cast<sfs::graph::VertexId>(v);
    for (const auto w : g.adjacent(vid)) {
      if (w != vid) return {vid, w};
    }
  }
  throw std::invalid_argument("graph has no edge between distinct vertices");
}

double dispatch_probe_us(sfs::search::QueryEngine& engine,
                         const sfs::graph::Graph& g, std::uint64_t seed,
                         std::size_t calls, Tracer& tracer) {
  sfs::rng::Rng rng(seed);
  std::vector<double> us;
  sfs::search::SearchResult result;
  while (us.size() < calls) {
    const auto v =
        static_cast<sfs::graph::VertexId>(rng.uniform_index(g.num_vertices()));
    const auto nbrs = g.adjacent(v);
    if (nbrs.empty()) continue;
    const sfs::search::Query q{v, nbrs[rng.uniform_index(nbrs.size())]};
    if (q.start == q.target) continue;
    Tracer::Scope span(tracer, "search.dispatch_probe",
                       static_cast<std::int64_t>(us.size()));
    engine.run_batch(std::span(&q, 1), std::span(&result, 1), 0);
    us.push_back(span.elapsed() * 1e6);
  }
  return sfs::stats::median(us);
}

LayerProbe run_layer_probe(std::uint64_t seed, Tracer& tracer) {
  constexpr std::size_t kProbeN = 20000;
  constexpr std::size_t kBatch = 64;
  Tracer::Scope probe(tracer, "bench.layer_probe");
  LayerProbe out;
  sfs::rng::Rng rng(sfs::sim::experiment_stream_seed(seed, "layer probe"));

  PowerLawOverlay overlay = power_law_overlay(kProbeN, rng, tracer);
  out.overlay_gen_s = overlay.gen_s;
  out.component_s = overlay.component_s;
  const sfs::graph::Graph& g = overlay.graph;
  std::vector<sfs::graph::VertexId> peers(g.num_vertices());
  for (std::size_t v = 0; v < peers.size(); ++v) {
    peers[v] = static_cast<sfs::graph::VertexId>(v);
  }
  const auto queries = random_queries(peers, kBatch, rng);
  std::vector<sfs::search::SearchResult> results(kBatch);

  auto rate = [&](const char* policy, bool init) {
    sfs::search::QueryEngineOptions options;
    options.seed = sfs::sim::experiment_stream_seed(seed, policy);
    options.budget.max_raw_requests = 50 * g.num_vertices();
    double init_s = 0.0;
    std::unique_ptr<sfs::search::QueryEngine> engine;
    {
      Tracer::Scope span(tracer, "search.engine_init");
      engine =
          std::make_unique<sfs::search::QueryEngine>(g, policy, options);
      const auto q = adjacent_query(g);
      engine->run_batch(std::span(&q, 1), std::span(results.data(), 1), 0);
      init_s = span.elapsed();
    }
    if (init) {
      out.engine_init_s = init_s;
      out.dispatch_us = dispatch_probe_us(*engine, g, options.seed, 200,
                                          tracer);
    }
    double secs = 0.0;
    {
      Tracer::Scope span(tracer, "search.run_batch");
      engine->run_batch(queries, results, 0);
      secs = span.elapsed();
    }
    double raw = 0.0;
    for (const auto& r : results) raw += static_cast<double>(r.raw_requests);
    return raw / secs / 1e6;
  };
  out.strong_mprobes_per_s_greedy = rate("degree-greedy-strong", true);
  out.strong_mprobes_per_s_bfs = rate("bfs-strong", false);
  out.weak_mprobes_per_s = rate("random-walk", false);

  // Churn steps with the churn workload's parameters.
  sfs::graph::Overlay live(g);
  const sfs::sim::ChurnSchedule schedule(
      churn_params(),
      sfs::sim::experiment_stream_seed(seed, "layer probe churn"));
  for (std::uint64_t step = 0; step < 16; ++step) {
    sfs::sim::ChurnStepStats stats;
    {
      Tracer::Scope span(tracer, "sim.churn_inject",
                         static_cast<std::int64_t>(step));
      stats = schedule.inject(live, step);
      out.inject_ms.push_back(span.elapsed() * 1e3);
    }
    Tracer::Scope span(tracer, "sim.churn_repair",
                       static_cast<std::int64_t>(step));
    schedule.repair(live, step, stats);
    out.repair_ms.push_back(span.elapsed() * 1e3);
  }
  return out;
}

Speedup measure_speedup(const std::function<void(std::size_t)>& work,
                        std::uint64_t seed, std::size_t workers,
                        std::size_t blocks, Tracer& tracer) {
  auto list = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) {
      if (!out.empty()) out += ' ';
      out += std::to_string(x);
    }
    return out;
  };
  std::string rejected;
  for (std::size_t attempt = 1; attempt <= kSpeedupAttempts; ++attempt) {
    {
      // Untimed, at pool width: grows every worker's session first, so no
      // trial pays for it.
      Tracer::Scope span(tracer, "bench.speedup_warmup");
      work(0);
    }
    std::vector<double> seq, pool;
    const bool seq_first = seed % 2 == 0;
    for (std::size_t trial = 0; trial < 4 * blocks; ++trial) {
      // Blocks of seq, pool, pool, seq (or the mirror image): each side
      // runs once first and once second in every block.
      const std::size_t i = trial % 4;
      const bool run_seq = (i == 0 || i == 3) == seq_first;
      Tracer::Scope span(tracer,
                         run_seq ? "base.speedup_seq" : "base.speedup_pool",
                         static_cast<std::int64_t>(trial));
      work(run_seq ? 1 : 0);
      (run_seq ? seq : pool).push_back(span.elapsed());
    }
    Speedup s{sfs::stats::median(seq), sfs::stats::median(pool),
              seq.size() + pool.size(), attempt, rejected};
    if (s.ratio() <= static_cast<double>(workers)) return s;
    if (!std::isfinite(s.ratio())) break;
    if (!rejected.empty()) rejected += "; ";
    rejected += std::to_string(s.ratio()) + " (seq trials " + list(seq) +
                " s, pool trials " + list(pool) + " s)";
  }
  throw MeasurementFault("pool speedup on " + std::to_string(workers) +
                         " workers read superlinear or invalid in every "
                         "attempt: " +
                         rejected);
}

void add_pool_metrics(std::vector<Metric>& out, const Speedup& speedup,
                      std::size_t workers, const std::vector<double>& batch_s) {
  add_metric(out, "base.pool_speedup", speedup.ratio(), "ratio",
             speedup.trials, speedup.detail());
  add_metric(out, "base.pool_busy_share",
             speedup.ratio() / static_cast<double>(workers), "ratio",
             speedup.trials, "speedup / workers");
  add_metric(out, "base.pool_last_cell_s",
             *std::max_element(batch_s.begin(), batch_s.end()), "s",
             batch_s.size(), "slowest batch of the traced pass");
}

void add_median_ci(std::vector<Metric>& out, const std::vector<double>& samples,
                   const std::string& key, std::uint64_t seed, Tracer& tracer,
                   sfs::sim::JsonObjectWriter& details) {
  Tracer::Scope span(tracer, "stats.bootstrap");
  sfs::rng::Rng rng(sfs::sim::experiment_stream_seed(seed, "boot"));
  const auto ci = sfs::stats::bootstrap_ci(
      samples,
      [](std::span<const double> x) {
        return sfs::stats::median(x);
      },
      400, 0.05, rng);
  add_metric(out, "stats.bootstrap_s", span.elapsed(), "s", 1,
             "bootstrap CI of the traced pass's median " + key + " latency");
  details.num_field(key + "_p50_ci_lo_ms", ci.lo * 1e3)
      .num_field(key + "_p50_ci_hi_ms", ci.hi * 1e3);
}

void add_churn_metrics(std::vector<Metric>& out,
                       const std::vector<double>& inject_ms,
                       const std::vector<double>& repair_ms,
                       const std::string& detail) {
  for (const auto& [stem, v] :
       {std::pair{"sim.churn_inject_ms", &inject_ms},
        std::pair{"sim.churn_repair_ms", &repair_ms}}) {
    add_metric(out, std::string(stem) + ".median", sfs::stats::median(*v), "ms",
               v->size(), detail);
    add_metric(out, std::string(stem) + ".max",
               *std::max_element(v->begin(), v->end()), "ms", v->size(),
               detail);
  }
}

void add_trace_metrics(std::vector<Metric>& out, double covered_s,
                       double timed_s, double untraced_cost,
                       double traced_cost) {
  const double share = covered_s / timed_s;
  if (!(share >= kMinCoverage)) {
    throw MeasurementFault("library spans cover only " +
                           std::to_string(share) + " of the timed wall");
  }
  add_metric(out, "trace.coverage", share, "ratio", 1);
  add_metric(out, "trace.overhead_share", traced_cost / untraced_cost - 1.0,
             "ratio", 2, "traced vs untraced pass", false);
}

}  // namespace perfbench
