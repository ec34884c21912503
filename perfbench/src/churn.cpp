// churn: lookups served while the overlay mutates underneath them.
//
// A d1-style steady state on a power-law overlay of the lookup family
// (configuration model, gamma 2.3, largest component of n = 2000), rate
// 0.02, edge failures 0.01, departures replaced by 2-edge joins. Each
// round runs ChurnSchedule::inject, then one departure-tolerant batch per
// policy (degree-greedy-strong, random-walk) on Overlay-bound engines,
// then ChurnSchedule::repair (which compacts). The round's queries are
// built between inject and the batches, outside the timed round, and so
// is the 1-worker replay of sampled rounds (run before repair, while the
// overlay epoch is unchanged). Vertex ids are never reused, so the id
// space grows with every join; the loop restarts from the base overlay
// after each trajectory of kRounds rounds to keep the work per round
// stationary.
#include <memory>

#include "compare.hpp"
#include "graph/compressed.hpp"
#include "graph/overlay.hpp"
#include "rng/stream_audit.hpp"
#include "sim/churn.hpp"
#include "sim/experiment.hpp"
#include "sim/json.hpp"
#include "stats/summary.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// d1's smallest overlay and its batch: per policy, 200 lookups per churn
// step, so a round has d1's mix of reads and writes. The base overlay is
// fixed (the lookup workload's overlay seed); the run's seed draws the
// churn events, the queries and the engines' streams.
constexpr std::size_t kN = 2000;      // before component extraction
constexpr std::uint64_t kOverlaySeed = 11;
constexpr std::size_t kBatch = 200;   // queries per policy per round
constexpr std::size_t kRounds = 20;   // rounds per trajectory
constexpr std::size_t kSetupsPerGroup = 100;  // set-ups per setup_s sample
constexpr std::size_t kReplayEvery = 8;  // replay 1 round in 8 of ...
constexpr std::size_t kReplayTrajectories = 1;  // ... the first trajectory
constexpr std::size_t kDispatchCalls = 1000;
constexpr std::size_t kSpeedupBatches = 2;
constexpr std::size_t kSpeedupBlocks = 8;  // of four alternated trials
const char* const kPolicies[2] = {"degree-greedy-strong", "random-walk"};

// The base overlay and everything derived from the seed alone.
struct Base {
  sfs::graph::Graph graph;
  std::uint64_t seed = 0;
  double gen_s = 0.0;
  double component_s = 0.0;
  double engine_init_s = 0.0;
};

// One trajectory: a fresh overlay copy with its own engines.
struct Trajectory {
  std::unique_ptr<sfs::graph::Overlay> overlay;
  std::unique_ptr<sfs::search::QueryEngine> engines[2];
};

sfs::search::QueryEngineOptions engine_options(const Base& base, int p) {
  sfs::search::QueryEngineOptions options;
  options.seed = sfs::sim::experiment_stream_seed(base.seed, kPolicies[p]);
  options.budget.max_raw_requests = 30 * base.graph.num_vertices();
  return options;
}

Trajectory start_trajectory(const Base& base, Tracer& tracer,
                            double* engine_init_s = nullptr) {
  Trajectory t;
  t.overlay = std::make_unique<sfs::graph::Overlay>(base.graph);
  for (int p = 0; p < 2; ++p) {
    Tracer::Scope span(tracer, "search.engine_init");
    t.engines[p] = std::make_unique<sfs::search::QueryEngine>(
        *t.overlay, kPolicies[p], engine_options(base, p));
    // Construction only: the trajectories served never warm their engines
    // (sessions grow in a trajectory's first round), and a pooled warm-up
    // batch here made set-up time mostly the cost of waking idle workers,
    // which moved by a factor of 3 with the host's load.
    if (engine_init_s != nullptr) *engine_init_s += span.elapsed();
  }
  return t;
}

std::unique_ptr<Base> set_up(std::uint64_t seed, Tracer& tracer) {
  auto base = std::make_unique<Base>();
  base->seed = seed;
  sfs::rng::Rng rng(kOverlaySeed);
  PowerLawOverlay overlay = power_law_overlay(kN, rng, tracer);
  base->graph = std::move(overlay.graph);
  base->gen_s = overlay.gen_s;
  base->component_s = overlay.component_s;
  (void)start_trajectory(*base, tracer, &base->engine_init_s);
  return base;
}

std::vector<sfs::search::Query> round_queries(const sfs::graph::Overlay& o,
                                              sfs::rng::Rng& rng) {
  std::vector<sfs::graph::VertexId> alive;
  const auto mask = o.vertex_alive_mask();
  for (std::size_t v = 0; v < mask.size(); ++v) {
    if (mask[v] != 0) alive.push_back(static_cast<sfs::graph::VertexId>(v));
  }
  return random_queries(alive, kBatch, rng);
}

struct Pass {
  Clock::time_point start, end;
  std::vector<double> round_s;       // inject + batches + repair
  std::vector<double> trajectory_s;  // sum of round_s per trajectory
  std::vector<double> batch_s;   // each run_batch call
  std::vector<double> search_s;  // a round's two run_batch calls
  std::vector<double> inject_ms, repair_ms;
  double policy_s[2] = {0.0, 0.0};
  double policy_raw[2] = {0.0, 0.0};
  double failed_probes = 0.0, raw_probes = 0.0, restarts = 0.0;
  std::size_t lookups = 0;
  std::size_t compactions = 0;
  std::size_t sessions_rebuilt = 0;
  std::size_t replayed_batches = 0, replayed_found = 0;
  std::vector<std::string> errors;
  [[nodiscard]] double timed() const {
    double s = 0.0;
    for (double r : round_s) s += r;
    return s;
  }
};

// Serves whole trajectories until `seconds` of timed rounds have passed.
// With `setup_groups`, every trajectory is preceded by a group of
// kSetupsPerGroup set-ups that rebuild `base` (set-up is a function of the
// seed alone, so the base is the same), timed into `setup_groups` and left
// out of the timed rounds. The set-up samples then span the whole run
// instead of its first second, in which the host's speed can swing by a
// factor of 2 or more.
Pass serve(std::unique_ptr<Base>& base, double seconds, Tracer& tracer,
           std::vector<double>* setup_groups) {
  Pass pass;
  const std::uint64_t seed = base->seed;
  const sfs::sim::ChurnSchedule schedule(
      churn_params(), sfs::sim::experiment_stream_seed(seed, "churn"));
  const std::uint64_t round_stream = sfs::rng::mix64(0x0d1ULL);
  std::vector<sfs::search::SearchResult> results(kBatch), again(kBatch);
  const std::size_t offset = seed % kReplayEvery;
  // Steps and queries continue across trajectories (step = traj * kRounds
  // + r), so every trajectory serves new traffic, yet the whole pass stays
  // a pure function of the seed.
  sfs::rng::Rng qrng(sfs::sim::experiment_stream_seed(seed, "queries"));
  Tracer untraced(false);
  pass.start = Clock::now();
  for (std::size_t traj = 0;; ++traj) {
    if (setup_groups != nullptr) {
      setup_groups->push_back(setup_group_seconds(kSetupsPerGroup, [&] {
        base.reset();
        const auto t0 = Clock::now();
        base = set_up(seed, untraced);
        return seconds_between(t0, Clock::now());
      }));
    }
    Trajectory t;
    {
      Tracer::Scope span(tracer, "bench.trajectory_reset",
                         static_cast<std::int64_t>(traj));
      t = start_trajectory(*base, tracer);
    }
    double traj_s = 0.0;
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      const std::uint64_t step = traj * kRounds + r;
      const auto id = static_cast<std::int64_t>(step);
      // The round is timed wall from inject to repair, less the untimed
      // query building and replays.
      const auto round_start = Clock::now();
      double untimed = 0.0;
      sfs::sim::ChurnStepStats stats;
      {
        Tracer::Scope span(tracer, "sim.churn_inject", id);
        stats = schedule.inject(*t.overlay, step);
        pass.inject_ms.push_back(span.elapsed() * 1e3);
      }
      std::vector<sfs::search::Query> queries;
      {
        Tracer::Scope span(tracer, "bench.build_queries", id);
        queries = round_queries(*t.overlay, qrng);
        untimed += span.elapsed();
      }
      const bool replay =
          traj < kReplayTrajectories && r % kReplayEvery == offset;
      double search = 0.0;
      for (int p = 0; p < 2; ++p) {
        t.engines[p]->set_seed(sfs::rng::audited_stream_seed(
            sfs::sim::experiment_stream_seed(seed, kPolicies[p]),
            round_stream, step));
        double secs = 0.0;
        {
          Tracer::Scope span(tracer, "search.run_batch", id);
          try {
            t.engines[p]->run_batch(queries, results, 0);
          } catch (const std::exception& e) {
            pass.errors.push_back("churn round " + std::to_string(step) +
                                  " " + kPolicies[p] + " threw: " + e.what());
            results.assign(kBatch, {});
          }
          secs = span.elapsed();
        }
        pass.batch_s.push_back(secs);
        search += secs;
        pass.policy_s[p] += secs;
        for (const auto& res : results) {
          pass.policy_raw[p] += static_cast<double>(res.raw_requests);
          pass.raw_probes += static_cast<double>(res.raw_requests);
          pass.failed_probes += static_cast<double>(res.failed_requests);
          pass.restarts += static_cast<double>(res.restarts);
        }
        pass.lookups += kBatch;
        if (replay) {
          // Before repair: the overlay epoch the batch saw is unchanged.
          Tracer::Scope span(tracer, "bench.replay", id);
          try {
            t.engines[p]->run_batch(queries, again, 1);
            if (auto diff = first_mismatch(results, again)) {
              pass.errors.push_back("churn round " + std::to_string(step) +
                                    " " + kPolicies[p] + ": " + *diff);
            }
          } catch (const std::exception& e) {
            pass.errors.push_back("churn round " + std::to_string(step) +
                                  " replay threw: " + e.what());
          }
          ++pass.replayed_batches;
          for (const auto& res : again) pass.replayed_found += res.found;
          untimed += span.elapsed();
        }
      }
      pass.search_s.push_back(search);
      {
        Tracer::Scope span(tracer, "sim.churn_repair", id);
        schedule.repair(*t.overlay, step, stats);
        pass.repair_ms.push_back(span.elapsed() * 1e3);
      }
      const double round = seconds_between(round_start, Clock::now()) - untimed;
      pass.round_s.push_back(round);
      traj_s += round;
    }
    pass.trajectory_s.push_back(traj_s);
    pass.compactions += t.overlay->compactions();
    pass.sessions_rebuilt +=
        t.engines[0]->sessions_rebuilt() + t.engines[1]->sessions_rebuilt();
    if (traj + 1 >= kReplayTrajectories && pass.timed() >= seconds) break;
  }
  pass.end = Clock::now();
  return pass;
}

}  // namespace

Outcome run_churn(const RunOptions& opts, Tracer& tracer) {
  Outcome out;
  out.stream_plan = sfs::rng::stream_plan_number(
      sfs::search::QueryEngineOptions{}.stream_plan);
  // The first set-up is traced (the per-layer set-up spans) but not
  // timed into setup_s: the untraced pass times set-ups between its
  // trajectories.
  std::unique_ptr<Base> base = set_up(opts.seed, tracer);
  std::vector<double> setup_s;
  Tracer untraced(false);
  Pass timed, traced;
  if (!opts.trace) {
    timed = serve(base, opts.seconds, untraced, &setup_s);
  } else if (opts.seed % 2 == 0) {
    timed = serve(base, opts.seconds / 2, untraced, &setup_s);
    traced = serve(base, opts.seconds / 2, tracer, nullptr);
  } else {
    traced = serve(base, opts.seconds / 2, tracer, nullptr);
    timed = serve(base, opts.seconds / 2, untraced, &setup_s);
  }
  out.attempted = timed.round_s.size() + traced.round_s.size();
  for (const Pass* p : {&timed, &traced}) {
    out.failed += p->errors.size();
    out.errors.insert(out.errors.end(), p->errors.begin(), p->errors.end());
  }

  auto& e2e = out.end_to_end;
  add_setup_metric(e2e, setup_s, kSetupsPerGroup);
  add_metric(e2e, "peak_rss_mib", peak_rss_mib(), "MiB", 1);
  add_metric(e2e, "sweep_s", sfs::stats::median(timed.trajectory_s), "s",
             timed.trajectory_s.size(),
             "median timed seconds of one " + std::to_string(kRounds) +
                 "-round trajectory");
  add_metric(e2e, "lookups_per_s",
             static_cast<double>(timed.lookups) / timed.timed(), "1/s",
             timed.lookups, "over the timed rounds");
  // The two policies' batch latencies form two separate modes; the median
  // of their mixture falls in the gap between them and jumps from run to
  // run, so a churn "batch" is the round's search phase: both calls.
  add_latency_pair(e2e, "batch", timed.search_s);
  add_latency_pair(e2e, "round", timed.round_s);

  sfs::sim::JsonObjectWriter details;
  details.int_field("peers", base->graph.num_vertices())
      .int_field("links", base->graph.num_edges())
      .int_field("batch_queries", kBatch)
      .int_field("rounds_per_trajectory", kRounds)
      .int_field("replayed_batches", timed.replayed_batches)
      .int_field("replayed_found", timed.replayed_found)
      .int_field("replayed_lookups", timed.replayed_batches * kBatch);
  if (!opts.trace) {
    out.details_json = details.str();
    return out;
  }

  const auto spans = tracer.spans();
  auto& pl = out.per_layer;
  add_metric(pl, "gen.self_s", base->gen_s, "s", 1, "set-up generation");
  add_metric(pl, "gen.mvertices_per_s",
             static_cast<double>(kN) / base->gen_s / 1e6, "Mvertex/s", 1);
  add_metric(pl, "gen.overlay_s", base->gen_s, "s", 1);
  add_metric(pl, "graph.component_s", base->component_s, "s", 1);
  add_metric(pl, "graph.csr_mib",
             static_cast<double>(sfs::graph::graph_memory_bytes(base->graph)) /
                 (1024.0 * 1024.0),
             "MiB", 1, "base overlay");
  add_metric(pl, "search.self_s",
             self_seconds_in(spans, "search.run_batch", traced.start,
                             traced.end),
             "s", traced.batch_s.size());
  add_metric(pl, "search.engine_init_s", base->engine_init_s, "s", 2);
  add_metric(pl, "search.weak_mprobes_per_s",
             traced.policy_raw[1] / traced.policy_s[1] / 1e6, "Mprobe/s",
             traced.batch_s.size() / 2, "random-walk batches");
  add_metric(pl, "search.strong_mprobes_per_s.degree-greedy-strong",
             traced.policy_raw[0] / traced.policy_s[0] / 1e6, "Mprobe/s",
             traced.batch_s.size() / 2);
  add_metric(pl, "search.failed_probe_share",
             traced.failed_probes / traced.raw_probes, "ratio",
             traced.lookups, {}, false);
  add_metric(pl, "search.restarts_per_lookup",
             traced.restarts / static_cast<double>(traced.lookups), "ratio",
             traced.lookups, {}, false);
  add_metric(pl, "graph.compactions", static_cast<double>(traced.compactions),
             "count", traced.round_s.size(), {}, false);
  add_metric(pl, "search.sessions_rebuilt",
             static_cast<double>(traced.sessions_rebuilt), "count",
             traced.round_s.size(), {}, false);
  add_churn_metrics(pl, traced.inject_ms, traced.repair_ms, "traced pass");

  {
    // Dispatch and speedup on a fresh, fully live overlay.
    Tracer::Scope span(tracer, "bench.probes");
    Trajectory t = start_trajectory(*base, tracer);
    add_metric(pl, "search.engine_dispatch_us",
               dispatch_probe_us(*t.engines[0], t.overlay->snapshot(),
                                 sfs::sim::experiment_stream_seed(
                                     opts.seed, "dispatch"),
                                 kDispatchCalls, tracer),
               "us", kDispatchCalls, "median");
    sfs::rng::Rng qrng(sfs::sim::experiment_stream_seed(opts.seed, "speedup"));
    std::vector<std::vector<sfs::search::Query>> batches;
    for (std::size_t b = 0; b < kSpeedupBatches; ++b) {
      batches.push_back(round_queries(*t.overlay, qrng));
    }
    const Speedup speedup = measure_speedup(
        [&](std::size_t threads) {
          std::vector<sfs::search::SearchResult> r(kBatch);
          for (const auto& q : batches) {
            for (int p = 0; p < 2; ++p) t.engines[p]->run_batch(q, r, threads);
          }
        },
        opts.seed, opts.workers, kSpeedupBlocks, tracer);
    add_pool_metrics(pl, speedup, opts.workers, traced.batch_s);
  }

  add_median_ci(pl, traced.round_s, "round", opts.seed, tracer, details);

  const LayerProbe probe = run_layer_probe(opts.seed, tracer);
  add_metric(pl, "search.strong_mprobes_per_s.bfs-strong",
             probe.strong_mprobes_per_s_bfs, "Mprobe/s", 1, "layer probe");

  // The timed rounds exclude query building and replays, which run in
  // bench spans that covered_seconds leaves out.
  const double covered = covered_seconds(spans, traced.start, traced.end);
  add_metric(pl, "sim.harness_s", traced.timed() - covered, "s", 1,
             "timed round wall outside library calls");
  add_trace_metrics(pl, covered, traced.timed(),
                    timed.timed() / static_cast<double>(timed.lookups),
                    traced.timed() / static_cast<double>(traced.lookups));
  out.details_json = details.str();
  return out;
}

}  // namespace perfbench
