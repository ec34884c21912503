// lookup: one warm power-law overlay served in many short batches.
//
// Set-up generates the m5/p2p_lookup graph (configuration model, gamma
// 2.3, largest component of n = 100000, from a fixed overlay seed) and
// binds one QueryEngine per policy. The closed loop then alternates
// degree-greedy-strong and bfs-strong run_batch calls of 60 queries on the
// shared pool, both policies serving the same batch (one round). Every round serves a batch not served
// before in the run (a ring of kRing batches, more than a window uses), so
// the latency tail is the query distribution's, not a few repeated
// batches'. Generation happens only in set-up.
#include <memory>
#include <numeric>

#include "graph/compressed.hpp"
#include "compare.hpp"
#include "sim/experiment.hpp"
#include "sim/json.hpp"
#include "stats/summary.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kN = 100000;        // before component extraction
// The overlay is the deployment and stays fixed, as a real network does:
// examples/p2p_lookup's default seed. The run's seed draws the traffic.
constexpr std::uint64_t kOverlaySeed = 11;
constexpr std::size_t kBatch = 60;        // queries per run_batch call, as
                                          // in examples/p2p_lookup
constexpr std::size_t kRing = 1024;       // distinct query batches
constexpr std::size_t kBlock = 16;        // rounds per sweep_s block
constexpr std::size_t kSetupsPerGroup = 4;  // set-ups per setup_s sample
constexpr std::size_t kReplayEvery = 32;  // replay 1 in 32 batches ...
constexpr std::size_t kMaxReplays = 8;    // ... up to this many
constexpr std::size_t kDispatchCalls = 1000;
constexpr std::size_t kSpeedupRounds = 4;
constexpr std::size_t kSpeedupBlocks = 4;  // of four alternated trials
const char* const kPolicies[2] = {"degree-greedy-strong", "bfs-strong"};

struct State {
  sfs::graph::Graph graph;
  std::unique_ptr<sfs::search::QueryEngine> engines[2];
  std::vector<std::vector<sfs::search::Query>> ring;
  double gen_s = 0.0;
  double component_s = 0.0;
  double engine_init_s = 0.0;
};

std::unique_ptr<State> set_up(std::uint64_t seed, Tracer& tracer) {
  auto st = std::make_unique<State>();
  sfs::rng::Rng rng(kOverlaySeed);
  PowerLawOverlay overlay = power_law_overlay(kN, rng, tracer);
  st->graph = std::move(overlay.graph);
  st->gen_s = overlay.gen_s;
  st->component_s = overlay.component_s;
  std::vector<sfs::graph::VertexId> peers(st->graph.num_vertices());
  std::iota(peers.begin(), peers.end(), sfs::graph::VertexId{0});
  sfs::rng::Rng qrng(sfs::sim::experiment_stream_seed(seed, "lookup queries"));
  for (std::size_t b = 0; b < kRing; ++b) {
    st->ring.push_back(random_queries(peers, kBatch, qrng));
  }
  const sfs::search::Query warm_query = adjacent_query(st->graph);
  sfs::search::SearchResult warm;
  for (int p = 0; p < 2; ++p) {
    sfs::search::QueryEngineOptions options;
    options.seed = sfs::sim::experiment_stream_seed(seed, kPolicies[p]);
    options.budget.max_raw_requests = 50 * st->graph.num_vertices();
    // Construction plus one batch on the pool: sessions are grown lazily,
    // so the first batch is part of binding an engine.
    Tracer::Scope span(tracer, "search.engine_init");
    st->engines[p] = std::make_unique<sfs::search::QueryEngine>(
        st->graph, kPolicies[p], options);
    st->engines[p]->run_batch(std::span(&warm_query, 1), std::span(&warm, 1),
                              0);
    st->engine_init_s += span.elapsed();
  }
  return st;
}

struct Pass {
  Clock::time_point start, end;
  std::vector<double> batch_s;
  std::vector<double> round_s;
  std::vector<double> block_s;  // their sum is the serving time
  double served = 0.0;          // seconds, set-up groups left out
  double policy_s[2] = {0.0, 0.0};
  double policy_raw[2] = {0.0, 0.0};
  std::size_t lookups = 0;
  // Sampled batches kept for the 1-worker replay: (served index, results).
  std::vector<std::pair<std::size_t, std::vector<sfs::search::SearchResult>>>
      kept;
  std::vector<std::string> errors;  // batches that threw
  [[nodiscard]] double wall() const { return seconds_between(start, end); }
};

// Serves whole blocks of kBlock rounds until `seconds` of serving time
// have passed. With `setup_groups`, every block is preceded by a group of
// kSetupsPerGroup set-ups that rebuild `st` (set-up is a function of the
// seed alone, so the state is the same), timed into `setup_groups` and
// left out of the serving time. The set-up samples then span the whole
// run instead of its first second, in which the host's speed can swing
// by a factor of 2 or more.
Pass serve(std::unique_ptr<State>& st, double seconds, std::uint64_t seed,
           Tracer& tracer, std::vector<double>* setup_groups) {
  Pass pass;
  std::vector<sfs::search::SearchResult> results(kBatch);
  const std::size_t offset = seed % kReplayEvery;
  Tracer untraced(false);
  pass.start = Clock::now();
  for (std::size_t i = 0; pass.served < seconds;) {
    if (setup_groups != nullptr) {
      setup_groups->push_back(setup_group_seconds(kSetupsPerGroup, [&] {
        st.reset();
        const auto t0 = Clock::now();
        st = set_up(seed, untraced);
        return seconds_between(t0, Clock::now());
      }));
    }
    const auto block_start = Clock::now();
    auto round_start = block_start;
    for (std::size_t end = i + 2 * kBlock; i < end; ++i) {
      const std::size_t p = i % 2;
      const auto& batch = st->ring[(i / 2) % kRing];
      double secs = 0.0;
      {
        Tracer::Scope span(tracer, "search.run_batch",
                           static_cast<std::int64_t>(i));
        try {
          st->engines[p]->run_batch(batch, results, 0);
        } catch (const std::exception& e) {
          pass.errors.push_back("lookup batch " + std::to_string(i) +
                                " threw: " + e.what());
          results.assign(kBatch, {});
        }
        secs = span.elapsed();
      }
      pass.batch_s.push_back(secs);
      pass.policy_s[p] += secs;
      for (const auto& r : results) {
        pass.policy_raw[p] += static_cast<double>(r.raw_requests);
      }
      pass.lookups += kBatch;
      if (i % kReplayEvery == offset && pass.kept.size() < kMaxReplays) {
        pass.kept.emplace_back(i, results);
      }
      if (p == 1) {
        const auto now = Clock::now();
        pass.round_s.push_back(seconds_between(round_start, now));
        round_start = now;
      }
    }
    pass.block_s.push_back(seconds_between(block_start, Clock::now()));
    pass.served += pass.block_s.back();
  }
  pass.end = Clock::now();
  return pass;
}

std::vector<Metric> end_to_end(const std::vector<double>& setup_s,
                               const Pass& pass) {
  std::vector<Metric> m;
  add_setup_metric(m, setup_s, kSetupsPerGroup);
  add_metric(m, "peak_rss_mib", peak_rss_mib(), "MiB", 1);
  add_metric(m, "sweep_s", sfs::stats::median(pass.block_s), "s",
             pass.block_s.size(),
             "median time of a block of " + std::to_string(kBlock) +
                 " rounds");
  add_metric(m, "lookups_per_s",
             static_cast<double>(pass.lookups) / pass.served, "1/s",
             pass.lookups, "over the serving time");
  add_latency_pair(m, "batch", pass.batch_s);
  add_latency_pair(m, "round", pass.round_s);
  return m;
}

}  // namespace

Outcome run_lookup(const RunOptions& opts, Tracer& tracer) {
  Outcome out;
  out.stream_plan = sfs::rng::stream_plan_number(
      sfs::search::QueryEngineOptions{}.stream_plan);
  // The first set-up is traced (the per-layer set-up spans) but not
  // timed into setup_s: the untraced pass times set-ups between its
  // blocks.
  std::unique_ptr<State> st = set_up(opts.seed, tracer);
  std::vector<double> setup_s;
  Tracer untraced(false);
  Pass timed;  // the untraced pass: end-to-end metrics
  Pass traced;
  if (!opts.trace) {
    timed = serve(st, opts.seconds, opts.seed, untraced, &setup_s);
  } else if (opts.seed % 2 == 0) {
    timed = serve(st, opts.seconds / 2, opts.seed, untraced, &setup_s);
    traced = serve(st, opts.seconds / 2, opts.seed, tracer, nullptr);
  } else {
    traced = serve(st, opts.seconds / 2, opts.seed, tracer, nullptr);
    timed = serve(st, opts.seconds / 2, opts.seed, untraced, &setup_s);
  }
  out.end_to_end = end_to_end(setup_s, timed);
  out.attempted = timed.batch_s.size() + traced.batch_s.size();
  for (const Pass* pass : {&timed, &traced}) {
    out.failed += pass->errors.size();
    out.errors.insert(out.errors.end(), pass->errors.begin(),
                      pass->errors.end());
  }

  // Correctness: replay the sampled batches on one worker. The found
  // count is over the untraced pass's sample only, a fixed set of batches.
  std::size_t replayed = 0;
  std::size_t found = 0;
  std::vector<sfs::search::SearchResult> again(kBatch);
  for (const Pass* pass : {&timed, &traced}) {
    for (const auto& [i, results] : pass->kept) {
      try {
        st->engines[i % 2]->run_batch(st->ring[(i / 2) % kRing], again, 1);
        if (auto diff = first_mismatch(results, again)) {
          ++out.failed;
          out.errors.push_back("lookup batch " + std::to_string(i) + ": " +
                               *diff);
        }
      } catch (const std::exception& e) {
        ++out.failed;
        out.errors.push_back("lookup batch " + std::to_string(i) +
                             " replay threw: " + e.what());
      }
      if (pass == &timed) {
        ++replayed;
        for (const auto& r : again) found += r.found ? 1 : 0;
      }
    }
  }

  sfs::sim::JsonObjectWriter details;
  details.int_field("peers", st->graph.num_vertices())
      .int_field("links", st->graph.num_edges())
      .int_field("batch_queries", kBatch)
      .int_field("block_rounds", kBlock)
      .int_field("replayed_batches", replayed)
      .int_field("replayed_found", found)
      .int_field("replayed_lookups", replayed * kBatch);
  if (!opts.trace) {
    out.details_json = details.str();
    return out;
  }

  // ------------------------------------------------------- per-layer
  const auto spans = tracer.spans();
  auto& pl = out.per_layer;
  const double gen_s = st->gen_s;
  add_metric(pl, "gen.self_s", gen_s, "s", 1, "set-up generation");
  add_metric(pl, "gen.mvertices_per_s", static_cast<double>(kN) / gen_s / 1e6,
             "Mvertex/s", 1);
  add_metric(pl, "gen.overlay_s", gen_s, "s", 1);
  add_metric(pl, "graph.component_s", st->component_s, "s", 1);
  add_metric(pl, "graph.csr_mib",
             static_cast<double>(sfs::graph::graph_memory_bytes(st->graph)) /
                 (1024.0 * 1024.0),
             "MiB", 1, "the overlay's CSR");
  add_metric(pl, "search.self_s",
             self_seconds_in(spans, "search.", traced.start, traced.end), "s",
             traced.batch_s.size());
  add_metric(pl, "search.engine_init_s", st->engine_init_s, "s", 2);
  for (int p = 0; p < 2; ++p) {
    add_metric(pl, std::string("search.strong_mprobes_per_s.") + kPolicies[p],
               traced.policy_raw[p] / traced.policy_s[p] / 1e6, "Mprobe/s",
               traced.batch_s.size() / 2);
  }
  add_metric(pl, "search.engine_dispatch_us",
             dispatch_probe_us(*st->engines[0], st->graph,
                               sfs::sim::experiment_stream_seed(opts.seed,
                                                                "dispatch"),
                               kDispatchCalls, tracer),
             "us", kDispatchCalls, "median");
  // Strong-only workload: no failed probes, restarts, overlay or
  // sessions to rebuild; these read 0 by construction.
  add_metric(pl, "search.failed_probe_share", 0.0, "ratio", timed.lookups, {},
             false);
  add_metric(pl, "search.restarts_per_lookup", 0.0, "ratio", timed.lookups,
             {}, false);
  add_metric(pl, "graph.compactions", 0.0, "count", 1, {}, false);
  add_metric(pl, "search.sessions_rebuilt",
             static_cast<double>(st->engines[0]->sessions_rebuilt() +
                                 st->engines[1]->sessions_rebuilt()),
             "count", 2, {}, false);

  // 1-worker vs pool on the same 16 rounds, order alternated.
  const Speedup speedup = measure_speedup(
      [&](std::size_t threads) {
        std::vector<sfs::search::SearchResult> r(kBatch);
        for (std::size_t b = 0; b < kSpeedupRounds; ++b) {
          for (int p = 0; p < 2; ++p) {
            st->engines[p]->run_batch(st->ring[b], r, threads);
          }
        }
      },
      opts.seed, opts.workers, kSpeedupBlocks, tracer);
  add_pool_metrics(pl, speedup, opts.workers, traced.batch_s);

  add_median_ci(pl, traced.batch_s, "batch", opts.seed, tracer, details);

  const LayerProbe probe = run_layer_probe(opts.seed, tracer);
  add_metric(pl, "search.weak_mprobes_per_s", probe.weak_mprobes_per_s,
             "Mprobe/s", 1, "layer probe");
  add_churn_metrics(pl, probe.inject_ms, probe.repair_ms, "layer probe");

  const double covered = covered_seconds(spans, traced.start, traced.end);
  add_metric(pl, "sim.harness_s", traced.wall() - covered, "s", 1,
             "timed wall outside library calls");
  add_trace_metrics(pl, covered, traced.wall(),
                    timed.served / static_cast<double>(timed.lookups),
                    traced.served / static_cast<double>(traced.lookups));
  out.details_json = details.str();
  return out;
}

}  // namespace perfbench
