// M2 — search-layer throughput microbenchmarks (google-benchmark), driven
// through the experiment registry (see m1_generators.cpp for the gbench
// glue; excluded from the smoke loop for the same reason).
#include <benchmark/benchmark.h>

#include "gbench_support.hpp"
#include "gen/mori.hpp"
#include "search/runner.hpp"
#include "search/strong_algorithms.hpp"
#include "search/weak_algorithms.hpp"

namespace {

sfs::graph::Graph test_graph(std::size_t n) {
  sfs::rng::Rng rng(42);
  return sfs::gen::merged_mori_graph(n, 2, sfs::gen::MoriParams{0.5}, rng);
}

void BM_WeakBfsFullSearch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = test_graph(n);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sfs::search::BfsWeak bfs;
    sfs::rng::Rng rng(seed++);
    auto r = sfs::search::run_weak(
        g, 0, static_cast<sfs::graph::VertexId>(n - 1), bfs, rng);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_WeakBfsFullSearch)->Arg(1 << 12)->Arg(1 << 15);

// The replication-engine hot path: same search, but the O(n+m) per-run
// state lives in a reused SearchWorkspace (O(1) epoch reset), as in
// sim/sweep's per-worker loops.
void BM_WeakBfsFullSearchWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = test_graph(n);
  sfs::search::SearchWorkspace ws;
  sfs::search::BfsWeak bfs;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sfs::rng::Rng rng(seed++);
    auto r = sfs::search::run_weak(
        g, 0, static_cast<sfs::graph::VertexId>(n - 1), bfs, rng, {}, &ws);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_WeakBfsFullSearchWorkspace)->Arg(1 << 12)->Arg(1 << 15);

void BM_WeakDegreeGreedy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = test_graph(n);
  std::uint64_t seed = 2;
  for (auto _ : state) {
    auto greedy = sfs::search::make_degree_greedy_weak();
    sfs::rng::Rng rng(seed++);
    auto r = sfs::search::run_weak(
        g, 0, static_cast<sfs::graph::VertexId>(n - 1), *greedy, rng);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_WeakDegreeGreedy)->Arg(1 << 12)->Arg(1 << 15);

void BM_RandomWalkSteps(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = test_graph(n);
  std::uint64_t seed = 3;
  constexpr std::size_t kSteps = 100000;
  for (auto _ : state) {
    sfs::search::RandomWalkWeak walk;
    sfs::rng::Rng rng(seed++);
    auto r = sfs::search::run_weak(
        g, 0, static_cast<sfs::graph::VertexId>(n - 1), walk, rng,
        sfs::search::RunBudget{.max_raw_requests = kSteps});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSteps));
}
BENCHMARK(BM_RandomWalkSteps)->Arg(1 << 14);

void BM_StrongDegreeGreedy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = test_graph(n);
  std::uint64_t seed = 4;
  for (auto _ : state) {
    auto greedy = sfs::search::make_degree_greedy_strong();
    sfs::rng::Rng rng(seed++);
    auto r = sfs::search::run_strong(
        g, 0, static_cast<sfs::graph::VertexId>(n - 1), *greedy, rng);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StrongDegreeGreedy)->Arg(1 << 12)->Arg(1 << 15);

void BM_StrongDegreeGreedyWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = test_graph(n);
  sfs::search::SearchWorkspace ws;
  const auto greedy = sfs::search::make_degree_greedy_strong();
  std::uint64_t seed = 4;
  for (auto _ : state) {
    sfs::rng::Rng rng(seed++);
    auto r = sfs::search::run_strong(
        g, 0, static_cast<sfs::graph::VertexId>(n - 1), *greedy, rng, {},
        &ws);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StrongDegreeGreedyWorkspace)->Arg(1 << 12)->Arg(1 << 15);

int run_m2(sfs::sim::ExperimentContext& ctx) {
  return sfs::bench::run_gbench_experiment(
      ctx,
      "^BM_(WeakBfsFullSearch|WeakBfsFullSearchWorkspace|WeakDegreeGreedy|"
      "RandomWalkSteps|StrongDegreeGreedy|StrongDegreeGreedyWorkspace)/");
}

const sfs::sim::ExperimentRegistrar reg_m2({
    .name = "m2",
    .title = "Search-layer throughput microbenchmarks (google-benchmark)",
    .claim = "Machine benchmark: weak/strong search hot paths, with and "
             "without workspace reuse",
    .caps = sfs::sim::kCapQuick | sfs::sim::kCapGbenchFlags,
    .smoke = false,
    .params =
        {
            {"--quick", "flag", "off",
             "reduce --benchmark_min_time to 0.05s"},
            {"--benchmark_*", "passthrough", "-",
             "forwarded verbatim to google-benchmark (last one wins)"},
        },
    .run = run_m2,
});

}  // namespace
