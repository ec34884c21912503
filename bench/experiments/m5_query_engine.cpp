// M5 — batched fixed-graph lookups through search::QueryEngine.
//
// The sim/ harnesses measure one query per freshly generated graph; this
// experiment runs the opposite regime — the one P2P resource-discovery
// deployments actually run (Adamic et al.; the resource-discovery systems
// in PAPERS.md): ONE long-lived power-law overlay serving a batch of many
// lookups. For each selected policy it builds a QueryEngine session over
// the same overlay and runs the identical query batch twice — sequentially
// (threads=1) and fanned out over the shared pool (threads=0) — reporting
// the lookup quality (found fraction, mean charged requests). Batch
// throughput is measured by perfbench's `lookup` workload, not here.
//
// Audit: the engine derives each query's RNG stream from (session seed,
// batch index) only, so the sequential and pooled runs must agree
// bit-for-bit on every per-query SearchResult; any divergence exits 1
// (the same pattern as m3's sequential-vs-parallel audit). Under
// SFS_RNG_AUDIT=1 every per-query derivation is collision-checked.
#include <string>
#include <vector>

#include "gen/config_model.hpp"
#include "graph/algorithms.hpp"
#include "search/query_engine.hpp"
#include "sim/experiment.hpp"
#include "sim/json.hpp"
#include "sim/table.hpp"

namespace {

using sfs::graph::VertexId;
using sfs::search::Query;
using sfs::search::SearchResult;
using sfs::sim::ExperimentContext;

bool same_results(const std::vector<SearchResult>& a,
                  const std::vector<SearchResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].found != b[i].found || a[i].requests != b[i].requests ||
        a[i].raw_requests != b[i].raw_requests ||
        a[i].path_length != b[i].path_length ||
        a[i].budget_exhausted != b[i].budget_exhausted ||
        a[i].gave_up != b[i].gave_up) {
      return false;
    }
  }
  return true;
}

int run_m5(ExperimentContext& ctx) {
  const std::size_t n = ctx.n_or(ctx.options.quick ? 4000 : 20000);
  const std::size_t batch = ctx.reps_or(ctx.options.quick ? 200 : 2000);
  // Default portfolio of deployable lookup strategies: the Adamic
  // high-degree search, plain ball-growing, and the blind walk baseline.
  std::vector<std::string> policies = ctx.options.policies;
  if (policies.empty()) {
    policies = {"degree-greedy-strong", "bfs-strong", "random-walk"};
  }

  ctx.console() << "M5: batched lookups on ONE fixed power-law overlay "
                   "(QueryEngine), n="
                << n << ", batch of " << batch << " queries.\n\n";

  // One overlay for the whole experiment: power-law configuration graph,
  // largest component (the p2p_lookup scenario's graph).
  sfs::rng::Rng overlay_rng(ctx.stream_seed("overlay"));
  const auto full = sfs::gen::power_law_configuration_graph(
      n, sfs::gen::PowerLawSequenceParams{2.3, 1, 0},
      sfs::gen::ConfigModelOptions{false}, overlay_rng);
  const auto overlay = sfs::graph::largest_component(full).graph;
  const std::size_t peers = overlay.num_vertices();
  ctx.console() << "overlay (largest component): " << peers << " peers, "
                << overlay.num_edges() << " links\n\n";

  // One query batch, shared by every policy (paired comparison).
  sfs::rng::Rng query_rng(ctx.stream_seed("queries"));
  std::vector<Query> queries(batch);
  for (auto& q : queries) {
    q.target = static_cast<VertexId>(query_rng.uniform_index(peers));
    do {
      q.start = static_cast<VertexId>(query_rng.uniform_index(peers));
    } while (q.start == q.target);
  }

  sfs::sim::Table t("M5: batch of " + std::to_string(batch) +
                        " lookups, seq vs pool",
                    {"policy", "model", "mean requests", "found frac",
                     "identical"});
  int exit_code = 0;
  for (const auto& name : policies) {
    sfs::search::QueryEngineOptions options;
    options.seed = ctx.stream_seed("session " + name);
    options.budget.max_raw_requests = 50 * peers;
    sfs::search::QueryEngine engine(overlay, name, options);

    const auto seq = engine.run_batch(queries, /*threads=*/1);
    const auto pooled = engine.run_batch(queries, ctx.threads());
    const bool identical = same_results(seq, pooled);
    if (!identical) {
      ctx.console() << "AUDIT FAILURE: policy '" << name
                    << "': pooled batch diverged from the sequential "
                       "batch\n";
      exit_code = 1;
    }

    double requests = 0.0;
    std::size_t found = 0;
    for (const auto& r : seq) {
      requests += static_cast<double>(r.requests);
      if (r.found) ++found;
    }
    const double d_batch = static_cast<double>(batch);
    const double mean_requests = requests / d_batch;
    const double found_frac = static_cast<double>(found) / d_batch;
    t.row()
        .cell(name)
        .cell(std::string(sfs::search::model_name(engine.model())))
        .num(mean_requests, 1)
        .num(found_frac, 2)
        .cell(identical ? "yes" : "NO");

    sfs::sim::JsonObjectWriter json;
    json.str_field("bench", "m5_query_engine");
    json.str_field("policy", name);
    json.str_field("model", std::string(sfs::search::model_name(engine.model())));
    json.int_field("n", peers);
    json.int_field("queries", batch);
    json.num_field("mean_requests", mean_requests);
    json.num_field("found_frac", found_frac);
    json.bool_field("bit_identical", identical);
    // Provenance: which stream-plan version derived the per-query streams
    // (rng/stream_plan.hpp) — what an external replayer must configure to
    // reproduce them.
    json.int_field("stream_plan",
                   sfs::rng::stream_plan_number(options.stream_plan));
    ctx.emitter->emit_object(json.str());
  }
  t.print(ctx.console());
  ctx.console() << "\nAudit: per-query streams depend only on (session "
                   "seed, batch index), so seq and pool runs are "
                << (exit_code == 0 ? "bit-identical (verified)"
                                   : "DIVERGENT (failure)")
                << ".\n";
  return exit_code;
}

const sfs::sim::ExperimentRegistrar reg_m5({
    .name = "m5_query_engine",
    .title = "QueryEngine: batched lookups on one fixed overlay",
    .claim = "A session-owning batch runner serves fixed-graph lookup "
             "traffic with bit-identical seq/parallel results",
    .caps = sfs::sim::kCapQuick | sfs::sim::kCapSingleSize |
            sfs::sim::kCapReps | sfs::sim::kCapSeed | sfs::sim::kCapThreads |
            sfs::sim::kCapPolicies,
    .params =
        {
            {"--n", "size", "20000 (quick: 4000)",
             "overlay size before largest-component extraction"},
            {"--reps", "count", "2000 (quick: 200)",
             "queries per batch"},
            {"--seed", "u64 seed", "derived from name",
             "base seed; overlay/query/session streams derive from it"},
            {"--threads", "count", "0 (shared pool)",
             "worker count of the pooled batch run"},
            {"--policies", "name list",
             "degree-greedy-strong,bfs-strong,random-walk",
             "registered policies to serve the batch with"},
        },
    .run = run_m5,
});

}  // namespace
