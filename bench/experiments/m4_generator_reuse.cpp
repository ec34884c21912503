// M4 — reusable generation subsystem: a bit-identity audit of the
// scratch-reusing generator overloads.
//
// For each of the seven generators, runs `reps` replications through both
// the fresh path (every replication allocates its preference bags, stub
// lists, weight tables, dedup sets and CSR arrays from scratch) and the
// gen::GenScratch overloads (all buffers recycled across replications,
// CSR arrays rebuilt in place via GraphBuilder::build_into), and audits
// that the two paths produce bit-identical graphs for every replication —
// the scratch overloads are a pure performance transform (same pattern as
// m3's sequential-vs-parallel audit). Generation throughput is measured
// by perfbench (`gen.mvertices_per_s`), not here.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "gen/config_model.hpp"
#include "gen/cooper_frieze.hpp"
#include "gen/degree_sequence.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/kleinberg.hpp"
#include "gen/mori.hpp"
#include "gen/scratch.hpp"
#include "rng/random.hpp"
#include "sim/experiment.hpp"
#include "sim/json.hpp"
#include "sim/table.hpp"

namespace {

using sfs::gen::GenScratch;
using sfs::graph::Graph;
using sfs::rng::Rng;
using sfs::sim::ExperimentContext;

bool same_graph(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices() ||
      a.num_edges() != b.num_edges()) {
    return false;
  }
  const auto ea = a.edges();
  const auto eb = b.edges();
  return std::equal(ea.begin(), ea.end(), eb.begin());
}

struct GenCase {
  std::string name;
  std::size_t n = 0;  // reported problem size
  // Runs one replication down both paths; returns "bit-identical?".
  std::function<bool(std::uint64_t)> audit;
};

bool run_case(const GenCase& c, std::size_t reps, std::uint64_t base_seed) {
  bool identical = true;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    identical = identical && c.audit(sfs::rng::derive_seed(base_seed, rep));
  }
  return identical;
}

std::vector<GenCase> make_cases(bool quick) {
  const std::size_t n_big = quick ? 3000 : 20000;
  const std::size_t n_mid = quick ? 2000 : 10000;
  const std::size_t L = quick ? 40 : 100;
  const std::size_t n_seq = quick ? 30000 : 200000;
  std::vector<GenCase> cases;

  {
    const sfs::gen::BarabasiAlbertParams params{.m = 2};
    auto scratch = std::make_shared<GenScratch>();
    auto out = std::make_shared<Graph>();
    cases.push_back(GenCase{
        "barabasi_albert", n_big,
        [=](std::uint64_t s) {
          Rng r1(s);
          Rng r2(s);
          const Graph fresh = sfs::gen::barabasi_albert(n_big, params, r1);
          sfs::gen::barabasi_albert(n_big, params, r2, *scratch, *out);
          return same_graph(fresh, *out);
        }});
  }
  {
    const sfs::gen::PowerLawSequenceParams seq{.exponent = 2.3, .d_min = 1};
    const sfs::gen::ConfigModelOptions opts{};
    auto scratch = std::make_shared<GenScratch>();
    auto out = std::make_shared<Graph>();
    cases.push_back(GenCase{
        "config_model", n_big,
        [=](std::uint64_t s) {
          Rng r1(s);
          Rng r2(s);
          const Graph fresh =
              sfs::gen::power_law_configuration_graph(n_big, seq, opts, r1);
          sfs::gen::power_law_configuration_graph(n_big, seq, opts, r2,
                                                  *scratch, *out);
          return same_graph(fresh, *out);
        }});
  }
  {
    sfs::gen::CooperFriezeParams params;
    auto scratch = std::make_shared<GenScratch>();
    auto out = std::make_shared<sfs::gen::CooperFriezeGraph>();
    cases.push_back(GenCase{
        "cooper_frieze", n_mid,
        [=](std::uint64_t s) {
          Rng r1(s);
          Rng r2(s);
          const auto fresh = sfs::gen::cooper_frieze(n_mid, params, r1);
          sfs::gen::cooper_frieze(n_mid, params, r2, *scratch, *out);
          return same_graph(fresh.graph, out->graph) &&
                 fresh.steps == out->steps;
        }});
  }
  {
    const std::size_t m = 3 * n_big;
    auto scratch = std::make_shared<GenScratch>();
    auto out = std::make_shared<Graph>();
    cases.push_back(GenCase{
        "erdos_renyi_gnm", n_big,
        [=](std::uint64_t s) {
          Rng r1(s);
          Rng r2(s);
          const Graph fresh = sfs::gen::erdos_renyi_gnm(n_big, m, r1);
          sfs::gen::erdos_renyi_gnm(n_big, m, r2, *scratch, *out);
          return same_graph(fresh, *out);
        }});
  }
  {
    const sfs::gen::KleinbergParams params{.r = 2.0, .q = 1};
    auto scratch = std::make_shared<GenScratch>();
    Rng init_rng(0);
    auto grid =
        std::make_shared<sfs::gen::KleinbergGrid>(L, params, init_rng,
                                                  *scratch);
    cases.push_back(GenCase{
        "kleinberg", L * L,
        [=](std::uint64_t s) {
          Rng r1(s);
          Rng r2(s);
          const sfs::gen::KleinbergGrid fresh(L, params, r1);
          grid->rebuild(L, params, r2, *scratch);
          return same_graph(fresh.graph(), grid->graph());
        }});
  }
  {
    const sfs::gen::MoriParams params{0.5};
    auto scratch = std::make_shared<GenScratch>();
    auto out = std::make_shared<Graph>();
    cases.push_back(GenCase{
        "merged_mori", n_mid,
        [=](std::uint64_t s) {
          Rng r1(s);
          Rng r2(s);
          const Graph fresh =
              sfs::gen::merged_mori_graph(n_mid, 2, params, r1);
          sfs::gen::merged_mori_graph(n_mid, 2, params, r2, *scratch, *out);
          return same_graph(fresh, *out);
        }});
  }
  {
    const sfs::gen::PowerLawSequenceParams params{.exponent = 2.3,
                                                  .d_min = 1};
    auto out = std::make_shared<std::vector<std::uint32_t>>();
    cases.push_back(GenCase{
        "degree_sequence", n_seq,
        [=](std::uint64_t s) {
          Rng r1(s);
          Rng r2(s);
          const auto fresh =
              sfs::gen::power_law_degree_sequence(n_seq, params, r1);
          sfs::gen::power_law_degree_sequence(n_seq, params, r2, *out);
          return fresh == *out;
        }});
  }
  return cases;
}

int run_m4(ExperimentContext& ctx) {
  const bool quick = ctx.options.quick;
  const std::size_t reps = ctx.reps_or(quick ? 10 : 40);
  ctx.console() << "M4: generator scratch reuse, fresh allocation vs "
                   "gen::GenScratch overloads, "
                << reps << " replications per generator\n\n";

  sfs::sim::Table t("fresh vs scratch-reusing generation",
                    {"generator", "n", "identical"});
  bool all_identical = true;
  for (const auto& c : make_cases(quick)) {
    const bool identical = run_case(c, reps, ctx.stream_seed(c.name));
    all_identical = all_identical && identical;
    t.row().cell(c.name).integer(c.n).cell(identical ? "yes" : "NO");

    sfs::sim::JsonObjectWriter json;
    json.str_field("bench", "m4_generator_reuse");
    json.str_field("generator", c.name);
    json.int_field("n", c.n);
    json.int_field("reps", reps);
    json.bool_field("bit_identical", identical);
    ctx.emitter->emit_object(json.str());
  }
  t.print(ctx.console());
  ctx.console() << "\nbit-identical fresh vs reused: "
                << (all_identical ? "PASS" : "FAIL") << '\n';
  return all_identical ? 0 : 1;
}

const sfs::sim::ExperimentRegistrar reg_m4({
    .name = "m4",
    .title = "Generator scratch reuse: bit-identity audit",
    .claim = "gen::GenScratch overloads are a pure performance transform "
             "over fresh allocation",
    .caps = sfs::sim::kCapQuick | sfs::sim::kCapReps | sfs::sim::kCapSeed,
    .params =
        {
            {"--reps", "count", "40 (quick: 10)",
             "replications per generator"},
            {"--seed", "u64 seed", "derived from name",
             "base seed; one stream per generator"},
        },
    .run = run_m4,
});

}  // namespace
