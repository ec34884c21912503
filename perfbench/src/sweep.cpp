// sweep: the paper's headline computation, e1 --large.
//
// The fixed e1 grid (sim::plan_large_run: 6 sizes from 65536 to 2097152,
// 3 reps) over merged Móri graphs (p = 0.5, m = 1), each cell a fresh
// graph through the scratch-aware sim::measure_scaling and the 8-policy
// weak portfolio, oldest -> newest, budget 40n, on the shared pool; then
// the 400-replicate bootstrap CI of the slope. The grid always runs at
// e1's pinned seed, so every run reproduces e1 --large bit for bit and is
// checked against the stored reference series. On a 4-core Xeon the wall
// time of this grid ranged from 17 to 33 s across six grid seeds (the cost
// of a cell is heavy-tailed), a spread no performance change could be seen
// through.
// The benchmark seed picks the cell replayed on one worker and the order
// of the alternated trials.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

#include "compare.hpp"
#include "gen/mori.hpp"
#include "graph/compressed.hpp"
#include "sim/json.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "stats/summary.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kE1Seed = 0x1A26E1;  // e1's pinned default seed
constexpr std::size_t kSetupGroupsPerPoint = 3;  // setup_s samples ...
constexpr std::size_t kSetupsPerGroup = 12;  // ... each a mean of these
constexpr std::size_t kPolicies = 8;         // the weak portfolio
constexpr std::size_t kSpeedupSizes = 3;  // grid prefix: speedup, replay

struct Reference {
  std::vector<std::vector<double>> cells;  // [size index][rep]
  double slope = 0.0, ci_lo = 0.0, ci_hi = 0.0;
};

// Format: "cell <size index> <rep> <value>", "slope|ci_lo|ci_hi <value>";
// values in any strtod form (the fit lines are hex floats, exact).
Reference load_reference(const std::string& path, std::size_t sizes,
                         std::size_t reps) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  Reference ref;
  ref.cells.assign(sizes, std::vector<double>(reps, -1.0));
  std::string line;
  std::size_t seen = 0, fits = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, value;
    ls >> key;
    if (key == "cell") {
      std::size_t i = 0, r = 0;
      ls >> i >> r >> value;
      if (!ls || i >= sizes || r >= reps) {
        throw std::runtime_error("bad reference line: " + line);
      }
      ref.cells[i][r] = std::strtod(value.c_str(), nullptr);
      ++seen;
    } else {
      ls >> value;
      double* slot = key == "slope"   ? &ref.slope
                     : key == "ci_lo" ? &ref.ci_lo
                     : key == "ci_hi" ? &ref.ci_hi
                                      : nullptr;
      if (!ls || slot == nullptr) {
        throw std::runtime_error("bad reference line: " + line);
      }
      *slot = std::strtod(value.c_str(), nullptr);
      ++fits;
    }
  }
  if (seen != sizes * reps || fits != 3) {
    throw std::runtime_error("incomplete reference " + path);
  }
  return ref;
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

struct Cell {
  std::size_t n = 0;
  std::uint64_t seed = 0;
  double value = 0.0;
  Clock::time_point start, end;
  double gen_s = 0.0;
  double raw_requests = 0.0;
  std::size_t csr_bytes = 0;
  [[nodiscard]] double seconds() const { return seconds_between(start, end); }
};

// The e1 grid cell: one merged Móri graph, the weak portfolio on it, the
// best policy's mean charged requests. Records its timing into `cells`.
class CellMeasure {
 public:
  explicit CellMeasure(Tracer& tracer) : tracer_(tracer) {}

  double operator()(std::size_t n, std::uint64_t seed,
                    sfs::gen::GenScratch& scratch) {
    Cell cell;
    cell.n = n;
    cell.seed = seed;
    cell.start = Clock::now();
    double value = 0.0;
    {
      Tracer::Scope span(tracer_, "search.portfolio_cell",
                         static_cast<std::int64_t>(n));
      sfs::sim::RunPlan plan;
      plan.scratch_factory = [&](sfs::rng::Rng& rng, sfs::gen::GenScratch&,
                                 sfs::graph::Graph& out) {
        // As in e1: the sweep-level per-worker scratch, so the generator
        // buffers stay warm across the grid.
        Tracer::Scope gen(tracer_, "gen.merged_mori",
                          static_cast<std::int64_t>(n));
        sfs::gen::merged_mori_graph(n, 1, sfs::gen::MoriParams{0.5}, rng,
                                    scratch, out);
        cell.gen_s += gen.elapsed();
        cell.csr_bytes = sfs::graph::graph_memory_bytes(out);
      };
      plan.endpoints = sfs::sim::oldest_to_newest();
      plan.seed = seed;
      plan.budget.max_raw_requests = 40 * n;
      const auto cost = sfs::sim::measure_portfolio(plan);
      for (const auto& p : cost.policies) {
        cell.raw_requests += p.raw_requests.mean;
      }
      value = cost.best_policy().requests.mean;
    }
    cell.end = Clock::now();
    cell.value = value;
    std::lock_guard<std::mutex> lock(mu_);
    cells_.push_back(cell);
    return value;
  }

  std::vector<Cell> take() {
    std::lock_guard<std::mutex> lock(mu_);
    auto out = std::move(cells_);
    cells_.clear();
    return out;
  }

 private:
  Tracer& tracer_;
  std::mutex mu_;
  std::vector<Cell> cells_;  // guarded by mu_
};

struct Sweep {
  sfs::sim::ScalingSeries series;
  std::vector<Cell> cells;
  Clock::time_point start, scaling_end, end;
  [[nodiscard]] double wall() const { return seconds_between(start, end); }
  [[nodiscard]] double scaling_wall() const {
    return seconds_between(start, scaling_end);
  }
  [[nodiscard]] double bootstrap_s() const {
    return seconds_between(scaling_end, end);
  }
};

Sweep run_grid(const sfs::sim::LargeRunPlan& plan, Tracer& tracer) {
  CellMeasure measure(tracer);
  const std::function<double(std::size_t, std::uint64_t,
                             sfs::gen::GenScratch&)>
      fn = std::ref(measure);
  sfs::sim::ScalingOptions options = plan.options;
  options.bootstrap_replicates = 0;  // timed on its own below
  Sweep s;
  // No span wraps measure_scaling itself: its own work is the harness
  // time outside the cell spans, which trace.coverage must see.
  s.start = Clock::now();
  s.series = sfs::sim::measure_scaling(plan.sizes, plan.reps, kE1Seed, fn,
                                       options);
  s.scaling_end = Clock::now();
  {
    Tracer::Scope span(tracer, "stats.bootstrap_slope_ci");
    s.series.slope_ci = sfs::sim::bootstrap_slope_ci(
        s.series, plan.options.bootstrap_replicates,
        plan.options.bootstrap_alpha, plan.options.bootstrap_seed);
  }
  s.end = Clock::now();
  s.cells = measure.take();
  // Completion order depends on scheduling; (n, seed) order does not.
  std::sort(s.cells.begin(), s.cells.end(), [](const Cell& x, const Cell& y) {
    return x.n != y.n ? x.n < y.n : x.seed < y.seed;
  });
  return s;
}

// Compares a sweep with the reference; returns one line per difference.
std::vector<std::string> check(const Sweep& s, const Reference& ref) {
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < ref.cells.size(); ++i) {
    for (std::size_t r = 0; r < ref.cells[i].size(); ++r) {
      const double got = i < s.series.points.size() &&
                                 r < s.series.points[i].raw.size()
                             ? s.series.points[i].raw[r]
                             : -1.0;
      if (!same_bits(got, ref.cells[i][r])) {
        errors.push_back("sweep cell (" + std::to_string(i) + "," +
                         std::to_string(r) + "): " + hex(got) +
                         " != reference " + hex(ref.cells[i][r]));
      }
    }
  }
  const auto& ci = s.series.slope_ci;
  if (!same_bits(s.series.fit.slope, ref.slope) ||
      !same_bits(ci.lo, ref.ci_lo) || !same_bits(ci.hi, ref.ci_hi)) {
    errors.push_back("sweep fit: slope " + hex(s.series.fit.slope) + " [" +
                     hex(ci.lo) + ", " + hex(ci.hi) + "] != reference " +
                     hex(ref.slope) + " [" + hex(ref.ci_lo) + ", " +
                     hex(ref.ci_hi) + "]");
  }
  return errors;
}

}  // namespace

Outcome run_sweep(const RunOptions& opts, Tracer& tracer) {
  Outcome out;
  out.stream_plan =
      sfs::rng::stream_plan_number(sfs::sim::RunPlan{}.stream_plan);

  // Set-up: the plan, the reference series, and one generation of the
  // smallest grid graph, which warms the generator's code and buffers. The
  // buffers are kept from one set-up to the next: otherwise each set-up's
  // time depends on how the allocator gets its memory back from the OS,
  // which changes once the grid has run (set-up groups at one point of a
  // run read 4 to 16 ms). A grid cannot be interrupted, so the set-up
  // groups are timed at three points of the run (before the grids, after
  // them and after the replay) rather than all in its first second, in
  // which the host's speed can swing by a factor of 2 or more.
  sfs::sim::LargeRunPlan plan;
  Reference ref;
  std::vector<double> setup_s;
  std::size_t setups = 0;
  sfs::gen::GenScratch setup_scratch;
  sfs::graph::Graph setup_graph;
  auto one_setup = [&] {
    const std::size_t k = setups++;
    const auto t0 = Clock::now();
    Tracer::Scope span(tracer, "bench.setup", static_cast<std::int64_t>(k));
    plan = sfs::sim::plan_large_run(false, "", 0);
    ref = load_reference(opts.golden_path, plan.sizes.size(), plan.reps);
    sfs::rng::Rng rng(opts.seed + k);
    sfs::gen::merged_mori_graph(plan.sizes.front(), 1,
                                sfs::gen::MoriParams{0.5}, rng, setup_scratch,
                                setup_graph);
    return seconds_between(t0, Clock::now());
  };
  auto time_setup_groups = [&] {
    for (std::size_t g = 0; g < kSetupGroupsPerPoint; ++g) {
      setup_s.push_back(setup_group_seconds(kSetupsPerGroup, one_setup));
    }
  };
  (void)one_setup();  // cold: the buffers are allocated here, untimed
  time_setup_groups();

  // Closed loop over whole grids. A grid cannot be cut short, so the
  // window sets a fixed number of grids (one per 30 s of window, at least
  // one) rather than a deadline: every run of a given length measures the
  // same work, and the latency samples keep one percentile rule. A grid
  // takes about 22 s; one per run keeps the benchmark's 70 runs inside
  // their time budget. A traced run measures one untraced and one traced
  // grid.
  Tracer untraced(false);
  const std::size_t grids =
      opts.trace ? 1
                 : std::max<std::size_t>(
                       1, static_cast<std::size_t>(opts.seconds / 30.0));
  std::vector<Sweep> sweeps;
  Sweep traced;
  const bool traced_first = opts.trace && opts.seed % 2 == 1;
  if (traced_first) traced = run_grid(plan, tracer);
  while (sweeps.size() < grids) sweeps.push_back(run_grid(plan, untraced));
  if (opts.trace && !traced_first) traced = run_grid(plan, tracer);
  time_setup_groups();

  std::vector<double> sweep_s, batch_s, round_s;
  std::size_t cells = 0;
  if (opts.trace) {
    for (auto& e : check(traced, ref)) out.errors.push_back("traced " + e);
    cells += traced.cells.size();
  }
  for (const auto& s : sweeps) {
    for (auto& e : check(s, ref)) out.errors.push_back(e);
    sweep_s.push_back(s.wall());
    cells += s.cells.size();
    for (const auto& c : s.cells) {
      round_s.push_back(c.seconds());
      batch_s.push_back(c.seconds() - c.gen_s);
    }
  }
  out.attempted = cells;

  // 1-worker replay of one cell chosen by the seed among the cells of the
  // first kSpeedupSizes sizes (cells are in (n, seed) order). A top cell
  // takes over 10 s on one worker; the whole grid is checked against the
  // reference anyway.
  const auto& first = sweeps.front();
  const Cell& sample =
      first.cells[opts.seed % std::min(first.cells.size(),
                                       kSpeedupSizes * plan.reps)];
  {
    Tracer::Scope span(tracer, "bench.replay");
    Tracer quiet(false);
    CellMeasure again(quiet);
    sfs::gen::GenScratch scratch;
    try {
      const double v = again(sample.n, sample.seed, scratch);
      if (!same_bits(v, sample.value)) {
        out.errors.push_back("sweep cell n=" + std::to_string(sample.n) +
                             " replayed on 1 worker: " + hex(v) +
                             " != pooled " + hex(sample.value));
      }
    } catch (const std::exception& e) {
      out.errors.push_back("sweep replay threw: " + std::string(e.what()));
    }
  }
  out.failed = out.errors.size();
  time_setup_groups();

  auto& e2e = out.end_to_end;
  add_setup_metric(e2e, setup_s, kSetupsPerGroup);
  add_metric(e2e, "peak_rss_mib", peak_rss_mib(), "MiB", 1);
  add_metric(e2e, "sweep_s", sfs::stats::median(sweep_s), "s", sweep_s.size(),
             "grid to fitted exponent plus bootstrap CI");
  add_metric(e2e, "lookups_per_s",
             static_cast<double>(kPolicies * first.cells.size()) /
                 sfs::stats::median(sweep_s),
             "1/s", kPolicies * first.cells.size() * sweeps.size(),
             "weak searches per sweep second");
  add_latency_pair(e2e, "batch", batch_s);  // a cell's 8 searches
  add_latency_pair(e2e, "round", round_s);  // a cell: generation + searches

  const auto& fit = first.series;
  sfs::sim::JsonObjectWriter details;
  details.int_field("grid_seed", kE1Seed)
      .int_field("sizes", plan.sizes.size())
      .int_field("reps", plan.reps)
      .int_field("sweeps", sweeps.size())
      .num_field("slope", fit.fit.slope)
      .num_field("slope_stderr", fit.fit.slope_stderr)
      .num_field("ci_lo", fit.slope_ci.lo)
      .num_field("ci_hi", fit.slope_ci.hi)
      .str_field("slope_hex", hex(fit.fit.slope))
      .str_field("ci_lo_hex", hex(fit.slope_ci.lo))
      .str_field("ci_hi_hex", hex(fit.slope_ci.hi))
      .int_field("replayed_cell_n", sample.n);
  if (!opts.trace) {
    out.details_json = details.str();
    return out;
  }

  // ------------------------------------------------------- per-layer
  auto& pl = out.per_layer;
  double gen_s = 0.0, busy_s = 0.0, raw = 0.0, vertices = 0.0, last = 0.0;
  std::size_t csr = 0;
  auto first_start = traced.cells.front().start;
  auto last_end = traced.cells.front().end;
  for (const auto& c : traced.cells) {
    gen_s += c.gen_s;
    busy_s += c.seconds();
    raw += c.raw_requests;
    vertices += static_cast<double>(c.n);
    last = std::max(last, c.seconds());
    csr = std::max(csr, c.csr_bytes);
    first_start = std::min(first_start, c.start);
    last_end = std::max(last_end, c.end);
  }
  add_metric(pl, "gen.self_s", gen_s, "s", traced.cells.size(),
             "summed over workers");
  add_metric(pl, "gen.mvertices_per_s", vertices / gen_s / 1e6, "Mvertex/s",
             traced.cells.size());
  add_metric(pl, "graph.csr_mib", static_cast<double>(csr) / (1024.0 * 1024.0),
             "MiB", traced.cells.size(), "largest cell graph");
  add_metric(pl, "search.self_s", busy_s - gen_s, "s", traced.cells.size(),
             "cell spans minus their generation, summed over workers");
  add_metric(pl, "search.weak_mprobes_per_s", raw / (busy_s - gen_s) / 1e6,
             "Mprobe/s", traced.cells.size() * kPolicies);
  add_metric(pl, "search.failed_probe_share", 0.0, "ratio",
             traced.cells.size() * kPolicies, "static graphs", false);
  add_metric(pl, "search.restarts_per_lookup", 0.0, "ratio",
             traced.cells.size() * kPolicies, "static graphs", false);
  add_metric(pl, "graph.compactions", 0.0, "count", 1, {}, false);
  add_metric(pl, "search.sessions_rebuilt", 0.0, "count", 1, {}, false);
  add_metric(pl, "base.pool_busy_share",
             busy_s / (static_cast<double>(opts.workers) *
                       traced.scaling_wall()),
             "ratio", traced.cells.size(),
             "cell seconds over workers x scaling wall");
  add_metric(pl, "base.pool_last_cell_s", last, "s", traced.cells.size(),
             "longest cell");
  add_metric(pl, "stats.bootstrap_s", traced.bootstrap_s(), "s", 1);
  add_metric(pl, "sim.harness_s",
             traced.scaling_wall() - seconds_between(first_start, last_end),
             "s", 1, "scaling wall minus first-cell-start to last-cell-end");

  // 1-worker vs pool on the grid's first sizes (the identical cells),
  // order alternated.
  sfs::sim::LargeRunPlan small = plan;
  small.sizes.resize(kSpeedupSizes);
  const Speedup speedup = measure_speedup(
      [&](std::size_t threads) {
        small.options.threads = threads;
        small.options.bootstrap_replicates = 0;
        Tracer quiet(false);
        CellMeasure m(quiet);
        const std::function<double(std::size_t, std::uint64_t,
                                   sfs::gen::GenScratch&)>
            fn = std::ref(m);
        const auto series = sfs::sim::measure_scaling(
            small.sizes, small.reps, kE1Seed, fn, small.options);
        for (std::size_t i = 0; i < series.points.size(); ++i) {
          for (std::size_t r = 0; r < series.points[i].raw.size(); ++r) {
            if (!same_bits(series.points[i].raw[r], ref.cells[i][r])) {
              out.errors.push_back("speedup grid cell differs on " +
                                   std::to_string(threads) + " thread(s)");
            }
          }
        }
      },
      opts.seed, opts.workers, 1, tracer);
  add_metric(pl, "base.pool_speedup", speedup.ratio(), "ratio",
             speedup.trials,
             "grid prefix of " + std::to_string(kSpeedupSizes) + " sizes, " +
                 speedup.detail());
  out.failed = out.errors.size();

  const LayerProbe probe = run_layer_probe(opts.seed, tracer);
  add_metric(pl, "gen.overlay_s", probe.overlay_gen_s, "s", 1, "layer probe");
  add_metric(pl, "graph.component_s", probe.component_s, "s", 1,
             "layer probe");
  add_metric(pl, "search.engine_init_s", probe.engine_init_s, "s", 1,
             "layer probe");
  add_metric(pl, "search.engine_dispatch_us", probe.dispatch_us, "us", 200,
             "layer probe");
  add_metric(pl, "search.strong_mprobes_per_s.degree-greedy-strong",
             probe.strong_mprobes_per_s_greedy, "Mprobe/s", 1, "layer probe");
  add_metric(pl, "search.strong_mprobes_per_s.bfs-strong",
             probe.strong_mprobes_per_s_bfs, "Mprobe/s", 1, "layer probe");
  add_churn_metrics(pl, probe.inject_ms, probe.repair_ms, "layer probe");

  const auto spans = tracer.spans();
  add_trace_metrics(pl, covered_seconds(spans, traced.start, traced.end),
                    traced.wall(), sfs::stats::median(sweep_s), traced.wall());
  out.details_json = details.str();
  return out;
}

}  // namespace perfbench
