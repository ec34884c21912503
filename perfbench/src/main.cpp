// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload sweep|lookup|churn --seed N --seconds S --trace 0|1
//             --golden FILE --out-dir DIR [--source-digest HEX]
//             [--git-describe TEXT]
//
// Prints a human summary on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Writes the full result (manifest, sample counts, percentile used, errors,
// workload details) to DIR/<workload>-seed<N>-trace<T>.json, and with
// --trace 1 the Chrome trace to DIR/<workload>-seed<N>.trace.json.
// Exit codes: 0 correct, 1 correctness gate failed, 2 usage or runtime
// error, 3 measurement fault (no result line in cases 2 and 3).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "base/parallel.hpp"
#include "manifest.hpp"
#include "sim/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;

// Every digit of a measured value (json_num rounds to 6 decimals).
std::string full_digits(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics, bool full) {
  sfs::sim::JsonObjectWriter all;
  for (const auto& m : metrics) {
    sfs::sim::JsonObjectWriter one;
    one.raw_field("value", full_digits(m.value)).str_field("unit", m.unit);
    if (full) {
      one.int_field("samples", m.samples);
      if (!m.detail.empty()) one.str_field("detail", m.detail);
    }
    all.raw_field(m.name, one.str());
  }
  return all.str();
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sweep|lookup|churn --seed N "
               "--seconds S --trace 0|1 --golden FILE --out-dir DIR "
               "[--source-digest HEX] [--git-describe TEXT]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage("flags come in --name value pairs");
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--golden",
        "--out-dir"}) {
    if (!args.count(required)) return usage(std::string("missing ") + required);
  }

  perfbench::RunOptions opts;
  const std::string workload = args["--workload"];
  try {
    opts.seed = std::stoull(args["--seed"]);
    opts.seconds = std::stod(args["--seconds"]);
  } catch (const std::exception&) {
    return usage("--seed and --seconds must be numbers");
  }
  if (!(opts.seconds > 0.0) || args["--trace"].size() != 1 ||
      (args["--trace"] != "0" && args["--trace"] != "1")) {
    return usage("--seconds must be positive and --trace 0 or 1");
  }
  opts.trace = args["--trace"] == "1";
  opts.golden_path = args["--golden"];

  // All load comes from this process on at most min(4, nproc) threads,
  // the calling thread included (it is pool worker 0). The shared pool
  // reads its width from SFS_THREADS on first use.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  opts.workers = std::min<std::size_t>(4, hw);
  setenv("SFS_THREADS", std::to_string(opts.workers).c_str(), 1);
  if (sfs::base::resolve_worker_count(0) != opts.workers) {
    std::cerr << "perfbench: shared pool width is not " << opts.workers
              << "\n";
    return 2;
  }

  perfbench::Manifest manifest = perfbench::collect_host_manifest();
  manifest.workload = workload;
  manifest.seed = opts.seed;
  manifest.source_digest = args.count("--source-digest")
                               ? args["--source-digest"]
                               : std::string("unknown");
  manifest.git_describe = args.count("--git-describe")
                              ? args["--git-describe"]
                              : std::string("none");
  manifest.pool_width = static_cast<std::int64_t>(opts.workers);
  manifest.traced = opts.trace;

  perfbench::Tracer tracer(opts.trace);
  perfbench::Outcome outcome;
  try {
    if (workload == "sweep") {
      outcome = perfbench::run_sweep(opts, tracer);
    } else if (workload == "lookup") {
      outcome = perfbench::run_lookup(opts, tracer);
    } else if (workload == "churn") {
      outcome = perfbench::run_churn(opts, tracer);
    } else {
      return usage("unknown workload '" + workload + "'");
    }
  } catch (const perfbench::MeasurementFault& e) {
    std::cerr << "perfbench: measurement fault: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 2;
  }
  manifest.stream_plan = outcome.stream_plan;
  const bool correct = outcome.failed == 0 && outcome.errors.empty();

  const std::string manifest_json = perfbench::to_json(manifest);
  const std::filesystem::path dir(args["--out-dir"]);
  std::filesystem::create_directories(dir);
  const std::string stem = workload + "-seed" + std::to_string(opts.seed);
  {
    std::string errors;
    for (const auto& e : outcome.errors) {
      errors += errors.empty() ? "[" : ",";
      errors += '"';
      errors += sfs::sim::json_escape(e);
      errors += '"';
    }
    errors += errors.empty() ? "[]" : "]";
    sfs::sim::JsonObjectWriter result;
    result.raw_field("manifest", manifest_json)
        .bool_field("correct", correct)
        .int_field("attempted", outcome.attempted)
        .int_field("failed", outcome.failed)
        .num_field("fail_frac",
                   outcome.attempted == 0
                       ? 0.0
                       : static_cast<double>(outcome.failed) /
                             static_cast<double>(outcome.attempted))
        .raw_field("errors", errors)
        .raw_field("end_to_end", metrics_json(outcome.end_to_end, true))
        .raw_field("per_layer", metrics_json(outcome.per_layer, true))
        .raw_field("details", outcome.details_json);
    if (opts.trace) {
      // Where the traced run's time went: self seconds per layer, summed
      // over threads, set-up and probes included.
      sfs::sim::JsonObjectWriter layers;
      for (const auto& [layer, secs] :
           perfbench::layer_self_seconds(tracer.spans())) {
        layers.raw_field(layer, full_digits(secs));
      }
      result.raw_field("layer_self_s", layers.str());
    }
    const auto path =
        dir / (stem + "-trace" + (opts.trace ? "1" : "0") + ".json");
    std::ofstream out(path);
    out << result.str() << "\n";
    if (!out) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 2;
    }
  }
  if (opts.trace) {
    tracer.write_chrome_json((dir / (stem + ".trace.json")).string(),
                             manifest_json);
  }

  std::cerr << "manifest " << manifest_json << "\n";
  for (const auto* group : {&outcome.end_to_end, &outcome.per_layer}) {
    for (const auto& m : *group) {
      std::cerr << "  " << m.name << " = " << m.value << " " << m.unit
                << "  (" << m.samples << " samples"
                << (m.detail.empty() ? "" : ", " + m.detail) << ")\n";
    }
  }
  std::cerr << "details " << outcome.details_json << "\n";
  for (const auto& e : outcome.errors) std::cerr << "FAIL " << e << "\n";

  sfs::sim::JsonObjectWriter line;
  line.bool_field("correct", correct)
      .int_field("attempted", outcome.attempted)
      .int_field("failed", outcome.failed)
      .raw_field("metrics",
                 metrics_json(opts.trace ? outcome.per_layer
                                         : outcome.end_to_end,
                              false));
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}
