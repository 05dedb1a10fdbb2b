// perfbench — the repository benchmark driver.
//
//   perfbench --workload=pipeline_run --seed=1 --seconds=10 --trace=0
//             --work-dir=DIR --serve=PATH/pglb_serve
//
// Runs one workload, checks its outputs, and prints a human-readable report
// followed by one JSON result line:
//   {"correct":...,"attempted":N,"failed":N,"metrics":{name:{value,unit}}}
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer ones the
// workload measured (and writes the run's spans as a Chrome trace under the
// work dir).
// Exits 1 on any correctness mismatch, 2 on bad usage or a refused build.

#include <filesystem>
#include <iostream>

#include "util/cli.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

void append_metric(std::string& out, bool& first, const std::string& name, double value,
                   const std::string& unit) {
  out += first ? "" : ",";
  first = false;
  out += "\"" + name + "\":{\"value\":" + json_number(value) + ",\"unit\":\"" + unit + "\"}";
}

int run(const Options& options) {
  Outcome outcome;
  if (options.workload == "pipeline_run") {
    outcome = run_pipeline(options);
  } else if (options.workload == "plan_fleet_cold") {
    outcome = run_plan_cold(options);
  } else if (options.workload == "plan_fleet_warm") {
    outcome = run_plan_warm(options);
  } else if (options.workload == "plan_delta") {
    outcome = run_plan_delta(options);
  } else {
    std::cerr << "perfbench: unknown workload '" << options.workload
              << "' (pipeline_run, plan_fleet_cold, plan_fleet_warm, plan_delta)\n";
    return 2;
  }

  // The workload's own end-to-end metrics also join the per-layer report,
  // so a traced run carries them as context.
  const double failed_ratio =
      outcome.attempted == 0
          ? 1.0
          : static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted);
  outcome.add_named("failed_ratio", failed_ratio, "ratio");
  for (const Metric& m : outcome.e2e) {
    if (m.name == "setup_s" || m.name == "peak_rss_mb") outcome.add_named(m.name, m.value, m.unit);
  }
  for (const Metric& m : outcome.named) outcome.add_layer("e2e." + m.name, m.value, m.unit);

  if (options.trace) {
    const std::vector<Span> spans = Tracer::instance().snapshot();
    for (const auto& [layer, seconds] : layer_self_seconds(spans)) {
      outcome.add_layer("self_s." + layer, seconds, "s");
    }
    const std::string trace_path = options.work_dir + "/" + options.workload + "-seed" +
                                   std::to_string(options.seed) + ".trace.json";
    write_chrome_trace(spans, trace_path);
    outcome.notes.push_back("chrome trace: " + trace_path + " (" +
                            std::to_string(spans.size()) + " spans)");
  }

  for (const std::string& note : outcome.notes) std::cout << note << "\n";
  std::cout << "end-to-end (" << options.workload << "):\n";
  for (const Metric& m : outcome.named) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  }
  if (!outcome.correct) std::cout << "MISMATCH: " << outcome.mismatch << "\n";

  // The measured metrics only: run.py reports a per-layer metric this
  // workload does not touch as 0 and rejects names BENCHMARK.json lacks.
  std::string metrics;
  bool first = true;
  for (const Metric& m : options.trace ? outcome.layers : outcome.e2e) {
    append_metric(metrics, first, m.name, m.value, m.unit);
  }
  std::cout << "{\"correct\":" << (outcome.correct ? "true" : "false")
            << ",\"attempted\":" << outcome.attempted << ",\"failed\":" << outcome.failed
            << ",\"metrics\":{" << metrics << "}}" << std::endl;
  return outcome.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const pglb::Cli cli(argc, argv);
  const std::string role = cli.get_string("role", "");
  if (role == "pipeline-child") return pipeline_child(cli.get_string("graph", ""));

  Options options;
  options.workload = cli.get_string("workload", "");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  options.seconds = cli.get_double("seconds", 10.0);
  options.trace = cli.get_int("trace", 0) != 0;
  options.work_dir = cli.get_string("work-dir", ".bench_build/work");
  options.serve_path = cli.get_string("serve", "");
  options.self_path = std::filesystem::canonical("/proc/self/exe").string();
  if (!cli.unused_keys().empty()) {
    std::cerr << "perfbench: unknown flag --" << cli.unused_keys().front() << "\n";
    return 2;
  }
  if (const std::string refusal = build_refusal(); !refusal.empty()) {
    std::cerr << "perfbench: refusing to report numbers from a " << refusal << "\n";
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
