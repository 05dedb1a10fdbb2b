// pipeline_run: the offline `pglb run` path, in process.  Each iteration
// reads the SNAP-text edge list and runs it through every stage of the flow
// (prepare, stats, alpha fit, CCR weights, hybrid partition, metrics,
// finalize, memory estimate, PageRank), each stage timed as one span.

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "apps/registry.hpp"
#include "core/estimators.hpp"
#include "core/flow.hpp"
#include "engine/distributed_graph.hpp"
#include "gen/alpha_solver.hpp"
#include "gen/corpus.hpp"
#include "graph/io.hpp"
#include "machine/catalog.hpp"
#include "machine/perf_model.hpp"
#include "service/protocol.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pglb;

namespace {

constexpr double kGraphScale = 1.0 / 12.0;      // Table II social_network
constexpr double kProxyScale = 1.0 / 256.0;     // service default
constexpr std::uint64_t kProxySeed = 17;        // service default
constexpr std::uint64_t kPartitionSeed = 1;     // `pglb run` default
constexpr AppKind kApp = AppKind::kPageRank;
constexpr int kSetupRepeats = 3;
constexpr int kMinIterations = 3;

Cluster case1_cluster() {
  const MachineSpec& m4 = machine_by_name("m4.2xlarge");
  const MachineSpec& c4 = machine_by_name("c4.2xlarge");
  return Cluster({m4, m4, c4, c4});
}

/// Everything an iteration needs, built at setup.
struct Fixture {
  std::string path;
  std::uint64_t file_bytes = 0;
  Cluster cluster = case1_cluster();
  CcrPool pool;
};

CcrPool profile_pool(const Cluster& cluster) {
  const ProxySuite suite(kProxyScale, kProxySeed);
  const AppKind apps[] = {kApp};
  return profile_cluster(cluster, suite, apps);
}

struct StageTimes {
  double read = 0, prepare = 0, stats = 0, alpha = 0, weights = 0, partition = 0,
         metrics = 0, finalize = 0, memory = 0, execute = 0, release = 0, total = 0;
  double timed() const {
    return read + prepare + stats + alpha + weights + partition + metrics + finalize +
           memory + execute + release;
  }
};

struct Outputs {
  std::string fingerprint;  ///< every output value, all digits
  double makespan = 0.0;
  double replication = 0.0;
  double memory_gb_max = 0.0;
  int supersteps = 0;
  std::uint64_t edges = 0;
};

std::string fingerprint(const GraphStats& stats, double alpha,
                        const std::vector<double>& weights, const PartitionMetrics& pm,
                        double replication, const std::vector<double>& memory_gb,
                        const AppRunResult& app) {
  std::ostringstream out;
  out << "V=" << stats.num_vertices << " E=" << stats.num_edges
      << " alpha=" << json_number(alpha) << " w=";
  for (const double w : weights) out << json_number(w) << ",";
  out << " epm=";
  for (const auto e : pm.edges_per_machine) out << e << ",";
  out << " rpm=";
  for (const auto r : pm.replicas_per_machine) out << r << ",";
  out << " prf=" << json_number(pm.replication_factor)
      << " wimb=" << json_number(pm.weighted_imbalance)
      << " uimb=" << json_number(pm.uniform_imbalance)
      << " rf=" << json_number(replication) << " mem=";
  for (const double m : memory_gb) out << json_number(m) << ",";
  out << " makespan=" << json_number(app.report.makespan_seconds)
      << " steps=" << app.report.supersteps << " digest=" << json_number(app.digest);
  return out.str();
}

/// One file-to-result run, stage by stage.  Mirrors run_flow's call chain.
Outputs run_chain(const Fixture& fx, std::uint64_t iteration, StageTimes& t) {
  Stage run("driver.run", iteration);
  struct Live {
    EdgeList raw, prepared;
    PartitionAssignment assignment;
    std::unique_ptr<DistributedGraph> dg;
  } live;
  Outputs out;
  {
    Stage s("graph.read", iteration);
    live.raw = read_edge_list_text(fx.path);
    t.read = s.stop();
  }
  {
    Stage s("apps.prepare", iteration);
    live.prepared = prepare_graph_for(kApp, live.raw);
    t.prepare = s.stop();
  }
  GraphStats stats;
  {
    Stage s("graph.stats", iteration);
    stats = compute_stats(live.prepared);
    t.stats = s.stop();
  }
  double alpha = 0.0;
  {
    Stage s("gen.alpha_fit", iteration);
    alpha = fit_alpha_clamped(stats.num_vertices, stats.num_edges);
    t.alpha = s.stop();
  }
  std::vector<double> weights;
  {
    Stage s("core.weights", iteration);
    const ProxyCcrEstimator estimator(fx.pool);
    weights = estimator.weights(fx.cluster, kApp, live.prepared, stats);
    t.weights = s.stop();
  }
  {
    Stage s("partition.hybrid", iteration);
    live.assignment = make_partitioner(PartitionerKind::kHybrid)
                          ->partition(live.prepared, weights, kPartitionSeed);
    t.partition = s.stop();
  }
  PartitionMetrics pm;
  {
    Stage s("partition.metrics", iteration);
    pm = compute_partition_metrics(live.prepared, live.assignment, weights);
    t.metrics = s.stop();
  }
  {
    Stage s("engine.finalize", iteration);
    live.dg = std::make_unique<DistributedGraph>(
        build_distributed(live.prepared, live.assignment));
    t.finalize = s.stop();
  }
  std::vector<double> memory_gb;
  WorkloadTraits traits;
  {
    Stage s("engine.memory", iteration);
    traits = traits_from_stats(stats, kGraphScale);
    memory_gb = estimated_memory_gb(*live.dg, traits.work_scale);
    t.memory = s.stop();
  }
  AppRunResult app;
  {
    Stage s("apps.execute", iteration);
    app = run_app(kApp, live.prepared, *live.dg, fx.cluster, traits);
    t.execute = s.stop();
  }
  out.replication = live.dg->replication_factor();
  out.fingerprint =
      fingerprint(stats, alpha, weights, pm, out.replication, memory_gb, app);
  out.makespan = app.report.makespan_seconds;
  out.supersteps = app.report.supersteps;
  out.edges = stats.num_edges;
  for (const double m : memory_gb) out.memory_gb_max = std::max(out.memory_gb_max, m);
  {
    Stage s("graph.release", iteration);
    live = Live{};
    t.release = s.stop();
  }
  t.total = run.stop();
  return out;
}

std::string flow_fingerprint(const Fixture& fx) {
  FlowOptions options;
  options.partitioner = PartitionerKind::kHybrid;
  options.seed = kPartitionSeed;
  options.scale = kGraphScale;
  const ProxyCcrEstimator estimator(fx.pool);
  const FlowResult r =
      run_flow(read_edge_list_text(fx.path), kApp, fx.cluster, estimator, options);
  return fingerprint(r.stats, r.fitted_alpha, r.weights, r.partition,
                     r.replication_factor, r.memory_gb, r.app);
}

std::string stage_times_json(const StageTimes& t) {
  std::ostringstream out;
  out << "{\"partition\":" << json_number(t.partition)
      << ",\"metrics\":" << json_number(t.metrics)
      << ",\"finalize\":" << json_number(t.finalize)
      << ",\"execute\":" << json_number(t.execute)
      << ",\"total\":" << json_number(t.total) << "}";
  return out.str();
}

}  // namespace

int pipeline_child(const std::string& graph_path) {
  Fixture fx;
  fx.path = graph_path;
  fx.pool = profile_pool(fx.cluster);
  StageTimes t;
  const Outputs out = run_chain(fx, 0, t);
  std::string line = "{\"fingerprint\":";
  append_json_string(line, out.fingerprint);
  line += ",\"flow\":";
  append_json_string(line, flow_fingerprint(fx));
  line += ",\"times\":" + stage_times_json(t) + "}";
  std::printf("%s\n", line.c_str());
  return 0;
}

Outcome run_pipeline(const Options& options) {
  Outcome outcome;
  Fixture fx;
  fx.path = options.work_dir + "/pipeline_social_network.txt";

  // Set-up: generate and write the input, profile the CCR pool.  Repeated so
  // setup_s is a median; each repeat is a full, independent set-up.
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::uint64_t start = now_ns();
    {
      const EdgeList graph =
          make_corpus_graph(corpus_entry("social_network"), kGraphScale, options.seed);
      write_edge_list_text(graph, fx.path);
    }
    fx.pool = profile_pool(fx.cluster);
    setups.push_back(seconds_since(start));
  }
  fx.file_bytes = std::filesystem::file_size(fx.path);

  // Measurement.  A traced run spends its first half untraced so the ratio
  // of the two halves is the tracing overhead.
  Tracer& tracer = Tracer::instance();
  std::vector<StageTimes> times;
  std::vector<double> untraced_runs, traced_runs, cpu;
  std::string reference;
  Outputs last;
  const std::uint64_t start = now_ns();
  for (std::uint64_t i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    if (elapsed >= options.seconds && i >= static_cast<std::uint64_t>(kMinIterations)) break;
    tracer.set_enabled(options.trace && (elapsed >= options.seconds / 2 || i >= 2));
    StageTimes t;
    const double cpu_before = self_cpu_seconds();
    last = run_chain(fx, i, t);
    cpu.push_back(self_cpu_seconds() - cpu_before);
    (tracer.enabled() ? traced_runs : untraced_runs).push_back(t.total);
    times.push_back(t);
    ++outcome.attempted;
    if (reference.empty()) reference = last.fingerprint;
    if (last.fingerprint != reference) {
      ++outcome.failed;
      outcome.fail("pipeline iteration " + std::to_string(i) +
                   " differs from iteration 0");
    }
  }
  tracer.set_enabled(false);

  // Correctness: the staged chain equals run_flow on the same file, and a
  // PGLB_THREADS=1 child produces the same bytes.
  if (flow_fingerprint(fx) != reference) {
    outcome.fail("staged pipeline differs from run_flow: " + reference);
  }
  std::string child_out;
  const int status = run_child(
      {options.self_path, "--role=pipeline-child", "--graph=" + fx.path}, {"PGLB_THREADS=1"},
      &child_out);
  JsonValue child;
  try {
    child = parse_json(child_out);
  } catch (const std::exception&) {
  }
  const JsonValue* child_fp = child.is_object() ? child.find("fingerprint") : nullptr;
  const JsonValue* child_flow = child.is_object() ? child.find("flow") : nullptr;
  if (status != 0 || child_fp == nullptr || child_flow == nullptr) {
    outcome.fail("PGLB_THREADS=1 child failed (status " + std::to_string(status) + ")");
  } else if (child_fp->as_string() != reference || child_flow->as_string() != reference) {
    outcome.fail("PGLB_THREADS=1 outputs differ: " + child_fp->as_string());
  }

  std::vector<double> runs;
  for (const StageTimes& t : times) runs.push_back(t.total);
  const double run_s = median(runs);
  const double edges = static_cast<double>(last.edges);

  outcome.add_e2e("setup_s", median(setups), "s");
  outcome.add_e2e("latency_ms", run_s * 1e3, "ms");
  outcome.add_e2e("cpu_ms_per_op", median(cpu) * 1e3, "ms");
  outcome.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");

  outcome.add_named("run_s", run_s, "s");
  outcome.add_named("edges_per_s", edges / run_s, "1/s");
  outcome.add_named("virtual_makespan_s", last.makespan, "s");
  outcome.add_named("replication_factor", last.replication, "ratio");

  const auto stage_median = [&](double StageTimes::*field) {
    std::vector<double> v;
    for (const StageTimes& t : times) v.push_back(t.*field);
    return median(v);
  };
  const double read_s = stage_median(&StageTimes::read);
  const double partition_s = stage_median(&StageTimes::partition);
  outcome.add_layer("graph.read_s", read_s, "s");
  outcome.add_layer("graph.read_mb_per_s",
                    static_cast<double>(fx.file_bytes) / 1e6 / read_s, "MB/s");
  outcome.add_layer("graph.stats_s", stage_median(&StageTimes::stats), "s");
  outcome.add_layer("apps.prepare_s", stage_median(&StageTimes::prepare), "s");
  outcome.add_layer("apps.execute_s", stage_median(&StageTimes::execute), "s");
  outcome.add_layer("apps.supersteps", last.supersteps, "count");
  outcome.add_layer("gen.alpha_fit_us", stage_median(&StageTimes::alpha) * 1e6, "us");
  outcome.add_layer("core.weights_ms", stage_median(&StageTimes::weights) * 1e3, "ms");
  outcome.add_layer("partition.hybrid_s", partition_s, "s");
  outcome.add_layer("partition.edges_per_s", edges / partition_s, "1/s");
  outcome.add_layer("partition.metrics_s", stage_median(&StageTimes::metrics), "s");
  outcome.add_layer("engine.finalize_s", stage_median(&StageTimes::finalize), "s");
  outcome.add_layer("engine.memory_gb_max", last.memory_gb_max, "GB");
  outcome.add_layer("graph.release_s", stage_median(&StageTimes::release), "s");

  std::vector<double> untimed;
  for (const StageTimes& t : times) untimed.push_back((t.total - t.timed()) / t.total);
  outcome.add_layer("driver.untimed_ratio", median(untimed), "ratio");
  if (median(untimed) > 0.05) outcome.fail("driver.untimed_ratio above 5% on pipeline_run");
  if (options.trace) {
    outcome.add_layer("driver.trace_overhead_ratio",
                      median(traced_runs) / median(untraced_runs), "ratio");
  }
  if (child_fp != nullptr) {
    if (const JsonValue* st = child.find("times")) {
      const auto get = [&](const char* key) {
        const JsonValue* v = st->find(key);
        return v != nullptr ? v->as_number() : 0.0;
      };
      outcome.add_layer("st.partition_hybrid_s", get("partition"), "s");
      outcome.add_layer("st.partition_metrics_s", get("metrics"), "s");
      outcome.add_layer("st.engine_finalize_s", get("finalize"), "s");
      outcome.add_layer("st.apps_execute_s", get("execute"), "s");
      outcome.add_layer("st.run_s", get("total"), "s");
    }
  }
  outcome.notes.push_back("input " + fx.path + ": " + std::to_string(fx.file_bytes) +
                          " bytes, " + std::to_string(last.edges) + " edges");
  outcome.notes.push_back(timing_note("pipeline run", runs, "s"));
  outcome.notes.push_back("provenance " +
                          provenance_json(options, fx.file_bytes, 0, 0,
                                          static_cast<int>(global_pool().threads())));
  std::error_code ignored;
  std::filesystem::remove(fx.path, ignored);
  return outcome;
}

}  // namespace perfbench
