#include "core/profiler.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "apps/registry.hpp"
#include "core/ccr.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "partition/random_hash.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace pglb {

namespace {

/// One representative machine per identical-spec group, in group order.
std::vector<MachineSpec> group_representatives(const Cluster& cluster) {
  std::vector<MachineSpec> specs;
  for (const MachineGroup& group : group_machines(cluster)) {
    specs.push_back(group.representative);
  }
  return specs;
}

/// `step()` under a child span of `profile.cell` (literal name/category).
template <typename Step>
auto traced(const char* name, const char* category, Step&& step) {
  PGLB_TRACE_SPAN(name, category);
  return step();
}

}  // namespace

std::vector<double> profile_machines(std::span<const MachineSpec> specs, AppKind app,
                                     const EdgeList& graph, double scale,
                                     const CancelToken* cancel, ThreadPool* pool) {
  if (specs.empty()) return {};
  // One profiling cell per machine type.  Cancellation is checked at cell
  // granularity, before the shared run: a run that has started always
  // completes (its output is bit-identical to an undeadlined run), and a
  // stuck cell is simulated by the "profiler.cell" fault site rather than
  // interrupted for real.
  parallel_for(pool_or_global(pool), specs.size(), 1,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   check_cancel(cancel, "profiler.cell");
                   fault_point("profiler.cell");
                   check_cancel(cancel, "profiler.cell");  // a stall may have eaten the budget
                   global_registry().count("profiler.cells");
                 }
               });

  // The shared run, arg = cells it times.  The span covers every caller
  // (suite profiling, oracle estimation, the planning service).
  PGLB_TRACE_SPAN_ARG("profile.cell", "profiler", static_cast<std::uint64_t>(specs.size()));
  std::vector<Cluster> solos;
  solos.reserve(specs.size());
  for (const MachineSpec& spec : specs) solos.emplace_back(std::vector<MachineSpec>{spec});
  const EdgeList prepared = traced("profile.prepare", "profiler",
                                  [&] { return prepare_graph_for(app, graph); });
  const GraphStats stats =
      traced("profile.stats", "profiler", [&] { return compute_stats(prepared); });
  const WorkloadTraits traits = traits_from_stats(stats, scale);

  const RandomHashPartitioner partitioner;
  const std::vector<double> weights{1.0};
  const auto assignment =
      partitioner.partition(prepared, weights, kProfilingPartitionSeed);
  const auto dg = traced("engine.build", "engine",
                         [&] { return build_distributed(prepared, assignment); });
  const auto result = traced("engine.run", "engine", [&] {
    return run_app(app, prepared, dg, ClusterLanes(solos), traits);
  });
  std::vector<double> times(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    times[i] = result.lane(i).makespan_seconds;
  }
  return times;
}

double profile_single_machine(const MachineSpec& spec, AppKind app,
                              const EdgeList& graph, double scale,
                              const CancelToken* cancel) {
  return profile_machines({&spec, 1}, app, graph, scale, cancel).front();
}

void CcrPool::insert(Entry entry) {
  if (entry.group_times.empty()) {
    throw std::invalid_argument("CcrPool::insert: empty group_times");
  }
  if (num_groups_ == 0) {
    num_groups_ = entry.group_times.size();
  } else if (entry.group_times.size() != num_groups_) {
    throw std::invalid_argument("CcrPool::insert: inconsistent group count");
  }
  entries_.push_back(std::move(entry));
}

bool CcrPool::has_app(AppKind app) const noexcept {
  for (const Entry& e : entries_) {
    if (e.app == app) return true;
  }
  return false;
}

const CcrPool::Entry* CcrPool::entry_for(AppKind app, double graph_alpha) const noexcept {
  const Entry* best = nullptr;
  double best_gap = std::numeric_limits<double>::infinity();
  for (const Entry& e : entries_) {
    if (e.app != app) continue;
    const double gap = std::abs(e.proxy_alpha - graph_alpha);
    if (gap < best_gap) {
      best = &e;
      best_gap = gap;
    }
  }
  return best;
}

std::vector<double> CcrPool::ccr_for(AppKind app, double graph_alpha) const {
  const Entry* best = entry_for(app, graph_alpha);
  if (best == nullptr) {
    throw std::out_of_range("CcrPool::ccr_for: app '" + std::string(to_string(app)) +
                            "' not profiled");
  }
  return ccr_from_times(best->group_times);
}

std::vector<double> CcrPool::mean_ccr_for(AppKind app) const {
  std::vector<double> sum;
  std::size_t count = 0;
  for (const Entry& e : entries_) {
    if (e.app != app) continue;
    const auto ccr = ccr_from_times(e.group_times);
    if (sum.empty()) sum.assign(ccr.size(), 0.0);
    for (std::size_t g = 0; g < ccr.size(); ++g) sum[g] += ccr[g];
    ++count;
  }
  if (count == 0) {
    throw std::out_of_range("CcrPool::mean_ccr_for: app not profiled");
  }
  for (double& s : sum) s /= static_cast<double>(count);
  return sum;
}

CcrPool profile_cluster(const Cluster& cluster, const ProxySuite& suite,
                        std::span<const AppKind> apps, ThreadPool* thread_pool,
                        const CancelToken* cancel) {
  PGLB_TRACE_SPAN("profile.cluster", "profiler");
  const std::vector<MachineSpec> representatives = group_representatives(cluster);
  const auto proxies = suite.proxies();

  // Flatten the (app, proxy) fan-out: every run is an independent virtual
  // execution, timed on each group, writing its own slot.  A CancelledError
  // (or injected fault) from any cell is rethrown by the fan-out.
  std::vector<std::vector<double>> times(apps.size() * proxies.size());
  parallel_for(pool_or_global(thread_pool), times.size(), 1,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t run = begin; run < end; ++run) {
                   times[run] = profile_machines(representatives, apps[run / proxies.size()],
                                                proxies[run % proxies.size()].graph,
                                                suite.scale(), cancel, thread_pool);
                 }
               });

  // Assemble in the serial iteration order (app-major, then proxy).
  CcrPool pool;
  std::size_t run = 0;
  for (const AppKind app : apps) {
    for (const ProxySuite::Proxy& proxy : proxies) {
      pool.insert({app, proxy.alpha, std::move(times[run++])});
    }
  }
  return pool;
}

std::vector<double> profile_groups_on_graph(const Cluster& cluster, AppKind app,
                                            const EdgeList& graph, double scale,
                                            ThreadPool* thread_pool,
                                            const CancelToken* cancel) {
  PGLB_TRACE_SPAN("profile.groups", "profiler");
  return profile_machines(group_representatives(cluster), app, graph, scale, cancel,
                          thread_pool);
}

}  // namespace pglb
