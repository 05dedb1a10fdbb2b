#include "engine/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace pglb {

namespace {
/// Per-machine accounting shards only on clusters big enough to repay the
/// fan-out; the common test clusters (a handful of machines) stay inline.
constexpr std::size_t kMachineGrain = 64;
}  // namespace

VirtualClusterExecutor::VirtualClusterExecutor(ClusterLanes clusters, const AppProfile& app,
                                               const WorkloadTraits& traits)
    : app_(&app), num_machines_(clusters.num_machines()), work_scale_(traits.work_scale) {
  if (!(work_scale_ >= 1.0)) {
    throw std::invalid_argument("VirtualClusterExecutor: work_scale must be >= 1");
  }
  lanes_.reserve(clusters.size());
  for (std::size_t l = 0; l < clusters.size(); ++l) {
    const Cluster& cluster = clusters[l];
    Lane lane{&cluster, {},
              EnergyAccumulator(std::vector<MachineSpec>(cluster.machines().begin(),
                                                         cluster.machines().end())),
              std::vector<MachineActivity>(cluster.size()), {}};
    lane.throughputs.reserve(cluster.size());
    for (MachineId m = 0; m < cluster.size(); ++m) {
      lane.throughputs.push_back(throughput_ops(cluster.machine(m), app, traits));
    }
    lanes_.push_back(std::move(lane));
  }
}

void VirtualClusterExecutor::set_interference(InterferenceSchedule schedule) {
  if (supersteps_ > 0 || finished_) {
    throw std::logic_error("set_interference: must be called before execution starts");
  }
  interference_ = std::move(schedule);
}

void VirtualClusterExecutor::record_superstep(std::span<const double> ops,
                                              std::span<const double> comm_bytes) {
  // Host time of the accounting pass, arg = superstep index.  The virtual
  // BSP schedule itself is bridged separately (append_trace_spans).
  PGLB_TRACE_SPAN_ARG("engine.superstep", "engine",
                      static_cast<std::uint64_t>(supersteps_));
  if (finished_) throw std::logic_error("record_superstep after finish()");
  if (ops.size() != num_machines_ || comm_bytes.size() != num_machines_) {
    throw std::invalid_argument("record_superstep: per-machine vector size mismatch");
  }

  double total_bytes = 0.0;
  for (const double b : comm_bytes) total_bytes += b;
  for (Lane& lane : lanes_) account(lane, ops, total_bytes);
  for (const double o : ops) total_ops_ += o;
  ++supersteps_;
}

void VirtualClusterExecutor::account(Lane& lane, std::span<const double> ops,
                                     double total_bytes) {
  // Shared mirror-exchange phase: a collective over the total traffic of the
  // superstep.  Every machine is engaged for its full duration.
  const double exchange =
      lane.cluster->network().exchange_seconds(work_scale_ * total_bytes);

  // Per-machine accounting: every machine owns its busy[m]/activity[m]
  // slots, so the loop shards freely.  Only total_ops_ is a cross-machine
  // float reduction; it is summed afterwards in machine order, keeping the
  // report bit-identical at any thread count.
  std::vector<double> busy(num_machines_);
  parallel_for(pool_or_global(pool_), num_machines_, kMachineGrain,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t m = begin; m < end; ++m) {
                   // work_scale re-inflates counts measured on a scaled-down
                   // graph to paper scale, keeping the compute/exchange
                   // proportions scale-invariant.  Interference derates this
                   // machine's throughput for this superstep.
                   const double effective =
                       lane.throughputs[m] *
                       interference_.factor(static_cast<MachineId>(m), supersteps_);
                   const double compute = work_scale_ * ops[m] / effective;
                   busy[m] = compute + exchange;
                   lane.activity[m].compute_seconds += compute;
                   lane.activity[m].comm_seconds += exchange;
                   lane.activity[m].ops += ops[m];
                 }
               });

  if (app_->synchronous) {
    // BSP barrier at the end of compute, then the collective exchange: the
    // superstep lasts straggler-compute + exchange.
    const auto straggler = static_cast<MachineId>(
        std::max_element(busy.begin(), busy.end()) - busy.begin());
    const double window = busy[straggler];
    lane.energy.record_interval(busy, window);
    for (MachineId m = 0; m < num_machines_; ++m) {
      lane.activity[m].idle_seconds += window - busy[m];
    }
    lane.makespan += window;

    SuperstepTrace step;
    step.window_seconds = window;
    step.exchange_seconds = exchange;
    step.straggler = straggler;
    for (const double o : ops) step.total_ops += o;
    lane.trace.push_back(step);
  }
  // Asynchronous apps take no per-superstep barrier: busy time accumulated in
  // activity settles into makespan/energy at finish.
}

std::vector<ExecReport> VirtualClusterExecutor::finish_lanes(std::string app_name,
                                                             bool converged) {
  if (finished_) throw std::logic_error("finish() called twice");
  finished_ = true;
  global_registry().count("engine.runs");
  global_registry().count("engine.supersteps", static_cast<std::uint64_t>(supersteps_));

  std::vector<ExecReport> reports;
  reports.reserve(lanes_.size());
  for (Lane& lane : lanes_) reports.push_back(seal(lane, app_name, converged));
  return reports;
}

ExecReport VirtualClusterExecutor::finish(std::string app_name, bool converged) {
  if (lanes_.size() != 1) {
    throw std::logic_error("finish(): executor has several lanes; use finish_lanes()");
  }
  return std::move(finish_lanes(std::move(app_name), converged).front());
}

ExecReport VirtualClusterExecutor::seal(Lane& lane, const std::string& app_name,
                                        bool converged) {
  if (!app_->synchronous) {
    // Async: the run ends when the busiest machine drains its work.
    std::vector<double> busy(num_machines_);
    double window = 0.0;
    for (MachineId m = 0; m < num_machines_; ++m) {
      busy[m] = lane.activity[m].compute_seconds + lane.activity[m].comm_seconds;
      window = std::max(window, busy[m]);
    }
    lane.energy.record_interval(busy, window);
    for (MachineId m = 0; m < num_machines_; ++m) {
      lane.activity[m].idle_seconds = window - busy[m];
    }
    lane.makespan = window;
  }

  ExecReport report;
  report.app_name = app_name;
  report.makespan_seconds = lane.makespan;
  report.supersteps = supersteps_;
  report.converged = converged;
  report.total_ops = total_ops_;
  report.per_machine = lane.activity;
  report.trace = std::move(lane.trace);
  for (MachineId m = 0; m < num_machines_; ++m) {
    report.per_machine[m].joules = lane.energy.per_machine()[m].joules;
  }
  report.total_joules = lane.energy.total_joules();
  return report;
}

std::vector<double> mirror_sync_bytes(const DistributedGraph& dg, const AppProfile& app) {
  std::vector<double> bytes(dg.num_machines());
  for (MachineId m = 0; m < dg.num_machines(); ++m) {
    bytes[m] = 2.0 * app.bytes_per_mirror * static_cast<double>(dg.mirrors_on(m));
  }
  return bytes;
}

}  // namespace pglb
