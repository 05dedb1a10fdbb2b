#pragma once
// Virtual-time BSP executor: the scheduling/energy core of the simulated
// PowerGraph substrate.
//
// Applications (src/apps/) do the *real* computation machine-by-machine over
// their local edge partitions, and report per-machine work (operation counts)
// and mirror-synchronisation bytes for each superstep.  The executor converts
// work to virtual seconds through the machine performance model, applies the
// BSP barrier (synchronous apps) or end-only barrier (asynchronous apps, i.e.
// Coloring), and integrates energy over the busy/idle schedule.

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/interference.hpp"
#include "engine/distributed_graph.hpp"
#include "engine/exec_report.hpp"
#include "machine/app_profile.hpp"
#include "machine/perf_model.hpp"

namespace pglb {

class ThreadPool;

class VirtualClusterExecutor {
 public:
  /// One accounting lane per cluster: every recorded superstep is converted
  /// to virtual time on each lane's machines independently, so a lane's
  /// report is bit-identical to a one-cluster executor's on that cluster.
  VirtualClusterExecutor(ClusterLanes clusters, const AppProfile& app,
                         const WorkloadTraits& traits);

  /// Sustained work-units/second of machine m of the first lane for this
  /// app/workload (nominal, without interference).
  double throughput(MachineId m) const { return lanes_.front().throughputs.at(m); }

  /// Inject a transient-slowdown schedule (multi-tenant interference) into
  /// every lane.  Must be called before the first superstep.
  void set_interference(InterferenceSchedule schedule);

  /// Shard per-machine superstep accounting over `pool` (nullptr = the global
  /// pool).  Reports are bit-identical at any thread count: machines own
  /// their activity slots and cross-machine float sums stay in machine order.
  void set_thread_pool(ThreadPool* pool) noexcept { pool_ = pool; }

  /// Record one superstep: ops[m] work-units computed and comm_bytes[m]
  /// mirror traffic moved by machine m.
  void record_superstep(std::span<const double> ops, std::span<const double> comm_bytes);

  /// Seal the run and produce one report per lane, in lane order.
  std::vector<ExecReport> finish_lanes(std::string app_name, bool converged);

  /// finish_lanes() of a one-lane executor; throws std::logic_error on more
  /// lanes.
  ExecReport finish(std::string app_name, bool converged);

  MachineId num_machines() const noexcept { return num_machines_; }
  bool synchronous() const noexcept { return app_->synchronous; }

 private:
  struct Lane {
    const Cluster* cluster;
    std::vector<double> throughputs;
    EnergyAccumulator energy;
    std::vector<MachineActivity> activity;
    std::vector<SuperstepTrace> trace;
    double makespan = 0.0;
  };

  void account(Lane& lane, std::span<const double> ops, double total_bytes);
  ExecReport seal(Lane& lane, const std::string& app_name, bool converged);

  const AppProfile* app_;
  MachineId num_machines_;
  ThreadPool* pool_ = nullptr;
  double work_scale_ = 1.0;
  std::vector<Lane> lanes_;
  InterferenceSchedule interference_;
  int supersteps_ = 0;
  double total_ops_ = 0.0;
  bool finished_ = false;
};

/// Mirror-synchronisation bytes each machine moves in one value-exchange
/// round: every mirror uploads its gather partial and downloads the applied
/// value (2 messages of app.bytes_per_mirror).
std::vector<double> mirror_sync_bytes(const DistributedGraph& dg, const AppProfile& app);

}  // namespace pglb
