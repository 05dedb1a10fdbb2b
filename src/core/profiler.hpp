#pragma once
// Offline profiling (Sec. III-B, Fig. 7a): run each application on each
// synthetic proxy on ONE representative machine per group — individually, so
// no communication interferes — and collect the runtimes into the CCR pool.
// Profiling is a one-time cost per (application, machine type); the pool is
// reused across every future input graph.
//
// In the virtual-time engine an app's work does not depend on the machine it
// runs on, so each (app, graph) is run once and its superstep stream is timed
// on every machine class in the same pass (profile_machines, ClusterLanes);
// each class still counts as one profiling cell.

#include <span>
#include <vector>

#include "cluster/groups.hpp"
#include "core/proxy_suite.hpp"
#include "machine/app_profile.hpp"
#include "util/deadline.hpp"

namespace pglb {

class ThreadPool;

/// Seed of the random-hash partition inside every profiling pass.  Fixed by
/// design, NOT plumbed from the pipeline seed: a profile entry must be a pure
/// function of (machine class, app, proxy) so that (a) the service's profile
/// cache — whose key deliberately carries no seed — always serves bytes
/// identical to a fresh run, and (b) CCR stays a hardware property rather
/// than a sampling artifact.  On a one-machine cluster the partition is
/// degenerate anyway (every edge lands on machine 0), so no information is
/// lost.  tests/test_profiler.cpp pins this contract.
inline constexpr std::uint64_t kProfilingPartitionSeed = 0;

/// Virtual-time runtimes of `app` on `graph`, one per machine type in
/// `specs`, each executed as a single machine (a one-machine cluster: no
/// mirrors, no communication).  `scale` is the down-scaling factor of `graph`
/// for trait re-inflation.  The app runs once; every spec is one profiling
/// cell that checks `cancel`, carries the "profiler.cell" fault-injection
/// site and counts into "profiler.cells" before the run starts.  The cell
/// checks fan out over `pool` (nullptr = the global pool), so a stalled cell
/// stalls only itself.
std::vector<double> profile_machines(std::span<const MachineSpec> specs, AppKind app,
                                     const EdgeList& graph, double scale,
                                     const CancelToken* cancel = nullptr,
                                     ThreadPool* pool = nullptr);

/// profile_machines() for one machine type.
double profile_single_machine(const MachineSpec& spec, AppKind app,
                              const EdgeList& graph, double scale,
                              const CancelToken* cancel = nullptr);

/// The CCR pool (Fig. 7a right): per application and proxy distribution, the
/// profiled per-group runtimes; queried by the flow with the input graph's
/// fitted alpha.
class CcrPool {
 public:
  struct Entry {
    AppKind app = AppKind::kPageRank;
    double proxy_alpha = 0.0;
    std::vector<double> group_times;  ///< one per machine group
  };

  void insert(Entry entry);

  bool has_app(AppKind app) const noexcept;
  std::span<const Entry> entries() const noexcept { return entries_; }
  std::size_t num_groups() const noexcept { return num_groups_; }

  /// Pool entry for `app` whose proxy alpha is nearest to `graph_alpha`, or
  /// nullptr if the app was never profiled.  Exposes which proxy a lookup
  /// resolves to — the stable identity callers can cache against.
  const Entry* entry_for(AppKind app, double graph_alpha) const noexcept;

  /// CCR vector (Eq. 1, one per group) for `app`, using the pool entry whose
  /// proxy alpha is nearest to `graph_alpha`.  Throws std::out_of_range if
  /// the app was never profiled.
  std::vector<double> ccr_for(AppKind app, double graph_alpha) const;

  /// Average the per-proxy CCRs for `app` (used when no alpha is known).
  std::vector<double> mean_ccr_for(AppKind app) const;

 private:
  std::vector<Entry> entries_;
  std::size_t num_groups_ = 0;
};

/// Run the full profiling pass: every app x every proxy x one machine per
/// group.  Each (app, proxy) run, timed on every group, is an independent
/// virtual execution, so runs fan out over `pool` (nullptr = the global
/// pool); results land in per-run slots and are assembled in the serial
/// iteration order, so the pool is bit-identical at any thread count.
/// `cancel` is polled per cell; a fired token aborts the remaining cells and
/// rethrows CancelledError from the fan-out.
CcrPool profile_cluster(const Cluster& cluster, const ProxySuite& suite,
                        std::span<const AppKind> apps, ThreadPool* pool = nullptr,
                        const CancelToken* cancel = nullptr);

/// Profile using an arbitrary graph instead of the proxies (the "real graph"
/// CCR of Fig. 8, and the oracle estimator).  Returns per-group times.
std::vector<double> profile_groups_on_graph(const Cluster& cluster,
                                            AppKind app, const EdgeList& graph,
                                            double scale, ThreadPool* pool = nullptr,
                                            const CancelToken* cancel = nullptr);

}  // namespace pglb
