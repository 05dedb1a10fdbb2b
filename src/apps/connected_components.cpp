#include "apps/connected_components.hpp"

#include <algorithm>
#include <stdexcept>

#include "apps/reference.hpp"
#include "engine/engine.hpp"

namespace pglb {

ConnectedComponentsOutput run_connected_components(const EdgeList& /*graph*/,
                                                   const DistributedGraph& dg,
                                                   ClusterLanes clusters,
                                                   const WorkloadTraits& traits,
                                                   int max_iterations) {
  if (dg.num_machines() != clusters.num_machines()) {
    throw std::invalid_argument("run_connected_components: machine count mismatch");
  }
  const VertexId n = dg.num_vertices();
  const AppProfile& app = profile_for(AppKind::kConnectedComponents);
  VirtualClusterExecutor exec(clusters, app, traits);
  const auto full_comm = mirror_sync_bytes(dg, app);

  std::vector<VertexId> label(n);
  for (VertexId v = 0; v < n; ++v) label[v] = v;
  std::vector<VertexId> next(label);
  // Frontier: everything active in round 1.
  std::vector<char> active(n, 1), next_active(n, 0);

  bool converged = false;
  double active_fraction = 1.0;
  for (int it = 0; it < max_iterations; ++it) {
    std::vector<double> ops(dg.num_machines(), 0.0);
    bool any_change = false;

    for (MachineId m = 0; m < dg.num_machines(); ++m) {
      double local_ops = 0.0;
      for (const Edge& e : dg.local_edges(m)) {
        if (!active[e.src] && !active[e.dst]) continue;  // frontier skip
        local_ops += 1.0;
        const VertexId lo = std::min(label[e.src], label[e.dst]);
        if (next[e.src] > lo) {
          next[e.src] = lo;
        }
        if (next[e.dst] > lo) {
          next[e.dst] = lo;
        }
      }
      ops[m] = local_ops;
    }

    for (VertexId v = 0; v < n; ++v) {
      if (next[v] < label[v]) {
        label[v] = next[v];
        next_active[v] = 1;
        any_change = true;
      }
    }

    // Mirror traffic shrinks with the frontier.
    std::vector<double> comm(full_comm);
    for (double& c : comm) c *= active_fraction;
    exec.record_superstep(ops, comm);

    if (!any_change) {
      converged = true;
      break;
    }
    std::swap(active, next_active);
    std::fill(next_active.begin(), next_active.end(), 0);
    VertexId active_count = 0;
    for (const char a : active) active_count += a;
    active_fraction = n > 0 ? static_cast<double>(active_count) / n : 0.0;
  }

  ConnectedComponentsOutput out;
  out.num_components = count_components(label);
  out.labels = std::move(label);
  out.set_lanes(exec.finish_lanes("connected_components", converged));
  return out;
}

}  // namespace pglb
