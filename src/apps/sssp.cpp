#include "apps/sssp.hpp"

#include <algorithm>
#include <stdexcept>

#include "engine/engine.hpp"

namespace pglb {

SsspOutput run_sssp(const EdgeList& /*graph*/, const DistributedGraph& dg,
                    ClusterLanes clusters, const WorkloadTraits& traits,
                    VertexId source, int max_iterations) {
  if (dg.num_machines() != clusters.num_machines()) {
    throw std::invalid_argument("run_sssp: machine count mismatch");
  }
  const VertexId n = dg.num_vertices();
  if (source >= n) throw std::out_of_range("run_sssp: source outside vertex space");

  const AppProfile& app = profile_for(AppKind::kSssp);
  VirtualClusterExecutor exec(clusters, app, traits);
  const auto full_comm = mirror_sync_bytes(dg, app);

  std::vector<std::uint32_t> dist(n, kUnreachable);
  dist[source] = 0;
  std::vector<char> active(n, 0), next_active(n, 0);
  active[source] = 1;
  double active_fraction = n > 0 ? 1.0 / n : 0.0;

  bool converged = false;
  for (int it = 0; it < max_iterations; ++it) {
    std::vector<double> ops(dg.num_machines(), 0.0);
    bool any_change = false;

    for (MachineId m = 0; m < dg.num_machines(); ++m) {
      double local_ops = 0.0;
      for (const Edge& e : dg.local_edges(m)) {
        if (!active[e.src] && !active[e.dst]) continue;
        local_ops += 1.0;
        // Undirected relaxation with unit weights.
        if (dist[e.src] != kUnreachable && dist[e.src] + 1 < dist[e.dst]) {
          dist[e.dst] = dist[e.src] + 1;
          next_active[e.dst] = 1;
          any_change = true;
        }
        if (dist[e.dst] != kUnreachable && dist[e.dst] + 1 < dist[e.src]) {
          dist[e.src] = dist[e.dst] + 1;
          next_active[e.src] = 1;
          any_change = true;
        }
      }
      ops[m] = local_ops;
    }

    std::vector<double> comm(full_comm);
    for (double& c : comm) c *= active_fraction;
    exec.record_superstep(ops, comm);

    if (!any_change) {
      converged = true;
      break;
    }
    std::swap(active, next_active);
    std::fill(next_active.begin(), next_active.end(), 0);
    VertexId count = 0;
    for (const char a : active) count += a;
    active_fraction = n > 0 ? static_cast<double>(count) / n : 0.0;
  }

  SsspOutput out;
  for (const std::uint32_t d : dist) {
    if (d != kUnreachable) ++out.reached;
  }
  out.distance = std::move(dist);
  out.set_lanes(exec.finish_lanes("sssp", converged));
  return out;
}

}  // namespace pglb
