#include "apps/pagerank.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "engine/engine.hpp"

namespace pglb {

PageRankOutput run_pagerank(const EdgeList& graph, const DistributedGraph& dg,
                            ClusterLanes clusters, const WorkloadTraits& traits,
                            const PageRankOptions& options) {
  if (dg.num_machines() != clusters.num_machines()) {
    throw std::invalid_argument("run_pagerank: cluster/partition machine count mismatch");
  }
  const VertexId n = dg.num_vertices();
  const AppProfile& app = profile_for(AppKind::kPageRank);
  VirtualClusterExecutor exec(clusters, app, traits);
  exec.set_interference(options.interference);

  const auto out_degree = graph.out_degrees();
  std::vector<double> rank(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  std::vector<double> acc(n);
  const double base = n > 0 ? (1.0 - options.damping) / static_cast<double>(n) : 0.0;
  const auto comm = mirror_sync_bytes(dg, app);

  bool converged = false;
  for (int it = 0; it < options.max_iterations; ++it) {
    std::fill(acc.begin(), acc.end(), 0.0);
    std::vector<double> ops(dg.num_machines(), 0.0);

    // Gather: each machine streams its local edges.
    for (MachineId m = 0; m < dg.num_machines(); ++m) {
      double local_ops = 0.0;
      for (const Edge& e : dg.local_edges(m)) {
        acc[e.dst] += rank[e.src] / static_cast<double>(out_degree[e.src]);
        local_ops += 1.0;
      }
      // Apply runs on each machine's master vertices.
      local_ops += static_cast<double>(dg.masters_on(m));
      ops[m] = local_ops;
    }

    // Apply: update every vertex (masters own the write; mirrors get the
    // value through the costed scatter).
    double delta = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      const double next = base + options.damping * acc[v];
      delta += std::abs(next - rank[v]);
      rank[v] = next;
    }

    exec.record_superstep(ops, comm);
    if (options.tolerance > 0.0 && delta < options.tolerance) {
      converged = true;
      break;
    }
  }

  PageRankOutput out;
  out.ranks = std::move(rank);
  out.set_lanes(exec.finish_lanes("pagerank", converged || options.tolerance == 0.0));
  return out;
}

}  // namespace pglb
