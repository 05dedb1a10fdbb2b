#include "apps/triangle_count.hpp"

#include <stdexcept>

#include "engine/engine.hpp"
#include "graph/builder.hpp"

namespace pglb {

TriangleCountOutput run_triangle_count(const EdgeList& graph, const DistributedGraph& dg,
                                       ClusterLanes clusters,
                                       const WorkloadTraits& traits) {
  if (dg.num_machines() != clusters.num_machines()) {
    throw std::invalid_argument("run_triangle_count: machine count mismatch");
  }
  for (const Edge& e : graph.edges()) {
    if (e.src >= e.dst) {
      throw std::invalid_argument(
          "run_triangle_count: input must be canonical undirected (src < dst); "
          "run canonical_undirected() first");
    }
  }

  const AppProfile& app = profile_for(AppKind::kTriangleCount);
  VirtualClusterExecutor exec(clusters, app, traits);

  Csr adj = build_undirected_csr(graph);  // sorted adjacency for merges

  TriangleCountOutput out;
  out.per_vertex.assign(dg.num_vertices(), 0);

  std::vector<double> ops(dg.num_machines(), 0.0);
  std::uint64_t edge_count_sum = 0;  // sum over edges of |N(u) ∩ N(v)| = 3 * triangles

  for (MachineId m = 0; m < dg.num_machines(); ++m) {
    double local_ops = 0.0;
    for (const Edge& e : dg.local_edges(m)) {
      const auto nu = adj.neighbors(e.src);
      const auto nv = adj.neighbors(e.dst);
      std::uint64_t common = 0;
      std::size_t i = 0, j = 0;
      while (i < nu.size() && j < nv.size()) {
        local_ops += 1.0;  // every merge step is real work
        if (nu[i] < nv[j]) {
          ++i;
        } else if (nv[j] < nu[i]) {
          ++j;
        } else {
          ++common;
          ++i;
          ++j;
        }
      }
      edge_count_sum += common;
      // Each common neighbour w forms a triangle {u, v, w}; credit the edge's
      // endpoints now (w is credited when its own edges are processed).
      out.per_vertex[e.src] += common;
      out.per_vertex[e.dst] += common;
    }
    ops[m] = local_ops;
  }

  // Gather ships neighbour lists to mirrors: scale the mirror message size by
  // the mean degree.
  const double mean_degree =
      dg.num_vertices() > 0
          ? static_cast<double>(adj.num_edges()) / static_cast<double>(dg.num_vertices())
          : 0.0;
  std::vector<double> comm = mirror_sync_bytes(dg, app);
  for (double& c : comm) c *= 1.0 + mean_degree / 4.0;

  exec.record_superstep(ops, comm);

  // Each triangle at v was credited once per incident edge (two of them).
  for (std::uint64_t& t : out.per_vertex) t /= 2;
  out.total_triangles = edge_count_sum / 3;
  out.set_lanes(exec.finish_lanes("triangle_count", true));
  return out;
}

}  // namespace pglb
