#pragma once
// Distributed Triangle Count.  Each machine intersects the neighbour lists of
// its local edges' endpoints (sorted-merge, counting real work steps); the
// per-edge counts sum to 3x the triangle total.  Ingests the canonical
// undirected simple graph (see canonical_undirected()); the gather phase's
// neighbour-list shipping makes this the most communication-heavy app.

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "engine/distributed_graph.hpp"
#include "engine/exec_report.hpp"
#include "machine/perf_model.hpp"

namespace pglb {

struct TriangleCountOutput : RunReports {
  std::uint64_t total_triangles = 0;
  /// Triangles incident to each vertex (the paper's per-vertex output).
  std::vector<std::uint64_t> per_vertex;
};

/// `graph` must be canonical undirected (src < dst, no duplicates); throws
/// std::invalid_argument otherwise.
TriangleCountOutput run_triangle_count(const EdgeList& graph, const DistributedGraph& dg,
                                       ClusterLanes clusters, const WorkloadTraits& traits);

}  // namespace pglb
