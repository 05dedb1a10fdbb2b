#pragma once
// Distributed single-source shortest paths (unit weights: BFS hop distance).
//
// Not one of the paper's four evaluation apps — included as the
// "special-purpose application" of Sec. III-B: any new app is profiled on the
// proxy suite once and immediately participates in CCR-guided partitioning.
// Frontier-based label propagation over the undirected view, like CC.

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "engine/distributed_graph.hpp"
#include "engine/exec_report.hpp"
#include "machine/perf_model.hpp"

namespace pglb {

inline constexpr std::uint32_t kUnreachable = 0xffffffffu;

struct SsspOutput : RunReports {
  std::vector<std::uint32_t> distance;  ///< hops from source; kUnreachable if none
  VertexId reached = 0;                 ///< vertices with finite distance
};

SsspOutput run_sssp(const EdgeList& graph, const DistributedGraph& dg,
                    ClusterLanes clusters, const WorkloadTraits& traits,
                    VertexId source = 0, int max_iterations = 10'000);

}  // namespace pglb
