#pragma once
// Distributed Connected Components: synchronous min-label propagation over
// the undirected view of the edge partition, with an active-edge frontier
// (only edges touching a vertex whose label changed last round do work,
// mirroring PowerGraph's delta scheduling).

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "engine/distributed_graph.hpp"
#include "engine/exec_report.hpp"
#include "machine/perf_model.hpp"

namespace pglb {

struct ConnectedComponentsOutput : RunReports {
  std::vector<VertexId> labels;     ///< smallest vertex id in each component
  std::uint64_t num_components = 0; ///< including isolated singletons
};

ConnectedComponentsOutput run_connected_components(const EdgeList& graph,
                                                   const DistributedGraph& dg,
                                                   ClusterLanes clusters,
                                                   const WorkloadTraits& traits,
                                                   int max_iterations = 200);

}  // namespace pglb
