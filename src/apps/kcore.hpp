#pragma once
// Distributed k-core decomposition (second extension app).
//
// Computes every vertex's coreness over the undirected view using the
// h-index iteration of Lu et al.: start from core(v) = degree(v) and
// repeatedly set core(v) to the H-index of its neighbours' current values —
// the largest h such that at least h neighbours have core >= h.  The
// iteration converges monotonically (from above) to the exact coreness and
// maps onto GAS supersteps like Connected Components: gather neighbour
// values, apply the H-index at the master, scatter to mirrors.

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "engine/distributed_graph.hpp"
#include "engine/exec_report.hpp"
#include "machine/perf_model.hpp"

namespace pglb {

struct KCoreOutput : RunReports {
  std::vector<std::uint32_t> coreness;
  std::uint32_t degeneracy = 0;  ///< max coreness (the graph's degeneracy)
};

KCoreOutput run_kcore(const EdgeList& graph, const DistributedGraph& dg,
                      ClusterLanes clusters, const WorkloadTraits& traits,
                      int max_iterations = 10'000);

/// Exact single-node reference: classic peeling with a bucket queue.
std::vector<std::uint32_t> kcore_reference(const EdgeList& graph);

}  // namespace pglb
