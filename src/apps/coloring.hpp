#pragma once
// Distributed greedy graph colouring.
//
// PowerGraph runs Coloring asynchronously; we implement the classic
// Jones-Plassmann parallel schedule (random priorities; a vertex colours
// itself with the smallest colour unused by coloured neighbours once every
// higher-priority neighbour is done).  The rounds execute without BSP
// barriers in the virtual-time model (AppProfile::synchronous == false),
// reproducing the paper's observation that async execution caps the benefit
// of load balancing (Sec. V-B1).

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "engine/distributed_graph.hpp"
#include "engine/exec_report.hpp"
#include "machine/perf_model.hpp"

namespace pglb {

struct ColoringOutput : RunReports {
  std::vector<std::uint32_t> colors;
  std::uint32_t num_colors = 0;  ///< distinct colours in use (paper's output)
};

ColoringOutput run_coloring(const EdgeList& graph, const DistributedGraph& dg,
                            ClusterLanes clusters, const WorkloadTraits& traits,
                            std::uint64_t priority_seed = 99);

}  // namespace pglb
